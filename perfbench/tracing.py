"""Spans around calls into regtor's public functions, recorded from outside.

Each traced function is replaced, at every ``regtor.*`` module attribute
bound to it, by a wrapper that records (id, parent id, name, start, end).
Calls from one regtor function to another, inside one module or across
modules, therefore nest.  Spans stay in memory; ``aggregate`` turns them
into per-function call counts and self time (span time minus the time its
direct child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

TRACED = (
    "numfield.build_field",
    "numfield.norm",
    "numfield.embed",
    "numfield.parse_descriptor",
    "flatmodel.build_lattice",
    "flatmodel.hermitian_cholesky",
    "flatmodel.reduce_mod_lattice",
    "flatmodel.cycl_free",
    "flatmodel.unit_log",
    "modtors.exact_det",
    "modtors.presentation",
    "modtors.zhat",
    "rtorsion.build_complex_over_r",
    "rtorsion.at_place",
    "rtorsion.metrized_complex_at_place",
    "rtorsion.reidemeister",
    "rtorsion.torsion_by_contraction",
    "rtorsion.verify_euler_identity",
    "polylog.bernoulli",
    "polylog.zeta_int",
    "polylog.polylog_circle",
    "circlebundle.make_cyclotomic_setup",
    "circlebundle.torsion_form_coeffs",
    "circlebundle.u_coeff",
    "circlebundle.regulator_identity_check",
    "circlebundle.cheeger_muller_check",
    "circlebundle.hatcher_constant",
    "cli.main",
)

COUNTERS = ("polylog.bernoulli.max_index", "rtorsion.rank_ambiguous", "rtorsion.validation_errors")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._errors = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        module = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "polylog.bernoulli" and args and args[0] > self.counters["polylog.bernoulli.max_index"]:
                self.counters["polylog.bernoulli.max_index"] = args[0]
            rec = [len(spans), stack[-1] if stack else -1, name, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if module == "rtorsion":
                    self._count(exc)
                raise
            finally:
                rec[4] = perf_counter()
                stack.pop()

        return wrapper

    def _count(self, exc):
        # One raise passes through several wrapped frames; count it once.
        if getattr(exc, "_perfbench_counted", False):
            return
        exc._perfbench_counted = True
        if isinstance(exc, self._errors.RankAmbiguous):
            self.counters["rtorsion.rank_ambiguous"] += 1
        elif isinstance(exc, self._errors.ValidationError):
            self.counters["rtorsion.validation_errors"] += 1

    def install(self):
        """Wrap every traced function wherever a regtor module binds it."""
        importlib.import_module("regtor.cli")
        self._errors = importlib.import_module("regtor.errors")
        for qual in TRACED:
            mod_name, func = qual.split(".")
            orig = getattr(importlib.import_module(f"regtor.{mod_name}"), func)
            wrapped = self._wrap(qual, orig)
            for name, mod in list(sys.modules.items()):
                if name != "regtor" and not name.startswith("regtor."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def aggregate(spans) -> dict:
    """{name: (calls, self_s)} from a list of [id, parent, name, start, end]."""
    child_time = {}
    for _, parent, _, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + end - start
    out = {}
    for sid, _, name, start, end in spans:
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start) - child_time.get(sid, 0.0))
    return out


def merge(into: dict, part: dict) -> dict:
    for name, (calls, self_s) in part.items():
        c0, s0 = into.get(name, (0, 0.0))
        into[name] = (c0 + calls, s0 + self_s)
    return into


def merge_counters(into: dict, part: dict) -> dict:
    """Sum counts from several processes; the largest index is a maximum."""
    for name, v in part.items():
        into[name] = max(into.get(name, 0), v) if name.endswith("max_index") else into.get(name, 0) + v
    return into
