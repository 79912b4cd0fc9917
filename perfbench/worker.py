"""One workload pass in its own process: set-up, then the timed op list.

Usage: python worker.py SPEC_JSON

The spec names the workload, seed, whether to trace, and where to write the
result.  The pass runs the seed's fixed op list once, as a single
closed-loop client: one op at a time, the next one only after the previous
one has finished.  For cli-cold each op is a fresh interpreter; for the
other workloads each op is a library call in this process.  Outputs are
serialized only after the last timed op, and references are computed by the
parent after this process has exited, so nothing here warms a cache that a
later timed op could use.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import threading
from time import perf_counter

import probe
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 150


def fill_bytecode(env, err_path, modules="regtor.cli"):
    """Import modules once with bytecode writing on, filling the cache that
    PYTHONPYCACHEPREFIX names; every other child only reads it."""
    env = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
    code, _ = spawn([sys.executable, "-c", f"import sys; sys.path.insert(0, {HERE!r}); import {modules}"],
                    env, os.devnull, err_path)
    if code != 0:
        with open(err_path, errors="replace") as fh:
            raise SystemExit(f"import {modules} failed:\n{fh.read()[-2000:]}")


def spawn(argv, env, out_path, err_path, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion; returns (exit code, max RSS in MB)."""
    acts = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=acts)
    killer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


class ColdCli:
    """cli-cold: every op is `python -m regtor.cli ...` in a fresh process."""

    def __init__(self, spec, step):
        self.spec = spec
        self.work = spec["work"]
        self.env = dict(os.environ)
        os.makedirs(os.path.join(self.work, "data"), exist_ok=True)
        self.fields = {}
        for name in ("zsqrt2", "zeta5"):
            path = os.path.join(self.work, "data", f"{name}.json")
            with open(path, "w") as fh:
                json.dump(workloads.descriptor(workloads.ring_of(name)), fh)
            self.fields["@" + name] = path
        # Every timed spawn then sees the same bytecode state.
        step()
        fill_bytecode(self.env, os.path.join(self.work, "fill.err"))
        self.stdout_bytes = 0
        self.peak_rss_mb = 0.0
        self.layers = {}
        self.counters = {}

    def start_timing(self):
        pass

    def run(self, i, op):
        argv = [self.fields.get(a, a) for a in op["argv"]]
        out = os.path.join(self.work, "cli.out")
        err = os.path.join(self.work, "cli.err")
        if self.spec["trace"]:
            spans = os.path.join(self.work, "spans", f"op{i}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans] + argv
        else:
            cmd = [sys.executable, "-m", "regtor.cli"] + argv
        t0 = perf_counter()
        code, rss = spawn(cmd, self.env, out, err)
        dt = perf_counter() - t0
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        with open(out, "rb") as fh:
            raw = fh.read()
        self.stdout_bytes += len(raw)
        if self.spec["trace"] and os.path.exists(spans):
            self._collect(spans, op["tier"])
        rec = {"t": dt, "exit": code}
        if code != 0:
            with open(err, errors="replace") as fh:
                rec["error"] = f"exit {code}: {fh.read().strip()[-300:]}"
        else:
            try:
                rec["out"] = json.loads(raw)
            except json.JSONDecodeError as exc:
                rec["error"] = f"stdout is not JSON: {exc}"
        return rec

    def _collect(self, path, tier):
        with open(path) as fh:
            data = json.load(fh)
        tracing.merge(self.layers.setdefault(str(tier), {}), tracing.aggregate(data["spans"]))
        tracing.merge_counters(self.counters, data["counters"])

    def finish(self):
        return {"layers": self.layers, "counters": self.counters, "stdout_bytes": self.stdout_bytes,
                "peak_rss_mb": self.peak_rss_mb}

    def outputs(self, ops):
        return [None] * len(ops)  # parsed into the records as each op ends


class InProcess:
    """circle-ladder and torsion-corpus: library calls in this process."""

    def __init__(self, spec, first_ops, step):
        import ops

        step()
        self.ops_mod = ops
        self.spec = spec
        self.session = ops.Session()
        if spec["workload"] == "torsion-corpus":
            self.session.prepare_corpus(first_ops, step)
            # Warm-up: one complex per field and tier from other inputs, so
            # lazily computed constants exist before timing.
            warm = workloads.torsion_corpus(spec["seed"], smoke=True, label="warm")
            for op in warm:
                if op["kind"] == "complex" and "slice" not in op:
                    step()
                    self.session.run(op)
        else:
            for op in workloads.circle_warmup():
                step()
                self.session.run(op)
        self.tracer = None
        self.raw = []
        self.layers = {}

    def start_timing(self):
        if self.spec["trace"]:
            self.tracer = tracing.Tracer()
            self.tracer.install()

    def run(self, i, op):
        first = len(self.tracer.spans) if self.tracer else 0
        t0 = perf_counter()
        try:
            raw = self.session.run(op)
            err = None
        except Exception as exc:  # an op failure is a measurement, not a crash
            raw, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if self.tracer:
            tracing.merge(self.layers.setdefault(str(op["tier"]), {}), tracing.aggregate(self.tracer.spans[first:]))
        self.raw.append(raw)
        rec = {"t": dt}
        if err:
            rec["error"] = err
        return rec

    def finish(self):
        out = {}
        if self.tracer:
            self.tracer.dump(os.path.join(self.spec["work"], "spans", "inprocess.json"))
            out = {"layers": self.layers, "counters": self.tracer.counters, "stdout_bytes": 0}
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out

    def outputs(self, ops):
        return [None if r is None else self.ops_mod.serialize(r, op["tier"]) for r, op in zip(self.raw, ops)]


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    wl = spec["workload"]
    os.makedirs(os.path.join(spec["work"], "spans"), exist_ok=True)
    ops = workloads.op_list(wl, spec["seed"], spec["smoke"])
    # Set-up is probed at each of its steps (see probe.Clock).
    clock = probe.Clock(spec["t_spawn"], statistics.median(spec["probes"]))
    clock.mark()
    runner = ColdCli(spec, clock.mark) if wl == "cli-cold" else InProcess(spec, ops, clock.mark)
    clock.mark()
    runner.start_timing()
    recs, probes = [], []
    for i, op in enumerate(ops):
        probes.append(probe.probe())
        rec = runner.run(i, op)
        rec.update(op=i, tier=op["tier"])
        recs.append(rec)
    probes.append(probe.probe())
    # Each time also at the reference speed, from the probes around it.
    for i, rec in enumerate(recs):
        rec["t_ref"] = probe.scale(rec["t"], probe.near(probes, i))
    result = {"setup_s": clock.measured, "setup_ref_s": clock.ref, "probes": probes}
    result.update(runner.finish())
    for rec, out in zip(recs, runner.outputs(ops)):
        if out is not None:
            rec["out"] = out
    result["ops"] = ops
    result["records"] = recs
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
