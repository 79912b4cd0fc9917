"""In-process execution of circle-ladder and torsion-corpus ops.

``Session`` holds what set-up builds (fields, lattices, cyclotomic set-ups
made by earlier ops).  ``run`` performs one op and returns its raw result;
``serialize`` turns raw results into JSON after timing has ended, so that
formatting never runs inside a timed op.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpc, mpf

from regtor import circlebundle, flatmodel, modtors, numfield, polylog, rtorsion

import workloads

GUARD = 10


class Session:
    def __init__(self):
        self.fields = {}
        self.units = {}
        self.lattices = {}
        self.setups = {}

    def prepare_corpus(self, ops, step=lambda: None):
        """Build every field and unit lattice the corpus ops refer to; calls
        step() after each field."""
        for (name, d), lattice in workloads.corpus_fields(ops).items():
            step()
            if (name, d) not in self.fields:
                desc = workloads.descriptor(workloads.ring_of(name))
                self.fields[(name, d)], self.units[(name, d)] = numfield.parse_descriptor(desc, d)
            if lattice and (name, d) not in self.lattices:
                self.lattices[(name, d)] = flatmodel.build_lattice(self.fields[(name, d)], self.units[(name, d)])

    def run(self, op):
        return _RUNNERS[op["kind"]](self, op)


def _elem(field, cell):
    return field.element([Fraction(c) for c in ([cell] if isinstance(cell, str) else cell)])


def _matrix(field, rows):
    return [[_elem(field, c) for c in row] for row in rows]


def _theta(op):
    q = Fraction(op["theta_over_2pi"])
    with mp.workdps(op["tier"] + GUARD):
        return 2 * mp.pi * q.numerator / q.denominator


# Circle-bundle and polylog results use the row layout of the matching CLI
# subcommand's JSON output, so that one checker serves both.


def _setup(s, op):
    return s.setups[(op["r"], op["tier"])]


def run_cyclotomic_setup(s, op):
    st = circlebundle.make_cyclotomic_setup(op["r"], op["tier"])
    s.setups[(op["r"], op["tier"])] = st
    return {"r": op["r"], "thetas": list(st.thetas)}


def run_circle_torsion(s, op):
    st = _setup(s, op)
    coeffs = circlebundle.torsion_form_coeffs(st, op["jmax"])
    return {"r": op["r"], "rows": [{"sigma": k, "theta": st.thetas[k], "j": j, "T": coeffs[(k, j)]}
                                   for k in range(st.field.n_places) for j in range(op["jmax"] + 1)]}


def run_u_coeff(s, op):
    vals = circlebundle.u_coeff(_setup(s, op), op["j"])
    return {"r": op["r"], "j": op["j"], "rows": [{"sigma": k, "u": vals[k]} for k in sorted(vals)]}


def run_regulator_check(s, op):
    chk = circlebundle.regulator_identity_check(_setup(s, op), op["j"])
    return {"r": op["r"], "j": op["j"], "rows": [
        {"sigma": k, "lhs": chk[k][0], "rhs": chk[k][1], "ratio": chk[k][2]} for k in sorted(chk)]}


def run_cheeger_muller(s, op):
    chk = circlebundle.cheeger_muller_check(_setup(s, op))
    return {"r": op["r"], "rows": [
        {"sigma": k, "T0_abs": chk[k][0], "ln_tau": chk[k][1], "residual": chk[k][2]} for k in sorted(chk)]}


def run_polylog(s, op):
    theta = _theta(op)
    val = polylog.polylog_circle(op["n"], theta, op["tier"])
    return {"n": op["n"], "theta": theta, "re": val.real, "im": val.imag}


def run_zeta(s, op):
    return {"s": op["s"], "value": polylog.zeta_int(op["s"], op["tier"])}


def run_hatcher(s, op):
    a, kappa, value = circlebundle.hatcher_constant(op["k"], op["tier"])
    return {"k": op["k"], "a": a, "kappa": kappa, "value": value}


def run_bernoulli(s, op):
    return {"m": op["m"], "value": polylog.bernoulli(op["m"])}


def run_complex(s, op):
    """From plain data: build over R, both routes at every place, Euler check."""
    key = (op["field"], op["tier"])
    field, lat = s.fields[key], s.lattices[key]
    data = op["data"]
    specs = []
    for spec in data["cohomology"]:
        torsion = spec.get("torsion")
        specs.append(rtorsion.CohomologySpec(
            free_rank=spec.get("free_rank", 0),
            free_reps=tuple(tuple(_elem(field, c) for c in row) for row in spec.get("free_reps", ())),
            free_grams=tuple(spec.get("free_grams", ())),
            torsion=modtors.presentation(field, _matrix(field, torsion)) if torsion else None,
        ))
    diffs = [_matrix(field, m) for m in data["diffs"]]
    cplx = rtorsion.build_complex_over_r(field, data["lengths"], diffs, data["grams"], specs)
    tau_l, tau_c = [], []
    for k in range(field.n_places):
        at = rtorsion.at_place(cplx, k)
        tau_l.append(rtorsion.reidemeister(at))
        tau_c.append(rtorsion.torsion_by_contraction(at))
    res = rtorsion.verify_euler_identity(field, lat, cplx)
    return {"tau_l": tau_l, "tau_c": tau_c, "residual": res}


def run_unit_lattice(s, op):
    field = s.fields[(op["field"], op["tier"])]
    lat = flatmodel.build_lattice(field, [_elem(field, u) for u in op["units"]])
    return {"rank": lat.rank, "basis": [list(v) for v in lat.basis]}


def run_presentation(s, op):
    key = (op["field"], op["tier"])
    field, lat = s.fields[key], s.lattices[key]
    pres = modtors.presentation(field, _matrix(field, op["rows"]))
    x = modtors.zhat(field, lat, pres)
    return {"det": list(pres.det_elem.coeffs), "torus": x.torus, "basis": [list(v) for v in lat.basis]}


_RUNNERS = {
    "cyclotomic-setup": run_cyclotomic_setup, "circle-torsion": run_circle_torsion, "u-coeff": run_u_coeff,
    "regulator-check": run_regulator_check, "cheeger-muller": run_cheeger_muller, "polylog": run_polylog,
    "zeta": run_zeta, "hatcher": run_hatcher, "bernoulli": run_bernoulli, "complex": run_complex,
    "unit-lattice": run_unit_lattice, "presentation": run_presentation,
}


def serialize(x, digits):
    """JSON form of a raw result, numbers as decimal strings with all their digits."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, mpc):
        return [serialize(x.real, digits), serialize(x.imag, digits)]
    if isinstance(x, mpf):
        with mp.workdps(digits + 2 * GUARD):
            return str(x)
    if isinstance(x, flatmodel.PointClass):
        return {"rank": x.rank, "cls": list(x.cls), "is_zero": x.is_zero(),
                "torus": serialize(x.torus, digits)}
    if isinstance(x, flatmodel.TorusElement):
        return {"values": serialize(list(x.values), digits), "is_zero": x.is_zero()}
    if isinstance(x, dict):
        return {k: serialize(v, digits) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [serialize(v, digits) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")

