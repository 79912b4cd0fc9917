"""Independent references for every op's output, computed with mpmath alone.

This module never imports regtor.  It runs in the parent process after the
timed pass has exited, so references such as ``mp.zeta`` or ``mp.bernfrac``
cannot warm a cache that a timed op later uses.

For every checked number the agreement with its reference is measured in
significant digits: the largest d' for which the value lies within half a
unit of the d'-th significant digit of the reference.  ``margin`` is d'
minus the digits requested, capped at ``CAP`` (the extra precision of the
reference).  An op passes when it raised nothing, every margin is >= 0 and
every exact field matches.

In-process ops return the row layout of the matching CLI subcommand and
name their arguments as its flags do, so each computation has one checker.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from mpmath import mp, mpc, mpf

import workloads

CAP = 20


class Mismatch(Exception):
    """An exact field of an output differs from its reference."""


def agree_digits(x, ref) -> float:
    err = abs(x - ref)
    if err == 0:
        return math.inf
    scale = abs(ref)
    top = 0 if scale == 0 else int(mp.floor(mp.log10(scale))) + 1
    return float(top - mp.log10(2 * err))


def _num(s):
    if isinstance(s, list):
        return mpc(_num(s[0]), _num(s[1]))
    if isinstance(s, str) and "/" in s:
        q = Fraction(s)
        return mpf(q.numerator) / q.denominator
    return mpf(s)


def places(name: str):
    """Place representatives in regtor's documented order, in closed form.

    Real embeddings ascending, then one of each conjugate pair (positive
    imaginary part) by ascending real part.
    """
    ring = workloads.ring_of(name)
    if ring.name == "zsqrt2":
        return [-mp.sqrt(2), mp.sqrt(2)]
    p = ring.n + 1
    roots = [mp.expjpi(mpf(2 * k) / p) for k in range(1, (p - 1) // 2 + 1)]
    return sorted(roots, key=lambda z: (z.real, z.imag))


def embed(coeffs, z):
    acc = mpc(0)
    for c in reversed([Fraction(c) for c in coeffs]):
        acc = acc * z + mpf(c.numerator) / c.denominator
    return acc


def mean_zero(vals):
    m = mp.fsum(vals) / len(vals)
    return [v - m for v in vals]


def cyclotomic_thetas(r):
    """Arguments of the place representatives of Z[zeta_r], in place order."""
    return [2 * mp.pi * k / r for k in range((r - 1) // 2, 0, -1)]


def prefactor(j):
    return mpf(math.factorial(2 * j + 1)) / ((2 * mp.pi) ** j * mpf(4) ** j * mpf(math.factorial(j)) ** 2)


def li(n, theta):
    return mp.polylog(n, mp.expj(theta))


def torsion_coeff(theta, j):
    if j == 0:
        return -mp.log(abs(1 - mp.expj(theta)))
    v = li(j + 1, theta)
    if j % 2 == 0:
        return (-1) ** (j // 2) * prefactor(j) * v.real
    return (-1) ** ((j - 1) // 2) * prefactor(j) * v.imag


def u_ref(theta, j):
    v = li(j + 1, theta)
    if j % 2 == 1:
        return prefactor(j) * v.imag
    return prefactor(j) * (v.real - mp.zeta(j + 1))


def bernoulli_ref(m) -> Fraction:
    p, q = mp.bernfrac(m)
    return Fraction(int(p), int(q))


def hatcher_ref(k):
    a = (bernoulli_ref(2 * k) / (4 * k)).denominator
    kappa = Fraction(1) if k % 2 else Fraction(1, 2)
    return a, kappa, a * mpf(kappa.numerator) / kappa.denominator * mp.zeta(2 * k + 1)


def normalization_ref(j):
    f = mpf(math.factorial(2 * j + 1))
    chern = (-1) ** j * 2 * mp.pi * f / (mpf(2) ** (2 * j + 1) * math.factorial(j))
    igusa = f / ((2 * mp.pi) ** j * mpf(4) ** j)
    borel = (-1) ** j * f / ((2 * mp.pi) ** j * math.factorial(j))
    return chern, igusa, borel, (-j) % 4


def unit_log_ref(name, coeffs):
    return mean_zero([mp.log(abs(embed(coeffs, z))) / 2 for z in places(name)])


def lattice_offset_digits(vec, basis) -> float:
    """Digits to which vec lies on the lattice spanned by the basis rows.

    Rounds the least-squares coordinates of vec to integers and measures the
    distance from vec to that lattice point, in the units of vec.
    """
    b = mp.matrix([list(row) for row in basis])
    v = mp.matrix(list(vec))
    coords = mp.lu_solve(b * b.T, b * v)
    resid = v - b.T * mp.matrix([mp.nint(c) for c in coords])
    return agree_digits(max(abs(x) for x in resid), 0)


def covolume(rows):
    b = mp.matrix([list(r) for r in rows])
    return mp.sqrt(abs(mp.det(b * b.T)))


def ring_det(ring, rows):
    """Exact determinant over Z[x]/(p) by Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ring.zero()
    for c in range(n):
        minor = [row[:c] + row[c + 1:] for row in rows[1:]]
        term = ring.mul(rows[0][c], ring_det(ring, minor))
        total = ring.add(total, term) if c % 2 == 0 else ring.sub(total, term)
    return total


def call(op):
    """(computation, arguments) of an op.

    For a CLI op these are its subcommand and its flags (``--theta-over-2pi``
    becomes ``theta_over_2pi``), as strings; an in-process op is its own
    argument dict.
    """
    if op["kind"] != "cli":
        return op["kind"], op
    argv = op["argv"]
    return argv[0], {argv[i][2:].replace("-", "_"): argv[i + 1] for i in range(1, len(argv), 2)}


class Checker:
    """Checks op records, collecting the digit margins of every checked number."""

    def __init__(self):
        self.margins: list[float] = []

    def check(self, op, rec) -> str | None:
        """None when the op passed; otherwise why it failed.

        A failure is either an error (exception or nonzero exit, in
        ``rec["error"]``) or a wrong output.
        """
        if "error" in rec:
            return rec["error"]
        d = op["tier"]
        name, args = call(op)
        found = []
        try:
            with mp.workdps(d + CAP + 10):
                getattr(self, "_" + name.replace("-", "_"))(args, rec["out"], d, found)
            why = None
        except (Mismatch, KeyError, IndexError, TypeError, ValueError) as exc:
            why = f"wrong output: {type(exc).__name__}: {exc}"
        margins = [min(m - d, CAP) for m in found]
        self.margins.extend(margins)
        bad = [m for m in margins if m < 0]
        if why is None and bad:
            why = f"wrong output: {len(bad)} numbers short of {d} digits (worst margin {min(bad):.2f})"
        return why

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _cmp(found, x, ref):
        found.append(agree_digits(_num(x) if isinstance(x, (str, list)) else x, ref))

    @staticmethod
    def _exact(got, want, what):
        if got != want:
            raise Mismatch(f"{what}: got {got!r}, want {want!r}")

    def _place_rows(self, a, out):
        """(row, place angle) for each row of a circle-bundle result, one row per place."""
        thetas = cyclotomic_thetas(int(a["r"]))
        rows = out["rows"]
        self._exact(sorted(row["sigma"] for row in rows), list(range(len(thetas))), "places")
        return [(row, thetas[row["sigma"]]) for row in rows]

    # -- circle bundle and polylog: circle-ladder and cli-cold ---------------

    def _cyclotomic_setup(self, a, out, d, found):
        want = cyclotomic_thetas(int(a["r"]))
        self._exact(len(out["thetas"]), len(want), "place count")
        for x, ref in zip(out["thetas"], want):
            self._cmp(found, x, ref)

    def _circle_torsion(self, a, out, d, found):
        thetas = cyclotomic_thetas(int(a["r"]))
        self._exact(len(out["rows"]), len(thetas) * (int(a["jmax"]) + 1), "row count")
        for row in out["rows"]:
            th = thetas[row["sigma"]]
            self._cmp(found, row["theta"], th)
            self._cmp(found, row["T"], torsion_coeff(th, row["j"]))

    def _u_coeff(self, a, out, d, found):
        for row, th in self._place_rows(a, out):
            self._cmp(found, row["u"], u_ref(th, int(a["j"])))

    def _regulator_check(self, a, out, d, found):
        j = int(a["j"])
        for row, th in self._place_rows(a, out):
            rhs = (-1) ** j * math.factorial(j) * mpf(4) ** j * u_ref(th, j)
            self._cmp(found, row["rhs"], rhs)
            self._cmp(found, abs(_num(row["lhs"])), abs(rhs))
            # The CLI prints the ratio to 8 digits.
            self._exact(abs(abs(_num(row["ratio"])) - 1) < mpf(10) ** -7, True, "|lhs/rhs| = 1")

    def _cheeger_muller(self, a, out, d, found):
        for row, th in self._place_rows(a, out):
            t0 = torsion_coeff(th, 0)
            self._cmp(found, row["T0_abs"], abs(t0))
            self._cmp(found, row["ln_tau"], t0)
            found.append(agree_digits(_num(row["residual"]), 0))

    def _polylog(self, a, out, d, found):
        q = Fraction(a["theta_over_2pi"])
        theta = 2 * mp.pi * q.numerator / q.denominator
        ref = li(int(a["n"]), theta)
        self._cmp(found, out["theta"], theta)
        self._cmp(found, out["re"], ref.real)
        self._cmp(found, out["im"], ref.imag)

    def _zeta(self, a, out, d, found):
        self._cmp(found, out["value"], mp.zeta(int(a["s"])))

    def _hatcher(self, a, out, d, found):
        ref_a, kappa, value = hatcher_ref(int(a["k"]))
        self._exact((out["a"], Fraction(out["kappa"])), (ref_a, kappa), "a_k, kappa_k")
        self._cmp(found, out["value"], value)

    def _bernoulli(self, a, out, d, found):
        self._exact(Fraction(out["value"]), bernoulli_ref(int(a["m"])), "B_m")

    # -- torsion-corpus ----------------------------------------------------

    def _complex(self, op, out, d, found):
        want = op["data"].get("expect_tau")
        for tl, tc in zip(out["tau_l"], out["tau_c"]):
            self._cmp(found, tl, _num(tc))
            if want:
                self._cmp(found, tc, _num(want))
        res = out["residual"]
        self._exact((res["rank"], any(res["cls"]), res["is_zero"]), (0, False, True), "Euler residual")

    def _unit_lattice(self, op, out, d, found):
        name = op["field"]
        p = int(name[4:])
        self._exact(out["rank"], (p - 3) // 2, "lattice rank")
        logs = [unit_log_ref(name, u) for u in op["units"]]
        logs = [v for v in logs if max(abs(x) for x in v) > mpf(10) ** (-d // 2)]
        basis = [[_num(x) for x in row] for row in out["basis"]]
        self._cmp(found, covolume(basis), covolume(logs))

    def _presentation(self, op, out, d, found):
        name = op["field"]
        ring = workloads.ring_of(name)
        det = ring_det(ring, [[ring.el(c) for c in row] for row in op["rows"]])
        self._exact([Fraction(c) for c in out["det"]], det, "determinant")
        f = mean_zero([-mp.log(abs(embed(det, z))) / 2 for z in places(name)])
        t = [_num(x) for x in out["torus"]["values"]]
        basis = [[_num(x) for x in row] for row in out["basis"]]
        found.append(lattice_offset_digits([a - b for a, b in zip(t, f)], basis))

    # -- the other CLI subcommands: cli-cold ---------------------------------

    def _field_info(self, a, out, d, found):
        name = a["field"][1:]
        ring = workloads.ring_of(name)
        real = name == "zsqrt2"
        self._exact((out["degree"], out["r_real"], out["r_complex"]),
                    (ring.n, 2 if real else 0, 0 if real else ring.n // 2), "signature")
        for place, z in zip(out["places"], places(name)):
            self._cmp(found, place["re"], mpf(z.real))
            self._cmp(found, place["im"], mpf(0) if real else z.imag)

    def _unit_log(self, a, out, d, found):
        u = json.loads(a["unit"])
        x, y = (Fraction(c) for c in (u + ["0"])[:2])
        self._exact(Fraction(out["norm"]), x * x - 2 * y * y, "norm")
        ref = unit_log_ref("zsqrt2", u)
        for k, v in enumerate(ref):
            self._cmp(found, out["canonical"][f"sigma_{k}"], v)
        self._cmp(found, out["b1_reduced"]["b1(sigma_1)"], ref[1] - ref[0])

    def _desc_logs(self, name):
        logs = [unit_log_ref(name, u) for u in workloads.descriptor(workloads.ring_of(name))["units"]]
        return [v for v in logs if max(abs(x) for x in v) > mpf(10) ** -10]

    def _lattice_basis(self, name):
        return [[v[k] - v[0] for k in range(1, len(v))] for v in self._desc_logs(name)]

    def _lattice(self, a, out, d, found):
        name = a["field"][1:]
        ref = self._lattice_basis(name)
        self._exact(out["rank"], len(ref), "lattice rank")
        got = [[_num(x) for x in row.values()] for row in out["basis_b1_reduced"]]
        self._cmp(found, covolume(got), covolume(ref))

    def _in_lattice(self, found, name, torus_reduced, want_reduced):
        """torus - want lies in the unit lattice, in reduced coordinates."""
        diff = [_num(x) - w for x, w in zip(torus_reduced, want_reduced)]
        found.append(lattice_offset_digits(diff, self._lattice_basis(name)))

    def _reduced(self, vals):
        return [v - vals[0] for v in vals[1:]]

    def _reduce(self, a, out, d, found):
        form = mean_zero([_num(x) for x in json.loads(a["form"])])
        self._in_lattice(found, "zsqrt2", out["b1_reduced"].values(), self._reduced(form))

    def _cycl(self, a, out, d, found):
        grams = json.loads(a["grams"])
        self._exact(out["rank"], len(grams[0]), "rank")
        f = mean_zero([mp.log(mp.det(mp.matrix([[_num(x) for x in r] for r in g]))) / 4 for g in grams])
        self._in_lattice(found, "zsqrt2", out["torus_b1_reduced"].values(), self._reduced(f))

    def _scale(self, a, out, d, found):
        point = json.loads(a["point"])
        lam = json.loads(a["lambdas"])
        t0 = mean_zero([_num(point["torus"][f"sigma_{k}"]) for k in range(2)])
        f = mean_zero([mp.log(_num(x)) / 2 for x in lam])
        self._exact(out["rank"], point["rank"], "rank")
        self._in_lattice(found, "zsqrt2", out["torus_b1_reduced"].values(),
                         self._reduced([x + y for x, y in zip(t0, f)]))

    def _zhat(self, a, out, d, found):
        entry = json.loads(a["pres"])[0]
        self._exact([Fraction(c) for c in out["det"]], [Fraction(c) for c in entry], "determinant")
        f = mean_zero([-mp.log(abs(embed(entry, z))) / 2 for z in places("zsqrt2")])
        self._in_lattice(found, "zsqrt2", out["torus_b1_reduced"].values(), self._reduced(f))

    def _rtorsion(self, a, out, d, found):
        c = json.loads(a["complex"])["diffs"][0][0][0]
        for k, z in enumerate(places("zsqrt2")):
            self._cmp(found, out["tau"][f"sigma_{k}"], 1 / abs(embed(c, z)))

    def _euler_check(self, a, out, d, found):
        self._exact((out["is_zero"], out["residual"]["rank"]), (True, 0), "Euler residual")

    def _beta_check(self, a, out, d, found):
        j = int(a["j"])
        exact = Fraction((-1) ** (j - 1) * math.factorial(j - 1) ** 2, math.factorial(2 * j - 1))
        self._exact(Fraction(out["exact"]), exact, "beta integral")
        self._cmp(found, out["quadrature"], mpf(exact.numerator) / exact.denominator)

    def _borel_dims(self, a, out, d, found):
        name = a["field"][1:]
        rr, rc = (2, 0) if name == "zsqrt2" else (0, workloads.ring_of(name).n // 2)
        imax = int(a["imax"])
        dims = {str(i): 1 if i == 0 else rr + rc - 1 if i == 1 else (0, rr + rc, 0, rc)[i % 4]
                for i in range(imax + 1)}
        xdims = {str(2 * j - 1): rc + (rr if j % 2 else 0) for j in range(2, imax // 2 + 2) if 2 * j - 1 <= imax}
        self._exact((out["dims"], out["x_space_dims"]), (dims, xdims), "dimension tables")

    def _normalize(self, a, out, d, found):
        j = int(a["j"])
        chern, igusa, borel, ipow = normalization_ref(j)
        self._cmp(found, out["N_chern"], chern)
        self._cmp(found, out["N_igusa"], igusa)
        self._cmp(found, out["N_borel"]["magnitude"], borel)
        self._exact(out["N_borel"]["i_power"], ipow, "Borel power of i")
        factor = {"bl": mpc(1), "chern": mpc(chern), "igusa": mpc(igusa),
                  "borel": borel * mpc(0, 1) ** ipow}
        want = _num(a["value"]) * factor[a["from"]] / factor[a["to"]]
        val = out["value"]
        if isinstance(val, dict):
            self._cmp(found, val["re"], want.real)
            self._cmp(found, val["im"], want.imag)
        else:
            self._exact(abs(want.imag) < mpf(10) ** -(d + 5), True, "real conversion")
            self._cmp(found, val, want.real)
