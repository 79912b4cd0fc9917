"""Shared helpers for the test suite.

Contains the field loaders, the incremental lattice-basis reduction (the
oracle for the library's single LLL pass), independent oracles for
polynomial roots (Aberth-Ehrlich iteration with a Newton polish),
coprimality (Euclid over Q, against the library's resultant test), the
Bernoulli numbers (the exact defining recurrence), the rounding error of
an mpf against a rational (exact integer arithmetic), integer zeta values
(Euler-Maclaurin summation) and the polylogarithm (direct partial sum plus
Euler-Maclaurin tail), exact rational positive-definite Gram generators,
unimodular base changes over a number ring, the randomized
metrized-complex corpus used by the calibration tests, the basis-chase
torsion over orthonormal SVD coimage bases (against the library's
pivot-column route), and the Euler-characteristic residual summed one
class per term (against the library's single class per complex).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from pathlib import Path

from mpmath import mp, mpc, mpf

from regtor import (
    CohomologySpec,
    NoConvergence,
    a_map,
    build_complex_over_r,
    build_lattice,
    class_add,
    class_neg,
    make_form,
    parse_descriptor,
    point_class,
    presentation,
    rtorsion_form,
    unit_log,
    zero_class,
    zhat,
)
from regtor.flatmodel import to_mp
from regtor.numfield import GUARD, poly_divmod, poly_trim, rank_cutoff

DATA = Path(__file__).parent / "data"


def load_descriptor(name: str) -> dict:
    with open(DATA / f"{name}.json") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def field_units(name: str, digits: int | None = None):
    return parse_descriptor(load_descriptor(name), digits_override=digits)


@lru_cache(maxsize=None)
def field_lattice(name: str, digits: int | None = None):
    field, units = field_units(name, digits)
    return field, units, build_lattice(field, units)


def rel_err(got, want):
    denom = abs(want)
    if denom == 0:
        return abs(got)
    return abs(got - want) / denom


@lru_cache(maxsize=None)
def cyclotomic_units(p: int, digits: int):
    """Z[zeta_p] with the units -1, zeta and 1 + zeta + ... + zeta^(a-1) for
    a = 2..(p-1)/2, as in perfbench's cyclotomic descriptors."""
    units = [["-1"], ["0", "1"]] + [["1"] * a for a in range(2, (p - 1) // 2 + 1)]
    return parse_descriptor(
        {"poly": [1] * p, "units": units, "digits": digits, "class_group": {"orders": []}}
    )


# ---------------------------------------------------------------------------
# Independent lattice-basis oracle: the incremental reduction that rebuilds
# everything it can.  Each new unit image is Babai-reduced against the basis
# so far and appended, and LLL (delta = 0.99) runs again on the whole basis.
# LLL recomputes the whole Gram-Schmidt basis after every size reduction and
# every swap, and starts over after a vector collapses.
# ---------------------------------------------------------------------------

_ORACLE_LLL_STEP_CAP = 50_000


def _oracle_dot(u, v):
    return mp.fsum(a * b for a, b in zip(u, v))


def _oracle_norm(v):
    return mp.sqrt(_oracle_dot(v, v))


def _oracle_gram_schmidt(basis, tiny):
    star = []
    mu = [[mpf(0)] * len(basis) for _ in basis]
    for i, b in enumerate(basis):
        v = list(b)
        for j in range(i):
            bj2 = _oracle_dot(star[j], star[j])
            mu[i][j] = _oracle_dot(b, star[j]) / bj2 if bj2 > tiny * tiny else mpf(0)
            v = [v[t] - mu[i][j] * star[j][t] for t in range(len(v))]
        star.append(v)
    return star, mu


def _oracle_lll(basis, drop_tol):
    delta = mpf("0.99")
    b = [list(v) for v in basis]
    steps = 0
    while True:
        b = [v for v in b if _oracle_norm(v) > drop_tol]
        n = len(b)
        if n <= 1:
            return b
        star, mu = _oracle_gram_schmidt(b, drop_tol)
        k = 1
        collapsed = False
        while k < n:
            steps += 1
            if steps > _ORACLE_LLL_STEP_CAP:
                raise NoConvergence("oracle lattice reduction did not terminate")
            for j in range(k - 1, -1, -1):
                q = int(mp.nint(mu[k][j]))
                if q != 0:
                    b[k] = [b[k][t] - q * b[j][t] for t in range(len(b[k]))]
                    star, mu = _oracle_gram_schmidt(b, drop_tol)
            if _oracle_norm(b[k]) <= drop_tol:
                collapsed = True
                break
            bk = _oracle_dot(star[k], star[k])
            bk1 = _oracle_dot(star[k - 1], star[k - 1])
            if bk >= (delta - mu[k][k - 1] ** 2) * bk1:
                k += 1
            else:
                b[k], b[k - 1] = b[k - 1], b[k]
                star, mu = _oracle_gram_schmidt(b, drop_tol)
                k = max(k - 1, 1)
        if not collapsed:
            return b


def _oracle_babai(basis, star, target):
    t = list(target)
    for i in range(len(basis) - 1, -1, -1):
        bi2 = _oracle_dot(star[i], star[i])
        if bi2 == 0:
            continue
        c = int(mp.nint(_oracle_dot(t, star[i]) / bi2))
        if c != 0:
            t = [t[k] - c * basis[i][k] for k in range(len(t))]
    return t


def lattice_basis_oracle(field, units) -> list:
    """Reduced basis of the unit-log images, one generator at a time."""
    images = [unit_log(field, u) for u in units]
    with mp.workdps(field.digits + GUARD):
        drop = rank_cutoff(field.digits)
        basis: list = []
        star: list = []
        for f in images:
            vec = list(f.values)
            if _oracle_norm(vec) <= drop:
                continue
            if basis:
                vec = _oracle_babai(basis, star, vec)
                if _oracle_norm(vec) <= drop:
                    continue
            basis.append(vec)
            basis = _oracle_lll(basis, drop)
            star, _ = _oracle_gram_schmidt(basis, drop)
        return basis


# ---------------------------------------------------------------------------
# Independent root oracle: simultaneous Aberth-Ehrlich iteration from
# deterministic perturbed-circle seeds, then Newton steps on every root.
# ---------------------------------------------------------------------------

_ABERTH_CAP = 400


def _horner(coeffs, z):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def aberth_roots(coeffs, digits):
    """All roots of a monic integer polynomial (constant first) at working precision."""
    n = len(coeffs) - 1
    dcoeffs = [k * coeffs[k] for k in range(1, n + 1)]
    radius = 1 + max(abs(mpf(c)) for c in coeffs[:-1]) if n > 0 else mpf(1)
    # Deterministic seeds: staggered radii and an offset angle avoid the
    # symmetric stalls of pure roots-of-unity starts.
    z = [
        radius
        * (1 + mpf(k) / (7 * n + 3))
        * mp.expjpi(mpf(2 * k) / n + mpf(1) / (2 * n + 1))
        for k in range(n)
    ]
    target = mpf(10) ** (-(digits + 12))
    for _ in range(_ABERTH_CAP):
        worst = mpf(0)
        for k in range(n):
            pv = _horner(coeffs, z[k])
            dv = _horner(dcoeffs, z[k])
            if dv == 0:
                z[k] += target
                worst = max(worst, abs(radius))
                continue
            w = pv / dv
            s = mpc(0)
            for j in range(n):
                if j != k:
                    s += 1 / (z[k] - z[j])
            denom = 1 - w * s
            corr = w if denom == 0 else w / denom
            z[k] -= corr
            worst = max(worst, abs(corr))
        if worst < target:
            break
    else:
        raise NoConvergence("Aberth-Ehrlich iteration did not converge")
    for k in range(n):
        for _ in range(4):
            dv = _horner(dcoeffs, z[k])
            if dv == 0:
                break
            z[k] -= _horner(coeffs, z[k]) / dv
    return z


def monic_gcd(a, b) -> list:
    """The monic gcd of two rational polynomials (constant first, not both
    zero), by Euclid's algorithm over Q."""
    a, b = poly_trim([Fraction(c) for c in a]), poly_trim([Fraction(c) for c in b])
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def coprime(a, b) -> bool:
    """True iff the gcd of two rational polynomials (constant first) is a
    nonzero constant, by Euclid's algorithm over Q."""
    return len(monic_gcd(a, b)) == 1


def sylvester_resultant(p, q) -> int:
    """Res(p, q) of two integer polynomials (constant first, nonzero leading
    coefficients) as the determinant of their (n + m)-square Sylvester
    matrix, by the textbook fraction-free elimination with row swaps."""
    n, m = len(p) - 1, len(q) - 1
    rows = [[0] * k + list(p[::-1]) + [0] * (m - 1 - k) for k in range(m)]
    rows += [[0] * k + list(q[::-1]) + [0] * (n - 1 - k) for k in range(n)]
    size, sign, prev = n + m, 1, 1
    for k in range(size):
        pivot = next((i for i in range(k, size) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            rows[i] = [
                (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev if j > k else 0
                for j in range(size)
            ]
        prev = rows[k][k]
    return sign * rows[-1][-1] if size else 1


# ---------------------------------------------------------------------------
# Independent Bernoulli and zeta oracles.  The recurrence
# sum_{k=0}^{m} C(m+1, k) B_k = 0, solved for B_m, gives B_1 = -1/2.
# ---------------------------------------------------------------------------

_BERNOULLI = [Fraction(1)]


def bernoulli_recurrence(m: int) -> Fraction:
    """Exact B_m from the defining recurrence, the table grown on demand."""
    while len(_BERNOULLI) <= m:
        n = len(_BERNOULLI)
        acc = sum(comb(n + 1, k) * _BERNOULLI[k] for k in range(n))
        _BERNOULLI.append(Fraction(-acc, n + 1))
    return _BERNOULLI[m]


def zeta_euler_maclaurin(s: int, digits: int):
    """zeta(s) for integer s >= 2 by Euler-Maclaurin summation at digits + 10."""
    wdps = digits + 10
    with mp.workdps(wdps):
        n = 2 * wdps
        total = mp.fsum(mp.mpf(k) ** -s for k in range(1, n))
        total += mp.mpf(n) ** -s / 2 + mp.mpf(n) ** (1 - s) / (s - 1)
        # Correction terms fall off like ((s + 2r) / (2 pi n))^{2r}; with
        # n = 2 wdps they pass the target before the asymptotic series turns.
        threshold = mp.mpf(10) ** (-wdps - 5)
        rising = mp.mpf(s)  # s (s+1) ... (s + 2r - 2)
        power = mp.mpf(n) ** (-s - 1)  # n^{-s-2r+1}
        for r in range(1, 4 * wdps):
            b = bernoulli_recurrence(2 * r)
            term = mp.mpf(b.numerator) / b.denominator / mp.factorial(2 * r) * rising * power
            total += term
            if abs(term) < threshold:
                return +total
            rising *= (s + 2 * r - 1) * (s + 2 * r)
            power /= mp.mpf(n) ** 2
        raise AssertionError("Euler-Maclaurin tail did not reach the target")


# ---------------------------------------------------------------------------
# Independent polylogarithm oracle: direct sum to M - 1 terms, then the
# Euler-Maclaurin tail for f(x) = e^{i x theta} x^{-n}.  The integral term is
# expanded by repeated integration by parts, so every piece is in closed form.
# ---------------------------------------------------------------------------


def _rising(n, l):
    out = 1
    for t in range(l):
        out *= n + t
    return out


def li_oracle(n: int, theta, digits: int = 30, cut: int = 3000):
    with mp.workdps(digits + 10):
        th = mp.mpf(theta)
        # Fold into (0, pi] so the Euler-Maclaurin terms decay by >= 1/4 each;
        # Li_n(e^{i(2 pi - t)}) is the conjugate of Li_n(e^{i t}).
        if th > mp.pi:
            return mp.conj(li_oracle(n, 2 * mp.pi - th, digits, cut))
        z = mp.expj(th)
        total = mp.mpc(0)
        zp = mp.mpc(1)
        for m in range(1, cut):
            zp *= z
            total += zp / mp.mpf(m) ** n
        M = mp.mpf(cut)
        eM = mp.expj(th * cut)
        itheta = mp.mpc(0, th)

        # integral_M^inf e^{i x theta} x^{-n} dx by 16 integrations by parts;
        # the alternating parts sign cancels against (x^{-n})^{(l)} signs.
        integral = mp.mpc(0)
        for l in range(16):
            integral -= eM * _rising(n, l) * M ** (-n - l) / itheta ** (l + 1)

        def deriv(t):
            # t-th derivative of f at M
            acc = mp.mpc(0)
            for l in range(t + 1):
                acc += (
                    comb(t, l)
                    * itheta ** (t - l)
                    * (-1) ** l
                    * _rising(n, l)
                    * M ** (-n - l)
                )
            return eM * acc

        tail = integral + deriv(0) / 2
        for r in range(1, 15):
            b = bernoulli_recurrence(2 * r)
            tail -= (
                mp.mpf(b.numerator) / b.denominator / mp.factorial(2 * r) * deriv(2 * r - 1)
            )
        return +(total + tail)


# ---------------------------------------------------------------------------
# Exact rational linear algebra for test inputs.  Complex rationals are
# (re, im) Fraction pairs; output entries are Fractions for real data and
# [re, im] lists for complex data, both accepted by the library verbatim.
# ---------------------------------------------------------------------------


def _c(re, im=0):
    return (Fraction(re), Fraction(im))


def _c_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _c_conj(x):
    return (x[0], -x[1])


def random_pd_gram(rng, n: int, complex_entries: bool = False):
    """Exact positive-definite Gram L^H D L with unit-triangular L."""
    dens = (1, 2, 3, 4)
    pos = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(5, 3))

    def small():
        re = Fraction(rng.randint(-2, 2), rng.choice(dens))
        if not complex_entries:
            return _c(re)
        return (re, Fraction(rng.randint(-2, 2), rng.choice(dens)))

    lower = [[_c(1) if i == j else (small() if j < i else _c(0)) for j in range(n)] for i in range(n)]
    diag = [rng.choice(pos) for _ in range(n)]
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = _c(0)
            for k in range(n):
                # (L^H D L)_{ij} = sum_k conj(L_{ki}) d_k L_{kj}
                acc = _c_add(acc, _c_mul(_c_mul(_c_conj(lower[k][i]), _c(diag[k])), lower[k][j]))
            row.append(acc)
        gram.append(row)
    if complex_entries:
        return [[[x[0], x[1]] for x in row] for row in gram]
    return [[x[0] for x in row] for row in gram]


def cholesky_oracle(rows, digits: int):
    """Lower Cholesky factor of a Hermitian positive-definite matrix, as rows.

    The textbook loop, with its own pivot sums and square roots, at
    digits + GUARD; raises ValueError on a pivot that is not positive.
    """
    n = len(rows)
    with mp.workdps(digits + GUARD):
        a = [[to_mp(x) for x in row] for row in rows]
        low = [[mpc(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                s = a[i][j] - mp.fsum(low[i][k] * mp.conj(low[j][k]) for k in range(j))
                if i == j:
                    if s.real <= 0:
                        raise ValueError("Cholesky pivot is not positive")
                    low[i][j] = mp.sqrt(s.real)
                else:
                    low[i][j] = s / low[j][j]
        return low


def fraction_det(rows):
    """Exact determinant of a rational matrix by fraction-free elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    det = Fraction(sign)
    for k in range(n):
        det *= a[k][k]
    return det


# ---------------------------------------------------------------------------
# Matrices over a number ring, as tuples of FieldElement rows.
# ---------------------------------------------------------------------------


def rmat_identity(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def rmat_mul(field, a, b):
    if not a or not b:
        return []
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = field.zero()
            for k in range(len(b)):
                acc = field.add(acc, field.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def random_unimodular(field, rng, n: int, scalar_pool, unit_pairs, steps: int = 6):
    """A random product of shears, swaps, and unit row scalings.

    Returns (U, U_inverse) with exact entries; unit_pairs lists (u, u^{-1}).
    """
    u = rmat_identity(field, n)
    uinv = rmat_identity(field, n)
    for _ in range(steps):
        kind = rng.choice(("shear", "shear", "shear", "swap", "unit"))
        if n < 2 and kind != "unit":
            kind = "unit"
        if kind == "shear":
            k, l = rng.sample(range(n), 2)
            c = rng.choice(scalar_pool)
            # U <- E U adds c row_l to row_k; U^{-1} <- U^{-1} E^{-1}
            for j in range(n):
                u[k][j] = field.add(u[k][j], field.mul(c, u[l][j]))
            for i in range(n):
                uinv[i][l] = field.sub(uinv[i][l], field.mul(uinv[i][k], c))
        elif kind == "swap":
            k, l = rng.sample(range(n), 2)
            u[k], u[l] = u[l], u[k]
            for i in range(n):
                uinv[i][k], uinv[i][l] = uinv[i][l], uinv[i][k]
        else:
            k = rng.randrange(n)
            w, winv = rng.choice(unit_pairs)
            u[k] = [field.mul(w, x) for x in u[k]]
            for i in range(n):
                uinv[i][k] = field.mul(uinv[i][k], winv)
    return u, uinv


def ring_pools(field):
    """Small scalars, (unit, inverse) pairs, and non-unit multipliers."""
    one = field.one()
    neg_one = field.neg(one)
    if field.degree == 2:
        gen = field.gen()
        pool = [one, neg_one, gen, field.element([1, 1]), field.element([2])]
        units = [
            (one, one),
            (neg_one, neg_one),
            (field.element([1, 1]), field.element([-1, 1])),
            (field.element([-1, 1]), field.element([1, 1])),
        ]
        mult = [
            field.element([2]),
            field.element([3]),
            field.element([0, 1]),
            field.element([3, 1]),
            field.element([1, 2]),
        ]
    elif field.degree == 4:
        gen = field.gen()
        gen_inv = field.element([-1, -1, -1, -1])  # x^4 = -(1 + x + x^2 + x^3)
        pool = [one, neg_one, gen, field.element([1, 1, 0, 0])]
        units = [
            (one, one),
            (neg_one, neg_one),
            (gen, gen_inv),
            (field.neg(gen), field.neg(gen_inv)),
        ]
        mult = [
            field.element([2]),
            field.element([3]),
            field.element([1, 1, 1, 0]),
            field.element([2, 1, 0, 0]),
        ]
    else:
        pool = [one, neg_one, field.element([2])]
        units = [(one, one), (neg_one, neg_one)]
        mult = [field.element([2]), field.element([3]), field.element([5])]
    return pool, units, mult


def random_complex_over(field, rng, max_degrees: int = 4, max_dim: int = 4):
    """Random exact metrized complex with known cohomology.

    Built from elementary blocks (free generators and two-term multiplication
    blocks), then mixed by unimodular base changes and coboundary shifts of
    the chosen representatives, so the stored cohomology data stays correct
    while the differentials lose their block shape.
    """
    pool, unit_pairs, mult_pool = ring_pools(field)
    n_deg = rng.randint(2, max_degrees)
    dims = [0] * n_deg
    free = [0] * n_deg
    blocks = []  # (boundary index i, multiplier): R at degree i -> R at i+1

    for i in range(n_deg - 1):
        want = rng.randint(0, 2)
        for _ in range(want):
            if dims[i] < max_dim and dims[i + 1] < max_dim:
                blocks.append((i, rng.choice(mult_pool)))
                dims[i] += 1
                dims[i + 1] += 1
    for i in range(n_deg):
        while dims[i] < max_dim and rng.random() < 0.45:
            free[i] += 1
            dims[i] += 1
        if dims[i] == 0:
            free[i] = 1
            dims[i] = 1

    # Slot layout per degree: targets of boundary i-1, sources of boundary i,
    # then free generators.
    targets = [[b for b in range(len(blocks)) if blocks[b][0] == i - 1] for i in range(n_deg)]
    sources = [[b for b in range(len(blocks)) if blocks[b][0] == i] for i in range(n_deg)]
    slot_of_source = {}
    slot_of_target = {}
    free_slots = []
    for i in range(n_deg):
        pos = 0
        for b in targets[i]:
            slot_of_target[b] = pos
            pos += 1
        for b in sources[i]:
            slot_of_source[b] = pos
            pos += 1
        free_slots.append(list(range(pos, pos + free[i])))

    diffs = []
    for i in range(n_deg - 1):
        m = [[field.zero() for _ in range(dims[i])] for _ in range(dims[i + 1])]
        for b in sources[i]:
            m[slot_of_target[b]][slot_of_source[b]] = blocks[b][1]
        diffs.append(m)

    # reps[i] is dims[i] rows by free[i] columns, one column per generator.
    reps = []
    for i in range(n_deg):
        mat = [[field.zero() for _ in range(free[i])] for _ in range(dims[i])]
        for j, slot in enumerate(free_slots[i]):
            mat[slot][j] = field.one()
        reps.append(mat)

    # Coboundary shifts keep the classes, base changes mix the coordinates.
    for i in range(1, n_deg):
        if free[i] and dims[i - 1]:
            for j in range(free[i]):
                w = [rng.choice(pool) for _ in range(dims[i - 1])]
                shift = rmat_mul(field, diffs[i - 1], [[x] for x in w])
                for c in range(dims[i]):
                    reps[i][c][j] = field.add(reps[i][c][j], shift[c][0])

    bases = [random_unimodular(field, rng, dims[i], pool, unit_pairs) for i in range(n_deg)]
    for i in range(n_deg - 1):
        diffs[i] = rmat_mul(field, bases[i + 1][0], rmat_mul(field, diffs[i], bases[i][1]))
    for i in range(n_deg):
        if free[i]:
            reps[i] = rmat_mul(field, bases[i][0], reps[i])

    complex_places = field.r_complex > 0
    grams = [
        [random_pd_gram(rng, dims[i], complex_places) for _ in range(field.n_places)]
        for i in range(n_deg)
    ]
    specs = []
    for i in range(n_deg):
        torsion = None
        mults = [blocks[b][1] for b in targets[i]]
        if mults:
            size = len(mults)
            entries = [
                [mults[r] if r == c else field.zero() for c in range(size)]
                for r in range(size)
            ]
            # Unit row scaling and a row swap keep the presented module.
            if rng.random() < 0.5:
                w, _ = rng.choice(unit_pairs)
                r = rng.randrange(size)
                entries[r] = [field.mul(w, x) for x in entries[r]]
            if size > 1 and rng.random() < 0.5:
                r, c = rng.sample(range(size), 2)
                entries[r], entries[c] = entries[c], entries[r]
            torsion = presentation(field, entries)
        specs.append(
            CohomologySpec(
                free_rank=free[i],
                free_reps=tuple(tuple(r) for r in reps[i]) if free[i] else (),
                free_grams=tuple(
                    random_pd_gram(rng, free[i], complex_places)
                    for _ in range(field.n_places)
                )
                if free[i]
                else (),
                torsion=torsion,
            )
        )
    return build_complex_over_r(field, dims, diffs, grams, specs)


def hermitian_det(rows):
    """Exact determinant of a Hermitian Gaussian-rational matrix, as a Fraction."""
    n = len(rows)
    a = [
        [
            (Fraction(x[0]), Fraction(x[1]))
            if isinstance(x, (list, tuple))
            else (Fraction(x), Fraction(0))
            for x in row
        ]
        for row in rows
    ]
    det = (Fraction(1), Fraction(0))
    for k in range(n):
        piv = a[k][k]
        if piv == (0, 0):
            return Fraction(0)
        det = _c_mul(det, piv)
        den = piv[0] * piv[0] + piv[1] * piv[1]
        inv = (piv[0] / den, -piv[1] / den)
        for i in range(k + 1, n):
            f = _c_mul(a[i][k], inv)
            for j in range(k, n):
                a[i][j] = _c_add(a[i][j], _c_mul((-f[0], -f[1]), a[k][j]))
    assert det[1] == 0
    return det[0]


# ---------------------------------------------------------------------------
# Rounding oracles: the error of a rounded rational in ulps, and for the
# per-place kernels an element embedded by mp.fdot over the mpf powers of its
# place, and mpmath's own matrix products.  The library must give the same
# raw mpf and mpc values, bit for bit.
# ---------------------------------------------------------------------------


def ulps_off(v, x: Fraction, prec: int) -> Fraction:
    """|v - x| for an mpf v and a nonzero rational x, exactly, in units of
    the last place of x at prec bits (2^(e - prec + 1) for
    2^e <= |x| < 2^(e + 1)), read in integer arithmetic alone: a correctly
    rounded v is within 1/2."""
    sign, man, exp, _ = v._mpf_
    value = Fraction(-man if sign else man) * Fraction(2) ** exp
    a = abs(x)
    e = a.numerator.bit_length() - a.denominator.bit_length()
    if Fraction(2) ** e > a:
        e -= 1
    return abs(value - x) / Fraction(2) ** (e - prec + 1)


def raw_value(x):
    """The raw tuple of an mpf or mpc, with its type: equal only when bit-identical."""
    return ("mpc", x._mpc_) if isinstance(x, mpc) else ("mpf", x._mpf_)


def power_chain(field, place):
    """z^0, ..., z^(n-1) of a place representative z by a product chain at
    digits + 3 GUARD, each power rounded once to digits + GUARD."""
    z = field.sigma_star[place]
    with mp.workdps(field.digits + 3 * GUARD):
        chain = [mpf(1)]
        for _ in range(field.degree - 1):
            chain.append(chain[-1] * z)
    with mp.workdps(field.digits + GUARD):
        return [+w for w in chain]


def chain_table(field, place):
    """power_chain laid out as numfield._powers keeps its tables: (e, re, im)
    with the real parts re[k] 2^e and the imaginary parts im[k] 2^e over the
    least binary exponent e of any nonzero part, im None at a real place."""
    chain = power_chain(field, place)
    real = field.is_real_place(place)
    parts = [w.real for w in chain] + ([] if real else [w.imag for w in chain])
    e = min(x.man_exp[1] for x in parts if x)
    ints = [int(mp.ldexp(x, -e)) for x in parts]
    n = len(chain)
    return e, tuple(ints[:n]), None if real else tuple(ints[n:])


def fdot_embed(field, elem, place):
    """An element at a place as mp.fdot of its denominator-cleared numerators
    with the powers of power_chain, then divided by the common denominator at
    digits + GUARD."""
    powers = power_chain(field, place)
    den = 1
    for c in elem.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    with mp.workdps(field.digits + GUARD):
        nums = [c.numerator * (den // c.denominator) for c in elem.coeffs]
        return mp.fdot(nums, powers) / den


def eigenvalue_rank(g, digits):
    """The eigenvalue rule of the Laplacian route on a Hermitian positive
    semidefinite mp.matrix G, by mp.eighe, at the working precision:
    (rank, det', smallest kept eigenvalue) with the eigenvalues at most
    cut = c^2 |G|_F, c = rank_cutoff(digits), counted as zero and the others
    multiplied; None when an eigenvalue lies within a factor 10^3 of cut."""
    values = mp.eighe(g, eigvals_only=True)
    values = [values[i] for i in range(g.rows)]
    cut = rank_cutoff(digits) ** 2 * mp.sqrt(mp.fsum(g, absolute=True, squared=True))
    if any(cut / 1000 < v < cut * 1000 for v in values):
        return None
    kept = [v for v in values if v > cut]
    return len(kept), mp.fprod(kept), min(kept, default=None)


def gram_by_matrix_product(a, adjoint_first):
    """a^H a when adjoint_first, else a a^H, as mpmath multiplies them."""
    return a.H * a if adjoint_first else a * a.H


# ---------------------------------------------------------------------------
# Independent basis-chase oracle: orthonormal coimage bases from the full
# singular value decomposition, one log per determinant.
# ---------------------------------------------------------------------------


def torsion_by_coimage(cplx):
    """tau of a MetrizedComplexAtPlace by the basis-chase over SVD coimages.

    In orthonormal coordinates V_i holds the right singular vectors of d_i
    with singular value above the rank cutoff, M_i = [ d_{i-1} V_{i-1} | K_i
    | V_i ], and ln tau = sum (-1)^i [ ln |det M_i| - ln det H_i / 2 ].
    """
    whole = cplx.complex
    digits = whole.field.digits
    with mp.workdps(digits + GUARD):
        cut = rank_cutoff(digits)
        nd = len(whole.lengths)
        diffs = cplx.ortho_diffs
        coimage = []
        for d in diffs:
            keep = 0
            if d.rows and d.cols:
                _, svals, vh = mp.svd_c(d)
                keep = sum(1 for t in range(svals.rows) if svals[t] > cut)
            coimage.append(vh.H[:, 0:keep] if keep else None)
        lntau = mpf(0)
        det_h = whole.factors[cplx.place][1]
        for i, n in enumerate(whole.lengths):
            if n == 0:
                continue
            blocks = []
            if i > 0 and coimage[i - 1] is not None:
                blocks.append(diffs[i - 1] * coimage[i - 1])
            if whole.cohomology[i].free_rank:
                blocks.append(cplx.ortho_reps[i])
            if i < nd - 1 and coimage[i] is not None:
                blocks.append(coimage[i])
            m = mp.matrix([[b[r, c] for b in blocks for c in range(b.cols)] for r in range(n)])
            sign = -1 if i % 2 else 1
            lntau += sign * (mp.log(abs(mp.det(m))) - mp.log(det_h[i]) / 2)
        return mp.exp(lntau)


# ---------------------------------------------------------------------------
# Euler-characteristic residual, one class per term: each cycle class from
# the log-determinant 2 sum ln L_jj of the textbook Cholesky factor of its
# Gram, and tau through rtorsion_form.
# ---------------------------------------------------------------------------


def euler_residual_by_classes(field, lattice, cplx):
    """sum (-1)^i cycl(V^i) - sum (-1)^i [cycl(free H^i) + Z(tors H^i)]
    - a((1/2) ln tau form), added up one point class at a time."""

    def cycl(rank, grams):
        with mp.workdps(field.digits + GUARD):
            lndets = []
            for g in grams:
                low = cholesky_oracle(g, field.digits)
                lndets.append(2 * mp.fsum(mp.log(low[j][j].real) for j in range(len(low))))
            return point_class(lattice, rank, (), make_form(field, 0, [x / 4 for x in lndets]))

    total = zero_class(lattice)
    for i, n in enumerate(cplx.lengths):
        term = cycl(n, cplx.grams[i])
        total = class_add(total, term if i % 2 == 0 else class_neg(term))
    for i, spec in enumerate(cplx.cohomology):
        if spec.free_rank:
            term = cycl(spec.free_rank, spec.free_grams)
            total = class_add(total, class_neg(term) if i % 2 == 0 else term)
        if spec.torsion is not None:
            term = zhat(field, lattice, spec.torsion)
            total = class_add(total, class_neg(term) if i % 2 == 0 else term)
    half_tau = rtorsion_form(field, cplx).scale(mpf(1) / 2)
    return class_add(total, class_neg(a_map(lattice, half_tau)))
