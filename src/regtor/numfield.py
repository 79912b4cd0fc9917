"""Exact and high-precision arithmetic for an order R = Z[x]/(p).

The defining polynomial is monic, squarefree, with integer coefficients.
Embeddings into C are the roots of p, found by simultaneous Aberth-Ehrlich
iteration from deterministic perturbed-circle seeds and polished by Newton
steps; for p = 1 + x + ... + x^{r-1} they are the closed-form roots of unity
e^{2 pi i k/r}.  Either way one routine orders the roots into places and
checks their residuals.  Norms are exact rationals computed through the
resultant of p with the element polynomial (fraction-free Sylvester
determinant), never through floating products.  The integrality test for units checks power-basis
integrality only; when R is not the maximal order in the power basis, a unit
of the field lying outside Z[x] is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from mpmath import mp, mpc, mpf

from .errors import NoConvergence, NotSquarefree, ValidationError

GUARD = 10

_ABERTH_CAP = 400


@dataclass(frozen=True)
class FieldElement:
    """Element of R tensor Q in the power basis 1, x, ..., x^{n-1}."""

    coeffs: tuple[Fraction, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


def _poly_degree(coeffs: list[Fraction]) -> int:
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k] != 0:
            return k
    return -1


def _poly_mod(coeffs: list[Fraction], poly: tuple[int, ...]) -> list[Fraction]:
    """Remainder of a rational polynomial modulo the monic integer poly."""
    n = len(poly) - 1
    rem = list(coeffs)
    for k in range(len(rem) - 1, n - 1, -1):
        lead = rem[k]
        if lead == 0:
            continue
        rem[k] = Fraction(0)
        for i in range(n):
            rem[k - n + i] -= lead * poly[i]
    del rem[n:]
    while len(rem) < n:
        rem.append(Fraction(0))
    return rem


def _poly_gcd_is_constant(a: list[Fraction], b: list[Fraction]) -> bool:
    """True iff gcd of two rational polynomials is a nonzero constant."""
    a = a[: _poly_degree(a) + 1]
    b = b[: _poly_degree(b) + 1]
    while b:
        if len(b) == 1:
            return True
        # remainder of a modulo b
        r = list(a)
        while len(r) >= len(b):
            if r[-1] == 0:
                r.pop()
                continue
            factor = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i in range(len(b)):
                r[shift + i] -= factor * b[i]
            r.pop()
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    return False


def _int_bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                assert r == 0
                m[i][j] = q
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class NumberField:
    """An order R = Z[x]/(p) with its embeddings and chosen place representatives.

    sigma_star lists all real embeddings in ascending order, then one member
    of each complex-conjugate pair with positive imaginary part, ordered by
    ascending real part (ties by imaginary part).  all_embeddings lists the
    real roots, then the complex representatives, then their conjugates in
    matching order.
    """

    poly: tuple[int, ...]
    digits: int
    sigma_star: tuple
    all_embeddings: tuple
    r_real: int
    r_complex: int
    class_orders: tuple[int, ...] = ()

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    @property
    def n_places(self) -> int:
        return self.r_real + self.r_complex

    def is_real_place(self, place_index: int) -> bool:
        return place_index < self.r_real

    def element(self, coeffs) -> FieldElement:
        vals = [Fraction(c) for c in coeffs]
        if len(vals) > self.degree:
            vals = _poly_mod(vals, self.poly)
        while len(vals) < self.degree:
            vals.append(Fraction(0))
        return FieldElement(tuple(vals))

    def zero(self) -> FieldElement:
        return self.element([])

    def one(self) -> FieldElement:
        return self.element([1])

    def gen(self) -> FieldElement:
        return self.element([0, 1])

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return FieldElement(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return FieldElement(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a: FieldElement) -> FieldElement:
        return FieldElement(tuple(-x for x in a.coeffs))

    def scalar_mul(self, q, a: FieldElement) -> FieldElement:
        f = Fraction(q)
        return FieldElement(tuple(f * x for x in a.coeffs))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        n = self.degree
        prod = [Fraction(0)] * (2 * n - 1) if n > 0 else [Fraction(0)]
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y != 0:
                    prod[i + j] += x * y
        return FieldElement(tuple(_poly_mod(prod, self.poly)))


def build_field(poly, digits: int, class_orders=()) -> NumberField:
    """Construct the order Z[x]/(p) with embeddings at the given precision.

    p must be monic with integer coefficients, degree >= 1, and squarefree
    (checked exactly through gcd(p, p')).  Roots are found by Aberth-Ehrlich
    simultaneous iteration from deterministic perturbed-circle seeds and
    Newton-polished; every root satisfies |p(z)| < 10^(-digits + 10).
    """
    try:
        coeffs = tuple(int(c) for c in poly)
    except (TypeError, ValueError) as exc:
        raise ValidationError("defining polynomial must have integer coefficients") from exc
    if list(coeffs) != [c for c in poly]:
        raise ValidationError("defining polynomial must have integer coefficients")
    n = len(coeffs) - 1
    if n < 1:
        raise ValidationError("defining polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise ValidationError("defining polynomial must be monic")
    if digits < 1:
        raise ValidationError("digits must be positive")

    p_frac = [Fraction(c) for c in coeffs]
    dp_frac = [Fraction(k * coeffs[k]) for k in range(1, n + 1)]
    if not _poly_gcd_is_constant(p_frac, dp_frac):
        raise NotSquarefree("defining polynomial has a repeated factor")

    with mp.workdps(digits + 2 * GUARD):
        roots = _aberth_roots(coeffs, digits)
        return _field_from_roots(coeffs, roots, digits, class_orders)


def roots_of_unity_field(r: int, digits: int) -> NumberField:
    """The order Z[x]/(1 + x + ... + x^{r-1}) for r >= 2, from closed-form roots.

    The roots are the r-th roots of unity other than 1, e^{2 pi i k/r} for
    k = 1..r-1, taken at digits + 2 GUARD; the field has the place order and
    the residual guarantee of build_field([1] * r, digits).
    """
    if r < 2:
        raise ValidationError("roots of unity need an order r >= 2")
    if digits < 1:
        raise ValidationError("digits must be positive")
    with mp.workdps(digits + 2 * GUARD):
        roots = [mp.expjpi(mpf(2 * k) / r) for k in range(1, r)]
        return _field_from_roots((1,) * r, roots, digits)


def _field_from_roots(coeffs, roots, digits: int, class_orders=()) -> NumberField:
    """Order the roots of p into places and check them; precision is the caller's.

    Roots within 10^(-digits/2) of the real axis are real places (polished
    by Newton steps); the rest must pair into complex conjugates.  Every
    stored embedding must satisfy |p(z)| < 10^(-digits + GUARD).
    """
    n = len(coeffs) - 1
    threshold = mpf(10) ** (-mpf(digits) / 2)
    reals = []
    pos = []
    neg = []
    for z in roots:
        if abs(z.imag) <= threshold:
            reals.append(_newton_polish_real(coeffs, z.real))
        elif z.imag > 0:
            pos.append(z)
        else:
            neg.append(z)
    if len(pos) != len(neg) or len(reals) + 2 * len(pos) != n:
        raise NoConvergence("could not separate real and complex embeddings")
    reals.sort()
    pos.sort(key=lambda z: (z.real, z.imag))
    neg.sort(key=lambda z: (z.real, -z.imag))
    for zp, zn in zip(pos, neg):
        if abs(mp.conj(zp) - zn) > threshold:
            raise NoConvergence("complex embeddings do not pair into conjugates")
    sigma_star = tuple(+x for x in reals) + tuple(+z for z in pos)
    resid_bound = mpf(10) ** (-digits + GUARD)
    for z in sigma_star:
        if abs(_horner(coeffs, z)) >= resid_bound:
            raise NoConvergence("root residual exceeds the precision bound")
    return NumberField(
        poly=tuple(coeffs),
        digits=digits,
        sigma_star=sigma_star,
        all_embeddings=sigma_star + tuple(mp.conj(z) for z in pos),
        r_real=len(reals),
        r_complex=len(pos),
        class_orders=tuple(int(m) for m in class_orders),
    )


def _horner(coeffs, z):
    acc = mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _horner_real(coeffs, x):
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _newton_polish_real(coeffs, x):
    n = len(coeffs) - 1
    dcoeffs = [k * coeffs[k] for k in range(1, n + 1)]
    for _ in range(3):
        d = _horner_real(dcoeffs, x)
        if d == 0:
            break
        x = x - _horner_real(coeffs, x) / d
    return x


def _aberth_roots(coeffs, digits):
    """All roots of a monic integer polynomial at working precision."""
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


def embed(field: NumberField, elem: FieldElement, place_index: int):
    """Embedded value of an element at the chosen place representative."""
    root = field.sigma_star[place_index]
    with mp.workdps(field.digits + GUARD):
        acc = mpc(0)
        for c in reversed(elem.coeffs):
            acc = acc * root + mpf(c.numerator) / c.denominator
        if field.is_real_place(place_index):
            return +acc.real
        return +acc


def embed_all(field: NumberField, elem: FieldElement) -> tuple:
    """Embedded values at every embedding, ordered like all_embeddings."""
    with mp.workdps(field.digits + GUARD):
        out = []
        for root in field.all_embeddings:
            acc = mpc(0)
            for c in reversed(elem.coeffs):
                acc = acc * root + mpf(c.numerator) / c.denominator
            out.append(+acc)
        return tuple(out)


def norm(field: NumberField, elem: FieldElement) -> Fraction:
    """Exact norm: the product of all embedded values, via a resultant.

    Computed as the Sylvester determinant of p and the denominator-cleared
    element polynomial with a fraction-free elimination, divided by the
    cleared denominator to the degree of p.
    """
    n = field.degree
    q = list(elem.coeffs)
    m = _poly_degree(q)
    if m < 0:
        return Fraction(0)
    den = lcm(*(c.denominator for c in q)) if q else 1
    qi = [int(c * den) for c in q[: m + 1]]
    if m == 0:
        return Fraction(qi[0], den) ** n
    p_desc = [1] + [field.poly[k] for k in range(n - 1, -1, -1)]
    q_desc = list(reversed(qi))
    size = n + m
    syl = []
    for row in range(m):
        syl.append([0] * row + p_desc + [0] * (m - 1 - row))
    for row in range(n):
        syl.append([0] * row + q_desc + [0] * (n - 1 - row))
    assert all(len(r) == size for r in syl)
    det = _int_bareiss_det(syl)
    return Fraction(det, den**n)


def verify_unit(field: NumberField, elem: FieldElement) -> bool:
    """True iff the element has integer power-basis coordinates and norm +-1."""
    if not elem.is_integral():
        return False
    return norm(field, elem) in (Fraction(1), Fraction(-1))


def dirichlet_rank(field: NumberField) -> int:
    """Rank of the unit group: r_real + r_complex - 1."""
    return field.r_real + field.r_complex - 1


def parse_rational(text) -> Fraction:
    """Parse 'p/q' or 'p' into an exact rational."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(str(text))


def parse_descriptor(data: dict, digits_override: int | None = None):
    """Build a field and its unit list from a descriptor mapping.

    Expected keys: "poly" (integer coefficients, constant first, monic),
    optional "digits", optional "units" (list of rational coefficient
    vectors), optional "class_group": {"orders": [...]}.
    Returns (field, units).
    """
    if not isinstance(data, dict) or "poly" not in data:
        raise ValidationError('field descriptor needs a "poly" coefficient list')
    poly = data["poly"]
    digits = digits_override if digits_override is not None else int(data.get("digits", 50))
    orders = tuple(int(k) for k in data.get("class_group", {}).get("orders", []))
    field = build_field(poly, digits, class_orders=orders)
    try:
        units = [
            field.element([parse_rational(c) for c in vec]) for vec in data.get("units", [])
        ]
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"descriptor unit vectors are malformed: {exc}") from exc
    return field, units
