"""Exact and high-precision arithmetic for an order R = Z[x]/(p), and the
arithmetic core the other modules share.

The defining polynomial is monic, squarefree, with integer coefficients
and degree at most DEGREE_MAX.  build_field is the one constructor of a
field.  Embeddings into C are the roots of p: for p = 1 + x + ... + x^{r-1}
the closed-form roots of unity e^{2 pi i k/r}, for every other p the roots
mp.polyroots returns, with no Newton polish.  Either way build_field orders
the roots into places and checks their residuals.  Norms are exact
rationals computed through the resultant of p with the element polynomial,
never through floating products.  The integrality test for units checks
power-basis integrality only; when R is not the maximal order in the power
basis, a unit of the field lying outside Z[x] is rejected.

Shared by every module: the polynomial kit over Q (poly_trim, poly_mul,
poly_divmod; coefficient lists constant first), the one Horner evaluator,
the one fraction-free elimination kernel _int_bareiss_det over Z (it serves
norm and the squarefree test through _resultant, and modtors.exact_det
through Kronecker substitution), and the precision policy.  Each public
function works at digits + GUARD; the cutoffs rank_cutoff (10^(-digits/2)),
torus_tolerance (10^(-digits/3)) and residual_tolerance
(10^(-digits + GUARD)) are evaluated at the caller's working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from mpmath import mp, mpc, mpf
from mpmath.libmp import dps_to_prec

from .errors import NoConvergence, NotSquarefree, ValidationError

GUARD = 10

# Largest degree of a defining polynomial; 60 admits Z[zeta_61].  A generic
# degree-60 p costs about 5 s at 50 digits and 30-45 s at 1000 digits on
# one core of a 2-core x86 machine with mpmath's pure-Python backend.
DEGREE_MAX = 60

_POLYROOTS_STEPS = 400


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


def rank_cutoff(digits: int):
    """10^(-digits/2) at the working precision: the rank cutoff, the real-axis
    test of the roots and the lattice's drop test for collapsed vectors."""
    return mpf(10) ** (-mpf(digits) / 2)


def torus_tolerance(digits: int):
    """10^(-digits/3) at the working precision: a torus element below it is zero."""
    return mpf(10) ** (-mpf(digits) / 3)


def residual_tolerance(digits: int):
    """10^(-digits + GUARD) at the working precision: the bound on root
    residuals, and for complexes over C the bound on d after d and on the
    cocycle conditions relative to the Frobenius norms of their factors."""
    return mpf(10) ** (-digits + GUARD)


def poly_trim(a: list) -> list:
    """Drop trailing zero coefficients in place; the zero polynomial is []."""
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b) -> list:
    """Product of two coefficient lists (constant first), trimmed."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a, b) -> tuple[list, list]:
    """Quotient and remainder of a by b, both trimmed; b[-1] must be nonzero."""
    nb = len(b)
    rem = list(a)
    quo = [Fraction(0)] * max(len(rem) - nb + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + nb - 1] / b[-1]
        quo[k] = c
        if c != 0:
            for i in range(nb - 1):
                rem[k + i] -= c * b[i]
    return poly_trim(quo), poly_trim(rem[: nb - 1])


def _int_bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss): every
    intermediate entry is a minor of m, so Hadamard's bound limits its size."""
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


def _resultant(p, q) -> int:
    """Res(p, q) of two integer polynomials (constant first, nonzero leading
    coefficients): the determinant of their Sylvester matrix.  A constant q
    gives the diagonal matrix q I_{deg p}."""
    n, m = len(p) - 1, len(q) - 1
    p_desc, q_desc = list(p[::-1]), list(q[::-1])
    syl = [[0] * k + p_desc + [0] * (m - 1 - k) for k in range(m)]
    syl += [[0] * k + q_desc + [0] * (n - 1 - k) for k in range(n)]
    return _int_bareiss_det(syl)


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
        """Coefficients reduced modulo p; a FieldElement is returned as it is."""
        if isinstance(coeffs, FieldElement):
            return coeffs
        vals = [Fraction(c) for c in coeffs]
        if len(vals) > self.degree:
            vals = poly_divmod(vals, self.poly)[1]
        return FieldElement(tuple(vals + [Fraction(0)] * (self.degree - len(vals))))

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
        return self.element(poly_mul(a.coeffs, b.coeffs))


def build_field(poly, digits: int, class_orders=()) -> NumberField:
    """Construct the order Z[x]/(p) with embeddings at the given precision.

    p must be monic with integer coefficients, of degree 1..DEGREE_MAX, and
    squarefree: Res(p, p') != 0, decided exactly before any root finding.
    p = 1 + x + ... + x^{r-1} skips that test, which would cost about 20 /
    160 ms at r = 31 / 61: its roots are the distinct closed-form
    e^{2 pi i k/r}, k = 1..r-1.  Every other p goes to mp.polyroots, with no
    Newton polish.  Roots within
    rank_cutoff(digits) of the real axis are real places; the rest must pair
    into complex conjugates.  Every stored embedding satisfies
    |p(z)| < residual_tolerance(digits).
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
    if n > DEGREE_MAX:
        raise ValidationError(f"defining polynomial must have degree at most {DEGREE_MAX}")
    if coeffs[-1] != 1:
        raise ValidationError("defining polynomial must be monic")
    if digits < 1:
        raise ValidationError("digits must be positive")

    cyclotomic = set(coeffs) == {1}
    if not cyclotomic and _resultant(coeffs, [k * coeffs[k] for k in range(1, n + 1)]) == 0:
        raise NotSquarefree("defining polynomial has a repeated factor")

    with mp.workdps(digits + 2 * GUARD):
        if cyclotomic:
            roots = [mp.expjpi(mpf(2 * k) / (n + 1)) for k in range(1, n + 1)]
        else:
            # 2 GUARD extra digits keep each step's rounding, magnified by the
            # root's condition number (about 10^13 for Wilkinson's degree-20
            # polynomial), below the working epsilon that ends the iteration;
            # the roots then come back rounded alike, so equal real parts tie
            # exactly in the sorts below.
            try:
                roots = mp.polyroots(
                    coeffs[::-1], maxsteps=_POLYROOTS_STEPS, extraprec=dps_to_prec(2 * GUARD)
                )
            except mp.NoConvergence as exc:
                raise NoConvergence(f"root finding did not converge: {exc}") from exc
        threshold = rank_cutoff(digits)
        reals = sorted(z.real for z in roots if abs(z.imag) <= threshold)
        pos = sorted((z for z in roots if z.imag > threshold), key=lambda z: (z.real, z.imag))
        neg = sorted((z for z in roots if z.imag < -threshold), key=lambda z: (z.real, -z.imag))
        if len(pos) != len(neg):
            raise NoConvergence("could not separate real and complex embeddings")
        for zp, zn in zip(pos, neg):
            if abs(mp.conj(zp) - zn) > threshold:
                raise NoConvergence("complex embeddings do not pair into conjugates")
        sigma_star = tuple(+x for x in reals) + tuple(+z for z in pos)
        resid_bound = residual_tolerance(digits)
        for z in sigma_star:
            if abs(_horner(coeffs, z)) >= resid_bound:
                raise NoConvergence("root residual exceeds the precision bound")
        return NumberField(
            poly=coeffs,
            digits=digits,
            sigma_star=sigma_star,
            all_embeddings=sigma_star + tuple(mp.conj(z) for z in pos),
            r_real=len(reals),
            r_complex=len(pos),
            class_orders=tuple(int(m) for m in class_orders),
        )


def _horner(coeffs, z):
    """sum of coeffs[k] z^k (constant first) at the working precision; real
    for real z."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _mp_coeffs(elem: FieldElement) -> list:
    return [mpf(c.numerator) / c.denominator for c in elem.coeffs]


def embed(field: NumberField, elem: FieldElement, place_index: int):
    """Embedded value of an element at the chosen place representative."""
    with mp.workdps(field.digits + GUARD):
        acc = _horner(_mp_coeffs(elem), field.sigma_star[place_index])
        return +acc.real if field.is_real_place(place_index) else +acc


def embed_all(field: NumberField, elem: FieldElement) -> tuple:
    """Embedded values (complex) at every embedding, ordered like all_embeddings."""
    with mp.workdps(field.digits + GUARD):
        coeffs = _mp_coeffs(elem)
        return tuple(mpc(_horner(coeffs, root)) for root in field.all_embeddings)


def norm(field: NumberField, elem: FieldElement) -> Fraction:
    """Exact norm: the product of all embedded values, via a resultant.

    Res(p, q) of p and the denominator-cleared element polynomial q, divided
    by the cleared denominator to the degree of p.
    """
    q = poly_trim(list(elem.coeffs))
    if not q:
        return Fraction(0)
    den = lcm(*(c.denominator for c in q))
    return Fraction(_resultant(field.poly, [int(c * den) for c in q]), den**field.degree)


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
    try:
        digits = digits_override if digits_override is not None else int(data.get("digits", 50))
        orders = tuple(int(k) for k in data.get("class_group", {}).get("orders", []))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"descriptor digits or class-group orders are malformed: {exc}") from exc
    field = build_field(poly, digits, class_orders=orders)
    try:
        units = [
            field.element([parse_rational(c) for c in vec]) for vec in data.get("units", [])
        ]
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"descriptor unit vectors are malformed: {exc}") from exc
    return field, units
