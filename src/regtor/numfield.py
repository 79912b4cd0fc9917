"""Exact and high-precision arithmetic for an order R = Z[x]/(p), and the
arithmetic core the other modules share.

The defining polynomial is monic, squarefree, with integer coefficients
and degree at most DEGREE_MAX.  build_field is the one constructor of a
field.  Embeddings into C are the roots of p: for p = 1 + x + ... + x^{r-1}
the closed-form roots of unity e^{2 pi i k/r}, of which only the upper half
2k <= r is evaluated and the rest are its conjugates, for every other p the
roots mp.polyroots returns, with no Newton polish.  Either way build_field
orders the roots into places and checks their residuals.  Norms are exact
rationals computed through the resultant of p with the element polynomial,
never through floating products.  The integrality test for units checks
power-basis integrality only; when R is not the maximal order in the power
basis, a unit of the field lying outside Z[x] is rejected.

Shared by every module: Record, the base of every immutable value type;
the polynomial kit over Q (poly_trim, poly_mul, poly_divmod; coefficient
lists constant first), the one Horner evaluator, the one fraction-free
elimination step _bareiss_step over Z, and the precision policy.
_int_bareiss_det runs that step to a determinant: it serves norm and the
squarefree test through _resultant, the subresultant gcd, and
modtors.exact_det through Kronecker substitution (_kronecker_matrix).
exact_ranks runs it with complete pivoting on the Kronecker form of a
matrix to decide its rank at each place exactly in K, splitting p where a
pivot is a zero divisor.  Each public function works at digits + GUARD;
the cutoffs rank_cutoff (10^(-digits/2)), torus_tolerance (10^(-digits/3))
and residual_tolerance (10^(-digits + GUARD)) are evaluated at the
caller's working precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from mpmath import mp, mpc, mpf
from mpmath.libmp import dps_to_prec

from .errors import NoConvergence, NotSquarefree, ValidationError

GUARD = 10

# Largest degree of a defining polynomial; 60 admits Z[zeta_61].  A generic
# degree-60 p costs about 5 s at 50 digits and 30-45 s at 1000 digits on
# one core of a 2-core x86 machine with mpmath's pure-Python backend.
DEGREE_MAX = 60

_POLYROOTS_STEPS = 400


class Record:
    """Base of regtor's immutable values: plain classes with __slots__.

    A subclass names its fields, in constructor order, in _fields and
    declares them in __slots__ (with any private cache after them), and its
    written-out __init__ sets them through object.__setattr__; every other
    assignment raises AttributeError.  Equality and hashing go by the class
    and the tuple of fields, repr lists the fields by name, and copy and
    pickle rebuild through the constructor.  A subclass compared by identity
    sets __eq__ and __hash__ back to object's.  No code is generated at
    import: each CLI call is a fresh process and would pay for it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values()


class FieldElement(Record):
    """Element of R tensor Q in the power basis 1, x, ..., x^{n-1}."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        _set_coeffs(self, coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


# The slot's own setter: FieldElement is built in the exact-arithmetic loops,
# and this write skips the attribute lookup that object.__setattr__ makes.
_set_coeffs = FieldElement.coeffs.__set__


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
    """Quotient and remainder of a by b, both trimmed; b[-1] must be nonzero.
    A monic b keeps integer coefficients integer."""
    nb = len(b)
    rem = list(a)
    quo = [0] * max(len(rem) - nb + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + nb - 1]
        if b[-1] != 1:
            c = c / b[-1]
        quo[k] = c
        if c != 0:
            for i in range(nb - 1):
                rem[k + i] -= c * b[i]
    return poly_trim(quo), poly_trim(rem[: nb - 1])


def _bareiss_step(m, k, prev):
    """Eliminate below the pivot m[k][k], fraction-free (Bareiss).

    Each entry right of and below the pivot becomes the minor of the input
    on the pivot rows and columns so far and its own row and column, by one
    exact division by prev, the previous pivot (1 at the first step).
    """
    pivot, top = m[k][k], m[k]
    for row in m[k + 1 :]:
        a = row[k]
        for j in range(k + 1, len(row)):
            q, r = divmod(row[j] * pivot - a * top[j], prev)
            assert r == 0
            row[j] = q
        row[k] = 0


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
        _bareiss_step(m, k, prev)
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


def _kronecker_matrix(field, rows) -> tuple[list[list[int]], int, int]:
    """A matrix of field elements as one integer matrix (Kronecker substitution).

    Entries are lifted to their degree < n representatives in Q[x] and put
    over one common denominator D, leaving integer polynomials a_ij.  Each
    coefficient of any minor of (a_ij) in Z[x] is at most
    H = prod_i max(1, sum_j ||a_ij||_1) in absolute value, since
    ||det||_1 <= perm(||a_ij||_1).  Returns (a_ij(2^B), B, D) with
    B = bitlength(H) + 1: every minor of the integer matrix holds the
    coefficients of the matching minor in Z[x] as balanced base-2^B digits
    (von zur Gathen and Gerhard, Modern Computer Algebra, section 8.4).
    """
    lifted = [[field.element(x).coeffs for x in r] for r in rows]
    den = lcm(*(c.denominator for r in lifted for e in r for c in e))
    a = [[[c.numerator * (den // c.denominator) for c in e] for e in r] for r in lifted]
    bits = prod(max(1, sum(abs(c) for e in r for c in e)) for r in a).bit_length() + 1
    return [[_horner(e, 1 << bits) for e in r] for r in a], bits, den


def _kronecker_digits(value: int, bits: int) -> list[int]:
    """The integer polynomial (constant first, trimmed) whose balanced
    base-2^bits digits make up value."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    coeffs = []
    while value:
        digit = ((value + half) & mask) - half
        coeffs.append(digit)
        value = (value - digit) >> bits
    return coeffs


def _subresultant_gcd(f, e) -> list[int]:
    """The monic gcd of a monic integer f and a nonzero integer e of lower
    degree that share a root, Res(f, e) = 0.

    S_j stacks the coefficient rows (highest power first) of
    x^(m-j-1) f, ..., f and x^(n-j-1) e, ..., e, for deg f = n and
    deg e = m.  The gcd has the least degree d whose principal subresultant
    psc_d, the determinant of the leading square block of S_d, is nonzero,
    and the subresultant polynomial of S_d, whose x^i coefficient is the
    determinant of that block with its last column swapped for the x^i
    column, is psc_d times the monic gcd (von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 6).  The search ends by j = m at the
    latest, where psc_m = lc(e)^(n-m).  Every determinant goes through
    _int_bareiss_det.
    """
    n, m = len(f) - 1, len(e) - 1
    f_desc, e_desc = f[::-1], e[::-1]

    def minor(rows, size, col):
        return _int_bareiss_det([r[: size - 1] + [r[col]] for r in rows])

    for j in range(1, m + 1):
        rows = [[0] * k + f_desc + [0] * (m - j - 1 - k) for k in range(m - j)]
        rows += [[0] * k + e_desc + [0] * (n - j - 1 - k) for k in range(n - j)]
        # column n + m - j - 1 - i holds the x^i coefficients
        size = n + m - 2 * j
        psc = minor(rows, size, size - 1)
        if psc:
            gcd = []
            for i in range(j):
                q, r = divmod(minor(rows, size, n + m - j - 1 - i), psc)
                assert r == 0
                gcd.append(q)
            return gcd + [1]


def _bareiss_ranks(m, bits, f) -> list[tuple[list[int], int]]:
    """Ranks of an integer polynomial matrix modulo the factors of a monic,
    squarefree f, by Bareiss elimination with complete pivoting.

    m holds the polynomials in Kronecker form at x = 2^bits, so every entry
    stays a minor in Z[x], its coefficients the digits of an integer, and
    the exact divisions hold in Z[x] whatever the pivots are mod f.  Any
    entry that is nonzero mod f serves as a pivot.  Elimination stops after
    r pivots when every entry left is 0 mod f: those entries are the
    (r+1)-minors that border the last pivot e, itself the leading r-minor.
    When e is a
    unit mod f, that is e mod f != 0 and Res(f, e mod f) != 0, the rank is r
    modulo every factor of f.  Otherwise f splits into g = gcd(f, e), on
    which e vanishes and elimination starts again, and f / g, on which e is
    a unit and the rank is r (dynamic evaluation, D5: Della Dora,
    Dicrescenzo and Duval, EUROCAL 1985).  So f needs one resultant, and
    one more per split.  Returns (factor, rank) per branch; the factors
    multiply to f.
    """
    done = []
    todo = [f]
    while todo:
        f = todo.pop()
        a = [row[:] for row in m]
        k, last = 0, None
        while True:
            pivot = None
            for i in range(k, len(a)):
                for j in range(k, len(a[i])):
                    if a[i][j]:
                        e = poly_divmod(_kronecker_digits(a[i][j], bits), f)[1]
                        if e:
                            pivot, last = (i, j), e
                            break
                if pivot:
                    break
            if pivot is None:
                break
            i, j = pivot
            a[k], a[i] = a[i], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            _bareiss_step(a, k, a[k - 1][k - 1] if k else 1)
            k += 1
        if k and not _resultant(f, last):
            g = _subresultant_gcd(f, last)
            todo.append(g)
            f = poly_divmod(f, g)[0]
        done.append((f, k))
    return done


def exact_ranks(field, rows) -> tuple[int, ...]:
    """Rank of a matrix of field elements at each place, decided in K.

    The rank at a place is the rank over the factor field Q[x]/(g) of K
    for the irreducible factor g of p that the place's root annihilates.
    _bareiss_ranks finds one rank modulo each factor of p that dynamic
    evaluation splits off, shared by the irreducible factors it holds.
    When p does not split, every place takes that one rank; otherwise each
    place takes the rank of the factor nearest zero at its root, the one
    factor that the root annihilates.
    """
    if not rows or not rows[0]:
        return (0,) * field.n_places
    m, bits, _ = _kronecker_matrix(field, rows)
    branches = _bareiss_ranks(m, bits, list(field.poly))
    if len(branches) == 1:
        return (branches[0][1],) * field.n_places
    with mp.workdps(field.digits + GUARD):
        return tuple(
            min(branches, key=lambda fr: abs(_horner(fr[0], z)))[1] for z in field.sigma_star
        )


class NumberField(Record):
    """An order R = Z[x]/(p) with its embeddings and chosen place representatives.

    sigma_star lists all real embeddings in ascending order, then one member
    of each complex-conjugate pair with positive imaginary part, ordered by
    ascending real part (ties by imaginary part).  all_embeddings lists the
    real roots, then the complex representatives, then their conjugates in
    matching order.
    """

    __slots__ = _fields = (
        "poly", "digits", "sigma_star", "all_embeddings", "r_real", "r_complex", "class_orders"
    )

    def __init__(
        self,
        poly: tuple[int, ...],
        digits: int,
        sigma_star: tuple,
        all_embeddings: tuple,
        r_real: int,
        r_complex: int,
        class_orders: tuple[int, ...] = (),
    ):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "sigma_star", sigma_star)
        object.__setattr__(self, "all_embeddings", all_embeddings)
        object.__setattr__(self, "r_real", r_real)
        object.__setattr__(self, "r_complex", r_complex)
        object.__setattr__(self, "class_orders", class_orders)

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
    e^{2 pi i k/r}, k = 1..r-1.  Only k <= r/2 is evaluated (for even r,
    k = r/2 is the real root -1), and the roots with 2k > r are taken as the
    conjugates of those with 2k < r.  Every other p goes to mp.polyroots, with no Newton
    polish.  Roots within rank_cutoff(digits) of the real axis are real
    places; the rest must pair into complex conjugates.  Every stored
    embedding satisfies |p(z)| < residual_tolerance(digits).
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
            # e^{2 pi i k/r} for 2k <= r; those with 2k > r are their conjugates.
            upper = [mp.expjpi(mpf(2 * k) / (n + 1)) for k in range(1, (n + 1) // 2 + 1)]
            roots = upper + [mp.conj(z) for z in upper[: n // 2]]
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
