"""Exact and high-precision arithmetic for an order R = Z[x]/(p), and the
arithmetic core the other modules share.

The defining polynomial is monic, squarefree, with integer coefficients
and degree at most DEGREE_MAX.  build_field is the one constructor of a
field.  Embeddings into C are the roots of p: for p = 1 + x + ... + x^{r-1}
the closed-form roots of unity e^{2 pi i k/r}, of which only the upper half
2k <= r is evaluated and the rest are its conjugates, for every other p the
roots mp.polyroots returns, with no Newton polish.  Either way build_field
orders the roots into places and checks their backward errors.  embed keeps
the powers of each place's root as one table of integers over a common
power of two, so an element embeds as one exact integer dot product,
rounded once, and one division.  For p = 1 + x + ... + x^{r-1} every power
of a place, and every backward error, is read from the closed-form roots
themselves, with no product chain.  Norms are exact rationals
computed through the resultant of p with the element polynomial, never
through floating products.  The integrality test for units checks
power-basis integrality only; when R is not the maximal order in the power
basis, a unit of the field lying outside Z[x] is rejected.

Shared by every module: Record, the base of every immutable value type,
FieldElement included, with the one constructor that binds the fields each
type names; one reader per kind of number, _integers for an integer
argument and _scalar for every other number, whose exact parts to_exact
gives as rationals, to_mp rounds once each (quotient) and
NumberField.element takes as coefficients; quotient and sqrt, each
rounded once, with no byte-at-a-time normalization of an exact result;
and the precision policy.  Every exact decision over K is made
here, and no other module reads the polynomial kit over Q (poly_trim,
poly_mul, poly_divmod; coefficient lists constant first), the one Horner
evaluator, the Kronecker packing, the resultant or known_irreducible:
exact_det gives the determinant of a matrix over R, exact_pivots its pivot
columns at each place, nonzero_places whether an element is nonzero at
each place, and product_is_zero whether a product of two matrices is 0 in
K.  Each packs ring elements into integers at x = 2^B (Kronecker
substitution) through one packing step, _kronecker_pack.  The one
fraction-free elimination _bareiss over Z gives every exact determinant
and rank: _int_bareiss_det for exact_det on the Kronecker form of a matrix
(_kronecker_matrix); the pivot columns at each place for exact_pivots, on
the Kronecker form too, splitting p where a pivot is a zero divisor; and
flatmodel.gram_ldl's exact LDL^H of each Gram, on the Gram alone.  The
one subresultant remainder sequence _subresultant_prs gives every
resultant and polynomial gcd: the norm, the squarefree test, the unit
test of exact_pivots' last pivot and the gcd that splits p.  Each public
function works at digits + GUARD; the cutoffs rank_cutoff (10^(-digits/2)) and
residual_tolerance (10^(-digits + GUARD)) are evaluated at the caller's
working precision, torus_tolerance
(10^(-digits/3)) at 53 bits, and ln, the one logarithm every module takes,
at the working precision too:
next to 1, where mp.log would double its precision, two terms of the
series of ln(1 + t), and above about 1000 bits a double lifted by Newton's
method.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isqrt, lcm, log1p, log2, prod
from operator import mul

from mpmath import mp, mpc, mpf
from mpmath.libmp import dps_to_prec, from_int, from_man_exp, fzero, isprime, mpf_div, round_nearest

from .errors import NoConvergence, NotSquarefree, ValidationError

GUARD = 10

# Working precision, in decimal digits, where none is given.
DEFAULT_DIGITS = 50

# Largest degree of a defining polynomial; 60 admits Z[zeta_61].  A generic
# degree-60 p (coefficients in [-9, 9]) costs about 4.4 s at 50 digits and
# 32 s at 1000 digits on one core of a 2-core x86 machine with mpmath's
# pure-Python backend, nearly all of it mp.polyroots: its squarefree test
# takes about 5 ms, 30 ms with coefficients up to 10^6.
DEGREE_MAX = 60

_POLYROOTS_STEPS = 400

# Largest working precision, in bits, at which ln takes mp.log: mp.log works
# 10 bits higher, and past 1024 bits its Taylor table steps up to 2068.
_LN_MP_LOG_BITS = 1014

_ZERO = Fraction(0)
_LOG2_10 = log2(10)


class Record:
    """Base of regtor's immutable values: plain classes with __slots__.

    A subclass names its fields, in constructor order, in _fields, declares
    them in __slots__ (with any private cache after them) and maps each
    field that may be left out to its value in _defaults.  The one
    constructor below, which no subclass overrides, binds arguments to
    _fields as a written-out signature would, raising its TypeErrors, sets
    each field through object.__setattr__ and gives a _memo slot a fresh
    dict; any other assignment raises AttributeError.  Equality and hashing go by the class
    and the tuple of fields, repr lists the fields by name, and copy and
    pickle rebuild through the constructor, for every record.  A subclass
    compared by identity sets __eq__ and __hash__ back to object's.  No code
    is generated at import: each CLI call is a fresh process and would pay
    for it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls, names = type(self).__qualname__, self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args) :]:
            if name not in kwargs and name not in self._defaults:
                raise TypeError(f"{cls}() missing required argument {name!r}")
            object.__setattr__(self, name, kwargs.pop(name, self._defaults.get(name)))
        if kwargs:
            name = next(iter(kwargs))
            how = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls}() got {how} argument {name!r}")
        if "_memo" in self.__slots__:
            object.__setattr__(self, "_memo", {})

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
    """Element of R tensor Q in the power basis 1, x, ..., x^{n-1}; poly is
    the defining polynomial of the field that made it, None for a bare
    record, which NumberField.element adopts."""

    __slots__ = _fields = ("coeffs", "poly")
    _defaults = {"poly": None}

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
    """10^(-digits/3) as a 53-bit mpf: a torus element below it is zero.

    The power is taken at 80 bits and rounded to 53, so it lies within a
    relative 2^-53 of 10^(-digits/3) (measured: at most 0.96 2^-53 for
    digits up to 3000), and an is_zero decision moves only for |x| within
    2^-53 of the tolerance.  At the working precision the fractional
    exponent costs a full-precision exp and log: at 1000 digits 2.6 ms a
    call, against about 20 us here.
    """
    with mp.workprec(80):
        tol = mpf(10) ** (-mpf(digits) / 3)
    with mp.workprec(53):
        return +tol


def residual_tolerance(digits: int):
    """10^(-digits + GUARD) at the working precision: the bound on the
    backward error of each root."""
    return mpf(10) ** (-digits + GUARD)


def ln(x):
    """The natural logarithm of a positive mpf at the working precision; every
    logarithm regtor takes is this one.

    Near 1, mp.log adds the cancellation of x - 1 to its working precision,
    and above 2500 bits its AGM then runs at about twice the precision.
    With t = x - 1, which is exact there, two terms of
    ln(1 + t) = t - t^2/2 + t^3/3 - ... suffice once |t| < 2^(-prec/2 - 4):
    the terms left out are below 2^-prec relative to t (Brent and
    Zimmermann, Modern Computer Arithmetic, sections 4.4 and 4.8).  ln(1)
    is exactly 0.

    Farther from 1, ln needs wp = prec + c + 10 bits, where c >= 0 is the
    cancellation -mag(t).  Up to _LN_MP_LOG_BITS it takes mp.log.  Above,
    mp.log misses its Taylor table for a fresh argument, or runs an AGM on
    pure-Python square roots, so ln lifts a double instead (Brent and
    Zimmermann, sections 4.2 and 4.8).  x = m 2^e with m in [1/2, 2) and
    e = 0 for x in [1/2, 2), m >= 1 for e > 0 and m < 1 for e < 0, so that
    ln x = ln m + e ln 2 adds two terms of one sign.  From y = log1p(m - 1)
    in double precision, with 50 correct bits or more, each step
    y <- y + u - u^2/2 with u = m exp(-y) - 1 takes the error eps of y to
    eps^3/3.  The steps run at precisions that triple, c + 4 + b for the b
    bits each delivers, up to wp, so one exp runs at wp and the others at a
    third, a ninth, ... of it.  Before the one rounding to prec, y + e ln 2
    is within about 2^-(prec + 5) of ln x, relative.  On a 2-core x86
    machine with pure-Python mpmath, a fresh argument at 310 digits took
    0.14 ms against 0.34 ms for mp.log, at 1010 digits 0.56 ms against
    0.98 ms (0.3-0.6 ms against 1.0-1.9 ms for 1 + 2^-k, k = 2..1670), at
    2000 digits 1.8 ms against 3.1 ms; at 200 digits mp.log took 50 us
    against 100 us.
    """
    t = x - 1
    mag = mp.mag(t)
    if mag < -(mp.prec // 2) - 4:
        return t - t * t / 2
    cancel = max(0, -mag)
    wp = mp.prec + cancel + 10
    if wp <= _LN_MP_LOG_BITS:
        return mp.log(x)
    m, e = mp.frexp(x)
    if e > 0:
        m, e = 2 * m, e - 1
    y = mpf(log1p(float(m - 1)))
    precs = [wp]
    while precs[-1] - cancel > 150:
        precs.append(cancel + 5 + (precs[-1] - cancel - 4) // 3)
    for p in reversed(precs):
        with mp.workprec(p):
            u = m * mp.exp(-y) - 1
            y += u - u * u / 2
    with mp.workprec(wp):
        y += e * mp.ln2
    return +y


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
    """Exact quotient and remainder of a by b over Q, both trimmed; b[-1] must
    be nonzero.  A monic b keeps integer coefficients integer."""
    nb = len(b)
    rem = list(a)
    quo = [0] * max(len(rem) - nb + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + nb - 1]
        if b[-1] != 1:
            c = Fraction(c, b[-1])
        quo[k] = c
        if c != 0:
            for i in range(nb - 1):
                rem[k + i] -= c * b[i]
    return poly_trim(quo), poly_trim(rem[: nb - 1])


def _bareiss(m, live=bool, order=None) -> tuple[int, int]:
    """Fraction-free elimination of an integer matrix in place, with complete
    pivoting (Bareiss, Math. Comp. 22, 1968).

    Step k swaps to (k, k) the first entry, scanning rows then columns, of
    rows k.. and columns k.. for which live is true.  Each entry right of
    and below it becomes, by one exact division by the previous pivot, the
    minor of the permuted m on the pivots so far and its own row and
    column.  So the k-th pivot is the leading k-minor, once no entry is
    live those below the last pivot are the minors that border it, and
    Hadamard's bound limits every entry.  A list given as order is permuted
    along with the columns, so that its first k entries name the columns of
    the first k pivots.  Returns (number of pivots, sign of the swaps'
    permutation).
    """
    width = len(m[0]) if m else 0
    sign, prev = 1, 1
    for k in range(min(len(m), width)):
        found = next(
            ((i, j) for i in range(k, len(m)) for j in range(k, width) if live(m[i][j])), None
        )
        if found is None:
            return k, sign
        i, j = found
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
        if j != k:
            for row in m:
                row[k], row[j] = row[j], row[k]
            if order is not None:
                order[k], order[j] = order[j], order[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for row in m[k + 1 :]:
            a = row[k]
            for c in range(k + 1, len(row)):
                q, r = divmod(row[c] * pivot - a * top[c], prev)
                assert r == 0
                row[c] = q
            row[k] = 0
        prev = pivot
    return min(len(m), width), sign


def _int_bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the sign of _bareiss's swaps
    times its last pivot.  When it finds fewer pivots than rows, every entry
    left, the last diagonal one too, is 0, and so is the determinant."""
    if not m:
        return 1
    m = [row[:] for row in m]
    return _bareiss(m)[1] * m[-1][-1]


def _subresultant_prs(p, q) -> tuple[int, list[int]]:
    """(Res(p, q), monic gcd of p and q) for a monic integer p of degree
    n >= 1 and an integer q (constant first), by one subresultant polynomial
    remainder sequence over Z (Collins, J. ACM 14, 1967; Brown and Traub,
    J. ACM 18, 1971; H. Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 3.3.7).

    Res(p, q) is prod q(a) over the roots a of p, so it is Res(p, q mod p),
    and the sequence starts from a = p and b = q mod p, which p monic keeps
    integral.  Each step takes the pseudo-remainder lc(b)^(d+1) a mod b,
    d = deg a - deg b >= 1, and divides it exactly by g h^d, with g the
    leading coefficient of the last divisor and h <- g^d / h^(d-1), both 1
    at the start: every remainder is then a subresultant of p and q, whose
    coefficients are minors of the Sylvester matrix, so O(n^2) steps on
    integers within Hadamard's bound take the resultant where the n by n
    determinant of multiplication by q took O(n^3).  The sequence ends at a
    constant b, Res = s lc(b)^deg a / h^(deg a - 1), s flipped at each step
    where deg a and deg b are odd, or at b = 0, Res = 0, and the last
    nonzero remainder a is then a multiple of gcd(p, q).  A monic factor of
    the monic integer p is integral (Gauss's lemma), so a divided by lc(a)
    is the monic gcd exactly.  A q that p divides gives (0, p), a constant
    c (c^n, [1]); the gcd is [1] whenever Res != 0.
    """
    a, b = list(p), poly_divmod(list(q), p)[1]
    g = h = s = 1
    while len(b) > 1:
        d = len(a) - len(b)
        if len(a) % 2 == len(b) % 2 == 0:
            s = -s
        lb, low = b[-1], b[:-1]
        for k in range(d, -1, -1):
            # a <- lc(b) a - c x^k b, c the leading coefficient of a
            c = a.pop()
            if lb != 1:
                a = [x * lb for x in a]
            if c:
                for i, y in enumerate(low, k):
                    a[i] -= c * y
        div = g * h**d
        a, b = b, poly_trim([x // div for x in a])
        g = a[-1]
        h = g**d // h ** (d - 1)
    if not b:
        return 0, [x // a[-1] for x in a]
    return s * b[0] ** (len(a) - 1) // h ** (len(a) - 2), [1]


def _resultant(p, q) -> int:
    """Res(p, q) of a monic integer p and an integer q (_subresultant_prs):
    the norm and the squarefree test."""
    return _subresultant_prs(p, q)[0]


def _kronecker_lift(field, rows) -> tuple[list[list[list[int]]], int]:
    """A matrix of field elements lifted to Z[x]: its entries as their
    degree < n representatives in Q[x] over one common denominator D,
    which leaves integer polynomials a_ij.  Returns ((a_ij), D)."""
    lifted = [[field.element(x).coeffs for x in r] for r in rows]
    den = lcm(*(c.denominator for r in lifted for e in r for c in e))
    return [[[c.numerator * (den // c.denominator) for c in e] for e in r] for r in lifted], den


def _kronecker_matrix(field, rows) -> tuple[list[list[int]], int, int]:
    """A matrix of field elements as one integer matrix (Kronecker substitution).

    Each coefficient of any minor of the lifted matrix (a_ij) in Z[x]
    (_kronecker_lift) is at most H = prod_i max(1, sum_j ||a_ij||_1) in
    absolute value, since ||det||_1 <= perm(||a_ij||_1).  Returns
    (a_ij(2^B), B, D) with B = bitlength(H) + 1: every minor of the integer
    matrix holds the coefficients of the matching minor in Z[x] as balanced
    base-2^B digits (von zur Gathen and Gerhard, Modern Computer Algebra,
    section 8.4).
    """
    a, den = _kronecker_lift(field, rows)
    bits = prod(max(1, sum(abs(c) for e in r for c in e)) for r in a).bit_length() + 1
    return _kronecker_pack(a, bits), bits, den


def _kronecker_pack(a, bits) -> list[list[int]]:
    """The integer polynomials a_ij of a lifted matrix at x = 2^bits: the
    one packing step of exact_det, exact_pivots and product_is_zero."""
    x = 1 << bits
    return [[_horner(e, x) for e in r] for r in a]


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


def _bareiss_pivots(m, bits, f, irreducible) -> list[tuple[list[int], tuple[int, ...]]]:
    """Pivot columns of an integer polynomial matrix modulo the factors of a
    monic, squarefree f, by _bareiss with any entry nonzero mod f as a pivot.

    m holds the polynomials in Kronecker form at x = 2^bits, so every entry
    stays a minor in Z[x], its coefficients the digits of an integer, and
    the exact divisions hold in Z[x] whatever the pivots are mod f.
    Elimination stops after r pivots when every entry left is 0 mod f: those
    entries are the (r+1)-minors that border the last pivot e, itself the
    leading r-minor, on the r pivot columns.  When e is a unit mod f, that
    is e mod f != 0 and Res(f, e mod f) != 0, the rank is r modulo every
    factor of f, and the pivot columns are independent modulo each.
    Otherwise f splits into g = gcd(f, e), on which e vanishes and
    elimination starts again, and f / g, on which e is a unit and the rank
    is r (dynamic evaluation, D5: Della Dora, Dicrescenzo and Duval, EUROCAL
    1985).  One subresultant remainder sequence (_subresultant_prs) gives
    Res(f, e mod f) and, where it is 0, g.  So f needs one sequence, and one
    more per split, unless f is known irreducible
    (NumberField.known_irreducible): then every nonzero residue mod f is a
    unit, and none is run.  Returns
    (factor, sorted pivot columns) per branch; the factors multiply to f.
    """
    done = []
    todo = [f]
    while todo:
        f = todo.pop()

        def mod_f(x):
            return poly_divmod(_kronecker_digits(x, bits), f)[1]

        a = [row[:] for row in m]
        order = list(range(len(a[0])))
        k, _ = _bareiss(a, lambda x: x and mod_f(x), order=order)
        if k and not irreducible:
            res, g = _subresultant_prs(f, mod_f(a[k - 1][k - 1]))
            if not res:
                todo.append(g)
                f = poly_divmod(f, g)[0]
        done.append((f, tuple(sorted(order[:k]))))
    return done


def exact_pivots(field, rows) -> tuple[tuple[int, ...], ...]:
    """Pivot columns of a matrix of field elements at each place, decided in K.

    At a place they are independent columns, as many as the rank over the
    factor field Q[x]/(g) of K for the irreducible factor g of p that the
    place's root annihilates.  _bareiss_pivots finds one set modulo each
    factor of p that dynamic evaluation splits off, shared by the
    irreducible factors it holds.  When p does not split, every place takes
    that one set; otherwise each place takes the set of the factor nearest
    zero at its root, the one factor that the root annihilates.
    """
    if not rows or not rows[0]:
        return ((),) * field.n_places
    m, bits, _ = _kronecker_matrix(field, rows)
    branches = _bareiss_pivots(m, bits, list(field.poly), field.known_irreducible)
    if len(branches) == 1:
        return (branches[0][1],) * field.n_places
    with mp.workdps(field.digits + GUARD):
        return tuple(
            min(branches, key=lambda fp: abs(_horner(fp[0], z)))[1] for z in field.sigma_star
        )


def nonzero_places(field, x) -> tuple[bool, ...]:
    """Whether an element is nonzero at each place, decided in K: the 1 by 1
    matrix [[x]] has a pivot (exact_pivots) at exactly the places where x
    does not vanish.  That takes no resultant when p is known irreducible,
    where x != 0 in K settles every place, and otherwise one, Res(p, x),
    with a split of p where it is 0."""
    return tuple(bool(p) for p in exact_pivots(field, [[x]]))


def exact_det(field, rows) -> FieldElement:
    """Exact determinant of a square matrix of ring elements.

    _kronecker_matrix puts the entries over one common denominator D and
    substitutes x = 2^B into the integer polynomials left, with B large
    enough that the one integer determinant holds the coefficients of the
    Z[x] determinant as balanced base-2^B digits.  They are divided by D^m
    and reduced modulo p only at the end.  The Q[x] determinant is unique,
    so no pivot is chosen in R, and a factoring p raises no zero-divisor
    case.
    """
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValidationError("matrix must be square")
    a, bits, den = _kronecker_matrix(field, rows)
    det = _int_bareiss_det(a)
    return field.element([Fraction(c, den**m) for c in _kronecker_digits(det, bits)])


def product_is_zero(field, left, right) -> bool:
    """Whether the product of two matrices of ring elements is 0 in K.

    By Kronecker substitution: both factors are lifted to integer
    polynomials a_ik and b_kj (_kronecker_lift), and each entry
    c_ij = sum_k a_ik b_kj of their product in Z[x] has every coefficient at
    most sum_k ||a_ik||_1 ||b_kj||_1 <= H in absolute value, H the largest
    sum_k ||a_ik||_1 over the rows of the left factor times the largest
    sum_k ||b_kj||_1 over the columns of the right one.  With
    B = bitlength(H) + 1, so that 2^(B-1) > H, the integer dot product of
    row i and column j packed at x = 2^B (_kronecker_pack) is c_ij(2^B),
    whose balanced base-2^B digits (_kronecker_digits) are the coefficients
    of c_ij; c_ij is 0 in K when p divides it.
    """
    if not left or not right or not right[0]:
        return True
    a, _ = _kronecker_lift(field, left)
    b, _ = _kronecker_lift(field, right)
    cols = list(zip(*b))
    norm = max(sum(sum(map(abs, e)) for e in r) for r in a) * max(
        sum(sum(map(abs, e)) for e in col) for col in cols
    )
    bits = norm.bit_length() + 1
    packed_cols = _kronecker_pack(cols, bits)
    poly = list(field.poly)
    for r in _kronecker_pack(a, bits):
        for col in packed_cols:
            v = sum(map(mul, r, col))
            if v and poly_divmod(_kronecker_digits(v, bits), poly)[1]:
                return False
    return True


class NumberField(Record):
    """An order R = Z[x]/(p) with its embeddings and chosen place representatives.

    sigma_star lists all real embeddings in ascending order, then one member
    of each complex-conjugate pair with positive imaginary part, ordered by
    ascending real part (ties by imaginary part).  all_embeddings lists the
    real roots, then the complex representatives, then their conjugates in
    matching order.  class_orders, the orders of the cyclic factors of the
    class group, defaults to () (a trivial class group).  embed keeps the
    powers of each place it has evaluated at in _memo (for
    p = 1 + x + ... + x^(r-1), those of every place at its first call), a
    fresh dict per object outside the constructor, repr and equality.
    """

    _fields = (
        "poly", "digits", "sigma_star", "all_embeddings", "r_real", "r_complex", "class_orders"
    )
    __slots__ = _fields + ("_memo",)
    _defaults = {"class_orders": ()}

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    @property
    def n_places(self) -> int:
        return self.r_real + self.r_complex

    def is_real_place(self, place_index: int) -> bool:
        return place_index < self.r_real

    @property
    def known_irreducible(self) -> bool:
        """Whether the form of p alone shows it irreducible: degree 1, or
        1 + x + ... + x^(r-1) with r prime, the cyclotomic polynomial Phi_r.
        Then an element that is not 0 in K is nonzero at every place.  False
        decides nothing: x^2 - 2 is irreducible too."""
        r = len(self.poly)
        return r == 2 or (set(self.poly) == {1} and isprime(r))

    def element(self, coeffs) -> FieldElement:
        """Coefficients reduced modulo p; a FieldElement is returned as it is,
        and refused unless it has one coefficient per degree, then unless
        it belongs to this field: a bare record, of no field, is adopted.
        Each other coefficient is read by the one reader of a number
        (_scalar), as the rational it is exactly, an mpf as its dyadic
        value; a complex-typed one is refused, as is anything _scalar
        refuses."""
        if isinstance(coeffs, FieldElement):
            if len(coeffs.coeffs) != self.degree:
                raise ValidationError(
                    f"an element with {len(coeffs.coeffs)} coefficients is not in a field of "
                    f"degree {self.degree}"
                )
            if coeffs.poly is None:
                return FieldElement(coeffs.coeffs, self.poly)
            if coeffs.poly != self.poly:
                raise ValidationError("the element belongs to another field")
            return coeffs
        parts = [_scalar(c) for c in coeffs]
        if any(im is not None for _, im in parts):
            raise ValidationError(f"field coefficients must be real, got {coeffs!r}")
        vals = [_rational(re) for re, _ in parts]
        if len(vals) > self.degree:
            vals = poly_divmod(vals, self.poly)[1]
        return FieldElement(tuple(vals + [Fraction(0)] * (self.degree - len(vals))), self.poly)

    def zero(self) -> FieldElement:
        return self.element([])

    def one(self) -> FieldElement:
        return self.element([1])

    def gen(self) -> FieldElement:
        return self.element([0, 1])

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        a, b = self.element(a), self.element(b)
        return FieldElement(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), self.poly)

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        a, b = self.element(a), self.element(b)
        return FieldElement(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)), self.poly)

    def neg(self, a: FieldElement) -> FieldElement:
        return FieldElement(tuple(-x for x in self.element(a).coeffs), self.poly)

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.element(poly_mul(self.element(a).coeffs, self.element(b).coeffs))


def _check_field(field: NumberField, other: NumberField, what: str):
    """Refuses data that belongs to another field: other is the field of what."""
    if other != field:
        raise ValidationError(f"{what} belongs to another field")


def _integers(values, message) -> tuple:
    """values as ints, the one reader of an integer argument: a value is an
    integer when int() reads it unchanged and it is no boolean, so 3.0 and
    Fraction(3) are 3, and 2.5, True and "3" are refused with message."""
    try:
        values = list(values)
        ints = tuple(int(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(message) from exc
    if any(isinstance(v, bool) or i != v for i, v in zip(ints, values)):
        raise ValidationError(message)
    return ints


def build_field(poly, digits: int, class_orders=()) -> NumberField:
    """Construct the order Z[x]/(p) with embeddings at the given precision.

    p must be monic with integer coefficients, of degree 1..DEGREE_MAX, and
    squarefree: Res(p, p') != 0, decided exactly before any root finding
    (_subresultant_prs; about 0.04 ms for p = 1 + x + ... + x^60).  For
    p = 1 + x + ... + x^{r-1} the roots are the closed-form
    e^{2 pi i k/r}, k = 1..r-1.  Only k <= r/2 is evaluated (for even r,
    k = r/2 is the real root -1), and the roots with 2k > r are taken as the
    conjugates of those with 2k < r.  Each is one mp.expjpi at a reduced
    angle in [0, pi/4], turned by an exact power of i and a conjugation
    (_root_of_unity): past pi/4, mpmath 1.3.0 misreads the size of the
    reduced argument and doubles its precision.  Every other p goes to
    mp.polyroots, with no Newton polish.  Roots within rank_cutoff(digits)
    of the real axis are real places; the rest must pair into complex
    conjugates.  Every stored embedding has backward error
    |p(z)| / sum |c_i| |z|^i at most residual_tolerance(digits).  For p = 1 + x + ... + x^{r-1}, p(z) is the
    exact sum of the powers z^0, ..., z^{r-1}, each read from the
    closed-form roots, with no product chain; every other p
    is evaluated by Horner.  Each class-group order is an integer of at
    least 1, checked with the other arguments before any root finding.
    A coefficient, an order or digits is an integer when int() leaves it
    unchanged and it is no boolean (_integers).
    """
    coeffs = _integers(poly, "defining polynomial must have integer coefficients")
    n = len(coeffs) - 1
    if n < 1:
        raise ValidationError("defining polynomial must have degree >= 1")
    if n > DEGREE_MAX:
        raise ValidationError(f"defining polynomial must have degree at most {DEGREE_MAX}")
    if coeffs[-1] != 1:
        raise ValidationError("defining polynomial must be monic")
    (digits,) = _integers([digits], "digits must be positive")
    if digits < 1:
        raise ValidationError("digits must be positive")
    class_orders = _integers(class_orders, "class-group orders must be integers")
    if any(m < 1 for m in class_orders):
        raise ValidationError("class-group orders must be at least 1")

    if _resultant(coeffs, [k * coeffs[k] for k in range(1, n + 1)]) == 0:
        raise NotSquarefree("defining polynomial has a repeated factor")

    cyclotomic = set(coeffs) == {1}

    with mp.workdps(digits + 2 * GUARD):
        if cyclotomic:
            # zeta^m = e^{2 pi i m/r} for m = 0..r-1: the roots with 2m <= r,
            # and those with 2m > r as their conjugates
            upper = [_root_of_unity(k, n + 1) for k in range(1, (n + 1) // 2 + 1)]
            zeta = [mpf(1)] + upper + [mp.conj(z) for z in reversed(upper[: n // 2])]
            roots = zeta[1:]
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
        # backward error |p(z)| / sum |c_i| |z|^i (Higham, Accuracy and
        # Stability of Numerical Algorithms, section 5.1): the size of z
        # scales the rounding in p(z) and cannot push it over the bound
        resid_bound = residual_tolerance(digits)
        sizes = [abs(c) for c in coeffs]
        for i, z in enumerate(sigma_star):
            if cyclotomic:
                # place i is zeta^k, k = r//2 - i, so p(z) is the exact sum of
                # the closed-form zeta^(jk mod r), with no product; every |z|
                # is 1, so the size is r
                k = (n + 1) // 2 - i
                value, size = mp.fsum(zeta[j * k % (n + 1)] for j in range(n + 1)), n + 1
            else:
                value, size = _horner(coeffs, z), _horner(sizes, abs(z))
            if abs(value) > resid_bound * size:
                raise NoConvergence("root backward error exceeds the precision bound")
        return NumberField(
            poly=coeffs,
            digits=digits,
            sigma_star=sigma_star,
            all_embeddings=sigma_star + tuple(mp.conj(z) for z in pos),
            r_real=len(reals),
            r_complex=len(pos),
            class_orders=class_orders,
        )


def _root_of_unity(k: int, r: int):
    """e^{2 pi i k/r} at the working precision, from one mp.expjpi(a) =
    e^{i pi a} with a in [0, 1/4].  With 4k = qr + b and 0 <= b < r,
    e^{2 pi i k/r} is i^q e^{i pi b/(2r)}, and for 2b > r it is i^(q+1)
    times the conjugate of e^{i pi (r-b)/(2r)}; a power of i and a
    conjugation are exact, and so is the root wherever 4k = 0 (mod r).
    expjpi subtracts the nearest multiple of 1/2 from a, which is 0 on
    [0, 1/4].  Past 1/4 the reduced mantissa is negative, mpmath 1.3.0's
    pure-Python bitcount returns 0 for it, and expjpi runs at about twice
    the precision: 6794 bits for 3402 at 1020 digits."""
    q, b = divmod(4 * k, r)
    if 2 * b > r:
        w = mp.conj(mp.expjpi(mpf(r - b) / (2 * r)))
        q += 1
    else:
        w = mp.expjpi(mpf(b) / (2 * r))
    re, im = w.real, w.imag
    for _ in range(q % 4):
        re, im = -im, re
    return mpc(re, im)


def _horner(coeffs, z):
    """sum of coeffs[k] z^k (constant first) at the working precision; real
    for real z."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _powers(field: NumberField, place_index: int) -> tuple:
    """The powers z^0, ..., z^(n-1) of a place representative z, each
    rounded once to digits + GUARD, kept in the field's _memo as one integer
    table (e, re, im): the real parts of z^k are re[k] 2^e and the imaginary
    parts im[k] 2^e, and im is None at a real place.  For
    p = 1 + x + ... + x^(r-1) the first call fills the tables of every
    place from one field-wide table (_unit_tables), with no product chain;
    for every other p the powers come from a product chain at 2 GUARD more
    digits, over the least binary exponent e of any of their parts.
    """
    key = ("powers", place_index)
    if key not in field._memo:
        if set(field.poly) == {1}:
            field._memo.update(_unit_tables(field))
        else:
            z = field.sigma_star[place_index]
            with mp.workdps(field.digits + 3 * GUARD):
                chain = [mpf(1)]
                for _ in range(field.degree - 1):
                    chain.append(chain[-1] * z)
            with mp.workdps(field.digits + GUARD):
                chain = [+w for w in chain]
            real = not isinstance(z, mpc)
            e, ints = _int_parts(
                [w.real for w in chain] + ([] if real else [w.imag for w in chain])
            )
            n = len(chain)
            field._memo[key] = (e, ints[:n], None if real else ints[n:])
    return field._memo[key]


def _unit_tables(field: NumberField) -> dict:
    """The power tables of every place of p = 1 + x + ... + x^(r-1), keyed as
    _powers keeps them.  In the documented order of the places, place i is
    zeta^k with zeta = e^{2 pi i/r} and k = r//2 - i, so its powers
    z^j = zeta^(jk mod r) are all among zeta^0, ..., zeta^(r-1):
    1, the closed-form roots zeta^m for 2m <= r, and their conjugates.  Those
    r//2 + 1 values are rounded once to digits + GUARD and converted to
    integers once, over the least binary exponent e of any of their parts,
    and every place indexes them.  Over a lower e a table holds the same
    values, so every embed, whose dot product is exact, is unchanged."""
    r = len(field.poly)
    with mp.workdps(field.digits + GUARD):
        upper = [mpf(1)] + [+field.sigma_star[r // 2 - m] for m in range(1, r // 2 + 1)]
    e, ints = _int_parts([w.real for w in upper] + [w.imag for w in upper])
    half = len(upper)
    re = [ints[min(m, r - m)] for m in range(r)]
    im = [ints[half + m] if 2 * m <= r else -ints[half + r - m] for m in range(r)]
    tables = {}
    for i in range(field.n_places):
        index = [j * (r // 2 - i) % r for j in range(field.degree)]
        row_im = None if field.is_real_place(i) else tuple(im[m] for m in index)
        tables["powers", i] = (e, tuple(re[m] for m in index), row_im)
    return tables


def _int_parts(parts) -> tuple:
    """(e, ints): real mpf values as the signed integers ints[k] 2^e over
    the least binary exponent e of any nonzero value."""
    raw = [x._mpf_ for x in parts]
    e = min(exp for _, man, exp, _ in raw if man)
    return e, tuple((-man if sign else man) << (exp - e) for sign, man, exp, _ in raw)


def _round_dot(nums, table, e, prec, den):
    """The raw mpf of sum nums[k] table[k] 2^e, rounded once to prec bits
    (_nearest of the exact sum), divided by den and rounded again."""
    s = sum(map(mul, nums, table))
    if not s:
        return fzero
    return mpf_div(_nearest(s, 0, e, prec), from_int(den), prec, round_nearest)


def _nearest(q: int, inexact, exp: int, prec: int):
    """The raw mpf nearest to x at prec bits, where x = q 2^exp for a
    nonzero integer q when inexact is false, and otherwise
    q 2^exp < x < (q + 1) 2^exp for a q > 0 of at least prec + 2 bits: the
    one rounding of quotient, sqrt, to_mp and _round_dot.

    An inexact x becomes q with a sticky bit appended below it, so that
    from_man_exp rounds once and correctly (Brent and Zimmermann, Modern
    Computer Arithmetic, chapter 3).  An exact x drops the trailing zero
    bits of q in one shift, where mpmath's normalization would strip them a
    byte at a time, shifting the whole mantissa each time: on its
    pure-Python backend at 1010 digits 1/mpf(1) took 75 us and
    mp.sqrt(mpf(9)) 96 us, against 3.4 us for 1/mpf(3).
    """
    if inexact:
        return from_man_exp(2 * q + 1, exp - 1, prec, round_nearest)
    t = (q & -q).bit_length() - 1
    return from_man_exp(q >> t, exp + t, prec, round_nearest)


def _parts(x) -> tuple[int, int, int]:
    """(num, den, exp) with x = num 2^exp / den and den > 0, for an int, a
    Fraction or a finite real mpf."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator, 0
    sign, man, exp, _ = x._mpf_
    return -man if sign else man, 1, exp


def quotient(a, b):
    """a / b rounded once to nearest at the working precision, for a and b
    each an int, a Fraction or a finite real mpf, and b nonzero.

    For two mpf it is the value mpf_div gives.  One integer division takes
    the quotient to prec + 2 bits or more, and _nearest rounds it, so an
    exact quotient, such as 1/1 or 3/3, costs what an inexact one does.
    """
    na, da, ea = _parts(a)
    nb, db, eb = _parts(b)
    if nb < 0:
        na, nb = -na, -nb
    num, den = na * db, da * nb
    if not num:
        return mpf(0)
    n, prec = abs(num), mp.prec
    shift = prec + 2 + den.bit_length() - n.bit_length()
    q, r = divmod(n << shift, den) if shift >= 0 else divmod(n, den << -shift)
    x = mp.make_mpf(_nearest(q, r, ea - eb - shift, prec))
    return -x if num < 0 else x


def sqrt(x):
    """The square root of an int or a finite real mpf x >= 0, rounded once
    to nearest at the working precision: the value mp.sqrt gives.

    math.isqrt of the mantissa, shifted to 2 prec + 4 bits or more, and
    _nearest round it, so an exact root, such as that of 9 or of a
    perfect-square Cholesky radicand, costs what an inexact one does.  At
    1010 digits on a 2-core x86 machine an inexact root took 32 us against
    45 us for mp.sqrt, whose pure-Python integer square root is slower than
    math.isqrt.
    """
    num, den, exp = _parts(x)
    if num < 0 or den != 1:
        raise ValueError(f"sqrt takes an int or an mpf >= 0, not {x!r}")
    if not num:
        return mpf(0)
    prec = mp.prec
    shift = max(0, 2 * prec + 4 - num.bit_length())
    shift += (exp - shift) & 1
    n = num << shift
    q = isqrt(n)
    return mp.make_mpf(_nearest(q, n - q * q, (exp - shift) // 2, prec))


def embed(field: NumberField, elem: FieldElement, place_index: int):
    """Embedded value of an element at the chosen place representative: real
    at a real place, complex at a complex one.

    The coefficients are put over one common denominator D, the integer
    numerators are dotted exactly with the place's integer table of powers
    of z (_powers), and each part is rounded once to digits + GUARD, then
    divided by D: two roundings at digits + GUARD, whatever the degree.
    This is the value mp.fdot of the numerators and the powers, divided by
    D, gives whenever that dot sums exactly, as it does unless two of its
    partial sums lie more than twice the precision apart, where mp.fdot
    drops the smaller one.
    """
    coeffs = field.element(elem).coeffs
    e, re, im = _powers(field, place_index)
    den = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    prec = dps_to_prec(field.digits + GUARD)
    x = _round_dot(nums, re, e, prec, den)
    if im is None:
        return mp.make_mpf(x)
    return mp.make_mpc((x, _round_dot(nums, im, e, prec, den)))


def embed_all(field: NumberField, elem: FieldElement) -> tuple:
    """Embedded values (complex) at every embedding, ordered like
    all_embeddings; each conjugate root gives the conjugate value."""
    upper = [mpc(embed(field, elem, k)) for k in range(field.n_places)]
    return tuple(upper) + tuple(mp.conj(v) for v in upper[field.r_real :])


def _abs2(x):
    """|x|^2 of an mpf or mpc at the working precision, with no square root."""
    if isinstance(x, mpc):
        return x.real * x.real + x.imag * x.imag
    return x * x


def norm(field: NumberField, elem: FieldElement) -> Fraction:
    """Exact norm: the product of all embedded values, via a resultant.

    Res(p, q) of p and the denominator-cleared element polynomial q, divided
    by the cleared denominator to the degree of p.
    """
    q = poly_trim(list(field.element(elem).coeffs))
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
    """Parse 'p/q', 'p' or a decimal into an exact rational.

    A decimal whose mantissa digits and |exponent| add up to more than
    sys.get_int_max_str_digits() raises ValueError before Fraction builds
    its power of ten, as the same number written out as digits would.  A
    boolean is no number: it raises ValidationError.
    """
    if isinstance(text, bool):
        raise ValidationError(f"not a number: {text!r}")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    text = str(text)
    mantissa, e, exponent = text.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    if e and limit and sum(c.isdigit() for c in mantissa) + abs(int(exponent)) > limit:
        raise ValueError(f"decimal exceeds the limit of {limit} digits")
    return Fraction(text)


def _scalar(x) -> tuple:
    """(re, im): the exact parts of a scalar input, each an int, a Fraction
    or a finite mpf, with im None for a real-typed input; the one reader of
    a number, under to_exact, to_mp and NumberField.element.

    An int, a Fraction, an mpf (mp.pi and the other constants at the
    working precision), a "p/q" or decimal string (parse_rational) and any
    other number Fraction() reads exactly, a float or a Decimal, are
    real-typed.  A complex, an mpc and an [re, im] pair are complex-typed;
    each part of a pair is read by this rule, and the two combine exactly
    as re + i im, so [mpc(1, 2), 3] is 1 + 5i.  Raises ValidationError on
    a boolean, a value that is not finite, text that is no rational, a part
    that is a pair itself, and anything past the int-string limit: a
    decimal whose digits pass it, or an mpf whose binary exponent passes
    the bits of an integer of that many digits, whose exact value would be
    a power of two as long.
    """
    if isinstance(x, bool):
        raise ValidationError(f"not a number: {x!r}")
    if isinstance(x, (int, Fraction)):
        return x, None
    if hasattr(x, "_mpf_"):  # an mpf, or a constant such as mp.pi
        return _finite(mp.make_mpf(x._mpf_)), None
    if isinstance(x, mpc):
        return _finite(x.real), _finite(x.imag)
    if isinstance(x, (tuple, list)):
        if len(x) != 2 or any(isinstance(v, (tuple, list)) for v in x):
            raise ValidationError("complex entries must be [re, im] pairs")
        (a, b), (c, d) = _scalar(x[0]), _scalar(x[1])
        if b is None and d is None:
            return a, c
        a, b, c, d = (_rational(v or 0) for v in (a, b, c, d))
        return a - d, b + c
    try:
        if isinstance(x, complex):
            return Fraction(x.real), Fraction(x.imag)
        return (parse_rational(x) if isinstance(x, str) else Fraction(x)), None
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a number: {x!r} ({exc})") from exc


def _finite(v):
    """An mpf part of _scalar, refused when it is not finite or its exponent
    passes the int-string limit in bits."""
    if not mp.isfinite(v):
        raise ValidationError(f"not a number: {v}")
    limit = sys.get_int_max_str_digits()
    if limit and abs(v._mpf_[2]) > limit * _LOG2_10:
        raise ValidationError(f"number exceeds the limit of {limit} digits: {mp.nstr(v, 8)}")
    return v


def _rational(v) -> Fraction:
    """A part of _scalar as the rational it is exactly."""
    if isinstance(v, Fraction):
        return v
    num, _, exp = _parts(v)
    return Fraction(num << exp) if exp >= 0 else Fraction(num, 1 << -exp)


def to_exact(x) -> tuple[Fraction, Fraction]:
    """The exact pair (re, im) of rationals a scalar input is (_scalar), im
    0 for a real-typed input; to_mp rounds each part of it once."""
    re, im = _scalar(x)
    return _rational(re), _ZERO if im is None else _rational(im)


def to_mp(x):
    """A scalar input (_scalar) at the working precision: each part rounded
    once to nearest by quotient, so a rational, a decimal string or a longer
    mpf is within half an ulp of the exact value to_exact gives.  An mpc
    exactly when the input is complex-typed, an mpf otherwise."""
    re, im = (None if v is None else _rounded(v) for v in _scalar(x))
    return re if im is None else mpc(re, im)


def _rounded(v):
    """A part of _scalar rounded once by quotient; an mpf whose mantissa
    fits the working precision is that value already, and is kept."""
    return v if isinstance(v, mpf) and v._mpf_[3] <= mp.prec else quotient(v, 1)


def parse_descriptor(data: dict, digits_override: int | None = None):
    """Build a field and its unit list from a descriptor mapping.

    Expected keys: "poly" (integer coefficients, constant first, monic),
    optional "digits", optional "units" (list of rational coefficient
    vectors), optional "class_group": {"orders": [...]}.
    Returns (field, units).
    """
    if not isinstance(data, dict) or "poly" not in data:
        raise ValidationError('field descriptor needs a "poly" coefficient list')
    digits = digits_override
    if digits is None:
        (digits,) = _integers(
            [data.get("digits", DEFAULT_DIGITS)], "descriptor digits must be an integer"
        )
    class_group = data.get("class_group", {})
    if not isinstance(class_group, dict):
        raise ValidationError('descriptor "class_group" must be an object')
    field = build_field(data["poly"], digits, class_orders=class_group.get("orders", []))
    try:
        units = [field.element(vec) for vec in data.get("units", [])]
    except TypeError as exc:
        raise ValidationError(f"descriptor unit vectors are malformed: {exc}") from exc
    return field, units
