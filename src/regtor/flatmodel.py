"""Coefficient vectors b_{2j+1}(sigma), the regulator lattice, and point classes.

A FormElement of degree index j holds one real coefficient per place
representative.  For odd j the coefficient at a real place is forced to zero
by b_{2j+1}(conj sigma) = (-1)^j b_{2j+1}(sigma).  Degree-1 elements (j = 0)
live in R^{Sigma*} modulo the all-ones line; the stored representative is
always mean-zero, and the printable coordinates eliminate the first place
through b_1(sigma_0) = -sum of the others.

The regulator lattice is the image of the units under u -> (1/2) ln|sigma(u)|
in quotient coordinates, reduced by one LLL pass over all the unit images;
torus elements are Babai-reduced residues modulo that lattice.  A point
class is (rank, class-group exponents, torus element) with componentwise
addition.

Every Gram is factored by gram_ldl, exactly: its entries are rationals,
or Gaussian rationals, or mpf and mpc read as the dyadic rationals they
are, and one fraction-free elimination gives the Hermitian and positivity
decisions, det G as a Fraction and the unit-lower L of G = L D L^H with
its inverse.  The Cholesky factor, and in rtorsion the orthonormal
coordinates, take one square root per pivot from it.  A logarithm is taken
only where a coefficient vector needs one: lndet_hermitian takes one per
Gram, of its exact determinant, and callers that combine several
determinants multiply them first.

Scalars given as input are converted by numfield.to_mp, and Gram entries
are read by numfield.to_exact as the rationals to_mp rounds.  No record here
formats itself: the CLI alone decides how a value is printed.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from mpmath import mp, mpc, mpf

from .errors import NoConvergence, NotAUnit, NotPositiveDefinite, ValidationError
from .numfield import (
    GUARD,
    FieldElement,
    NumberField,
    Record,
    _bareiss,
    _check_field,
    _integers,
    dirichlet_rank,
    embed,
    ln,
    quotient,
    rank_cutoff,
    sqrt,
    to_exact,
    to_mp,
    torus_tolerance,
    verify_unit,
)

_LLL_STEP_CAP = 50_000
_ZERO = Fraction(0)
# The largest |coefficient| reduce_mod_lattice reduces, GUARD digits of
# cancellation; an mpf, exact, so that no comparison converts it.
_REDUCE_MAX = mpf(10**GUARD)


class FormElement(Record):
    """Coefficient vector of degree 2j+1 over the place representatives.

    digits records the precision the values were produced at; arithmetic on
    the element re-enters that precision so results do not degrade to the
    ambient default.
    """

    __slots__ = _fields = ("degree_index", "values", "digits")

    @property
    def degree(self) -> int:
        return 2 * self.degree_index + 1

    def _like(self, vals):
        return FormElement(self.degree_index, tuple(vals), self.digits)

    def add(self, other: "FormElement") -> "FormElement":
        if other.degree_index != self.degree_index:
            raise ValidationError("cannot add coefficient vectors of different degrees")
        with mp.workdps(self.digits + GUARD):
            return self._like(a + b for a, b in zip(self.values, other.values))

    def sub(self, other: "FormElement") -> "FormElement":
        return self.add(other.neg())

    def neg(self) -> "FormElement":
        with mp.workdps(self.digits + GUARD):
            return self._like(-a for a in self.values)

    def scale(self, c) -> "FormElement":
        with mp.workdps(self.digits + GUARD):
            s = to_mp(c)
            return self._like(s * a for a in self.values)

    def norm(self):
        with mp.workdps(self.digits + GUARD):
            return _vec_norm(self.values)

    def reduced_b1_coords(self) -> tuple:
        """Coordinates in the basis b_1(sigma_1), ..., b_1(sigma_{N-1}).

        The first representative is eliminated through the relation
        sum over Sigma* of b_1(sigma) = 0, so the printed coefficient of
        b_1(sigma_k) is values[k] - values[0].
        """
        if self.degree_index != 0:
            raise ValidationError("reduced coordinates exist in degree 1 only")
        with mp.workdps(self.digits + GUARD):
            return tuple(v - self.values[0] for v in self.values[1:])


def make_form(field: NumberField, degree_index: int, values) -> FormElement:
    """Build a coefficient vector, applying the parity and quotient rules.

    Each coefficient is real: a value with imaginary part 0, an [re, 0]
    pair too, reads as its real part, and any other is refused.  The degree
    index is a non-negative integer (numfield._integers)."""
    (degree_index,) = _integers([degree_index], "degree index must be non-negative")
    if degree_index < 0:
        raise ValidationError("degree index must be non-negative")
    with mp.workdps(field.digits + GUARD):
        vals = [to_mp(v) for v in values]
        if len(vals) != field.n_places:
            raise ValidationError("expected one coefficient per place representative")
        if any(mp.im(v) for v in vals):
            raise ValidationError("form coefficients must be real")
        vals = [mp.re(v) for v in vals]
        if degree_index % 2 == 1:
            vals = [mpf(0) if k < field.r_real else v for k, v in enumerate(vals)]
        if degree_index == 0:
            mean = mp.fsum(vals) / len(vals)
            vals = [v - mean for v in vals]
        return FormElement(degree_index, tuple(vals), field.digits)


def zero_form(field: NumberField, degree_index: int = 0) -> FormElement:
    return make_form(field, degree_index, [0] * field.n_places)


def unit_log(field: NumberField, unit: FieldElement) -> FormElement:
    """The degree-1 vector with coefficient (1/2) ln|sigma(u)| at each sigma."""
    if not verify_unit(field, unit):
        raise NotAUnit(f"not a power-basis unit: {unit}")
    with mp.workdps(field.digits + GUARD):
        vals = [
            ln(abs(embed(field, unit, k))) / 2 for k in range(field.n_places)
        ]
    return make_form(field, 0, vals)


def _dot(u, v):
    return mp.fsum(a * b for a, b in zip(u, v))


def _vec_norm(v):
    return sqrt(_dot(v, v))


def _lll(vectors, drop):
    """LLL reduction (delta = 0.99) of a generating set; returns (basis, star,
    norms).

    One incremental pass in the manner of Schnorr and Euchner (Math.
    Programming 66, 1994): the Gram-Schmidt rows below k stay current, and
    row k is orthogonalized afresh, by classical Gram-Schmidt against the
    unreduced b_k, each time k is reached.  Size reduction updates the mu of
    row k in place.  Vectors of norm <= drop are removed up front, and a
    vector that size reduction collapses to norm <= drop is removed where it
    stands: the rows below it do not change.  Size reduction of row k
    against an LLL-reduced prefix is Babai's nearest plane, so the pass
    gives the basis that reducing one generator at a time gives.  star
    holds the Gram-Schmidt vectors of the returned basis and norms their
    squared lengths.
    """
    delta = mpf("0.99")
    b = [list(v) for v in vectors if _vec_norm(v) > drop]
    star, norms, mu = [], [], []
    k = steps = 0
    while k < len(b):
        steps += 1
        if steps > _LLL_STEP_CAP:
            raise NoConvergence("lattice reduction did not terminate")
        mu_k = [
            _dot(b[k], star[j]) / norms[j] if norms[j] > drop * drop else mpf(0)
            for j in range(k)
        ]
        v = list(b[k])
        for j in range(k):
            v = [x - mu_k[j] * s for x, s in zip(v, star[j])]
        for j in range(k - 1, -1, -1):
            q = int(mp.nint(mu_k[j]))
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu_k[j] -= q
                for i in range(j):
                    mu_k[i] -= q * mu[j][i]
        if _vec_norm(b[k]) <= drop:
            del b[k]
            continue
        star[k:], norms[k:], mu[k:] = [v], [_dot(v, v)], [mu_k]
        if k == 0 or norms[k] >= (delta - mu_k[k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            k -= 1
    return b, star, norms


def _babai(lattice, target):
    """Nearest-plane reduction against the lattice's basis, with the squared
    Gram-Schmidt lengths it keeps; returns (residual, integer coefficients)."""
    basis, star = lattice.basis, lattice.star
    t = list(target)
    coeffs = [0] * len(basis)
    for i in range(len(basis) - 1, -1, -1):
        bi2 = lattice.norms[i]
        if bi2 == 0:
            continue
        c = int(mp.nint(_dot(t, star[i]) / bi2))
        if c != 0:
            t = [t[k] - c * basis[i][k] for k in range(len(t))]
        coeffs[i] = c
    return t, coeffs


class RegulatorLattice(Record):
    """LLL-reduced lattice of unit-log images in quotient coordinates.

    star holds the Gram-Schmidt vectors of basis and norms their squared
    lengths, both as _lll left them at digits + GUARD.  The unit images are
    not kept: build_lattice reads them only to check that the basis absorbs
    each one.
    """

    __slots__ = _fields = ("field", "basis", "star", "tol", "norms")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def basis_form(self, i: int) -> FormElement:
        return FormElement(0, self.basis[i], self.field.digits)


def build_lattice(field: NumberField, units) -> RegulatorLattice:
    """Lattice generated by the unit-log images of the given units.

    One LLL pass over all the images: torsion units map to (near) zero and
    are dropped up front, and each dependence among the images shows as a
    vector that size reduction collapses, which is dropped where it stands.
    Raises ValidationError when the rank exceeds the unit-group rank, and
    NoConvergence when the pass exceeds its step cap or the basis fails to
    absorb a unit image.
    """
    images = [unit_log(field, u) for u in units]
    with mp.workdps(field.digits + GUARD):
        basis, star, norms = _lll([f.values for f in images], rank_cutoff(field.digits))
        if len(basis) > dirichlet_rank(field):
            raise ValidationError("lattice rank exceeds the unit-group rank")
        tol = torus_tolerance(field.digits)
        basis, star = tuple(map(tuple, basis)), tuple(map(tuple, star))
        lat = RegulatorLattice(field, basis, star, tol, tuple(norms))
        for f in images:
            red, _ = _babai(lat, f.values)
            if _vec_norm(red) > tol:
                raise NoConvergence("reduced basis fails to absorb a unit image")
        return lat


class TorusElement(Record):
    """Residue of a degree-1 vector modulo the regulator lattice; two residues
    are equal only as the same object (same_as compares them on the torus)."""

    __slots__ = _fields = ("lattice", "values")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def norm(self):
        with mp.workdps(self.lattice.field.digits + GUARD):
            return _vec_norm(self.values)

    def is_zero(self) -> bool:
        return self.norm() < self.lattice.tol

    def add(self, other: "TorusElement") -> "TorusElement":
        with mp.workdps(self.lattice.field.digits + GUARD):
            s = [a + b for a, b in zip(self.values, other.values)]
            red, _ = _babai(self.lattice, s)
            return TorusElement(self.lattice, tuple(red))

    def neg(self) -> "TorusElement":
        with mp.workdps(self.lattice.field.digits + GUARD):
            s = [-a for a in self.values]
            red, _ = _babai(self.lattice, s)
            return TorusElement(self.lattice, tuple(red))

    def same_as(self, other: "TorusElement") -> bool:
        return self.add(other.neg()).is_zero()

    def as_form(self) -> FormElement:
        return FormElement(0, self.values, self.lattice.field.digits)


def reduce_mod_lattice(lattice: RegulatorLattice, f: FormElement):
    """Babai-reduce a degree-1 vector; returns (torus element, is_zero).

    The basis and the vector carry digits + GUARD digits, and reducing a
    vector of size 10^m against a lattice of rank >= 1 cancels about m of
    them: a vector with a coefficient above 10^GUARD would leave fewer
    correct digits than the field's, so it raises NoConvergence (more
    digits might help).  A lattice of rank 0 reduces nothing.
    """
    if f.degree_index != 0:
        raise ValidationError("only degree-1 vectors reduce against the lattice")
    with mp.workdps(lattice.field.digits + GUARD):
        if lattice.basis and any(abs(v) > _REDUCE_MAX for v in f.values):
            raise NoConvergence(
                f"a coefficient above 10^{GUARD} cancels more digits than the lattice "
                "carries beyond the working precision"
            )
        red, _ = _babai(lattice, f.values)
        t = TorusElement(lattice, tuple(red))
        return t, t.is_zero()


def _reduce_cls(orders, cls) -> tuple:
    vec = list(_integers(cls, "class exponents must be integers"))
    if len(vec) > len(orders):
        raise ValidationError("class vector longer than the list of orders")
    vec += [0] * (len(orders) - len(vec))
    return tuple(c % m for c, m in zip(vec, orders))


class PointClass(Record):
    """(rank, class-group exponents, torus element), added componentwise;
    equal only as the same object, like its torus element."""

    __slots__ = _fields = ("rank", "cls", "torus")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def same_as(self, other: "PointClass") -> bool:
        return (
            self.rank == other.rank
            and self.cls == other.cls
            and self.torus.same_as(other.torus)
        )

    def is_zero(self) -> bool:
        return self.rank == 0 and all(c == 0 for c in self.cls) and self.torus.is_zero()


def zero_torus(lattice: RegulatorLattice) -> TorusElement:
    return TorusElement(lattice, tuple(mpf(0) for _ in range(lattice.field.n_places)))


def zero_class(lattice: RegulatorLattice) -> PointClass:
    orders = lattice.field.class_orders
    return PointClass(0, _reduce_cls(orders, ()), zero_torus(lattice))


def one_class(lattice: RegulatorLattice) -> PointClass:
    """The class of the free rank-1 module with its canonical metric."""
    orders = lattice.field.class_orders
    return PointClass(1, _reduce_cls(orders, ()), zero_torus(lattice))


def point_class(lattice: RegulatorLattice, rank: int, cls, f: FormElement) -> PointClass:
    """The class (rank, cls, f mod the lattice).  rank and cls are read
    before f is reduced, so an integer that is not one is refused
    (ValidationError) before a reduction that more digits might mend."""
    (rank,) = _integers([rank], "the rank of a point class must be an integer")
    cls = _reduce_cls(lattice.field.class_orders, cls)
    t, _ = reduce_mod_lattice(lattice, f)
    return PointClass(rank, cls, t)


def class_add(x: PointClass, y: PointClass) -> PointClass:
    if x.torus.lattice != y.torus.lattice:
        raise ValidationError("the classes belong to different regulator lattices")
    orders = x.torus.lattice.field.class_orders
    cls = _reduce_cls(orders, (a + b for a, b in zip(x.cls, y.cls)))
    return PointClass(x.rank + y.rank, cls, x.torus.add(y.torus))


def class_neg(x: PointClass) -> PointClass:
    orders = x.torus.lattice.field.class_orders
    return PointClass(-x.rank, _reduce_cls(orders, (-c for c in x.cls)), x.torus.neg())


def a_map(lattice: RegulatorLattice, f: FormElement) -> PointClass:
    """The flat insertion: the point_class of rank 0 and trivial class of f."""
    return point_class(lattice, 0, (), f)


def _positive_pivot(x) -> bool:
    """gram_ldl's live test for _bareiss: a pivot must be positive."""
    if x <= 0:
        raise NotPositiveDefinite("Cholesky pivot is not positive")
    return True


def gram_ldl(rows, digits: int):
    """The exact LDL^H of a Hermitian positive-definite Gram G; every Gram
    regtor factors goes through here.

    Each entry is read exactly (numfield.to_exact).  G must be square, and
    Hermitian within rank_cutoff(digits) relative to its largest entry,
    decided exactly: |g_ij - conj(g_ji)|^2 10^digits <= max |g|^2, the
    scale taken only once some pair differs.  Its lower triangle and the
    real part of its diagonal then define it.  Over one common denominator
    den, den G is an integer matrix when G is real; otherwise its real 2n
    by 2n image, each entry a + bi the block [[a, -b], [b, a]], is, and the
    LDL^T of the image is the image of the LDL^H of G.  One numfield._bareiss of that matrix beside the identity,
    with no pivoting, leaves in row k the k-th leading minor p_k, the
    entries of D L^H times p_{k-1} and beside them those of L^-1 times
    p_{k-1}.  _bareiss scans for a pivot from (k, k), so the first entry
    its live test meets at step k is the pivot p_k: a test that refuses
    each p_k <= 0 decides positivity by Sylvester's criterion as the
    pivots come, every D_k = p_k / (den p_{k-1}) > 0, and lets no swap
    happen.  Returns (det G, factor): det G = prod D_k is an exact
    Fraction, and factor, immutable so that a complex over R keeping it
    still hashes, is what _cholesky_pair reads.  Raises
    NotPositiveDefinite on a Gram that is not Hermitian or not positive
    definite.
    """
    n = len(rows)
    with mp.workdps(digits + GUARD):
        a = [[to_exact(x) for x in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValidationError("Gram matrix must be square")
    scale2 = None
    for i in range(n):
        for j in range(i + 1):
            (p, q), (r, s) = a[i][j], a[j][i]
            if p != r or q != -s:
                if scale2 is None:
                    scale2 = max(re * re + im * im for row in a for re, im in row)
                if ((p - r) ** 2 + (q + s) ** 2) * 10**digits > scale2:
                    raise NotPositiveDefinite("Gram matrix is not Hermitian")
    herm = [
        [a[i][j] if j < i else (a[i][i][0], _ZERO) if j == i else (a[j][i][0], -a[j][i][1])
         for j in range(n)]
        for i in range(n)
    ]
    den = lcm(*(c.denominator for row in herm for z in row for c in z))
    ints = [[[c.numerator * (den // c.denominator) for c in z] for z in row] for row in herm]
    step = 2 if any(im for row in ints for _, im in row) else 1
    size = step * n
    m = []
    for row in ints:
        if step == 1:
            m.append([re for re, _ in row])
        else:
            m.append([x for re, im in row for x in (re, -im)])
            m.append([x for re, im in row for x in (im, re)])
    for r, row in enumerate(m):
        row.extend(int(r == c) for c in range(size))
    _bareiss(m, _positive_pivot, width=size)
    last = m[-1][size - 1] if m else 1
    det = Fraction(last if step == 1 else isqrt(last), den**n)
    return det, (den, step, tuple(map(tuple, m)))


def _cholesky_pair(factor):
    """(U, U^-1) at the working precision for the upper Cholesky factor
    U = D^(1/2) L^H of gram_ldl's exact factor.

    With s_k = 1 / sqrt(den p_k p_{k-1}), one square root per pivot, row k
    of U is row k of the elimination times s_k, and column k of U^-1, which
    is L^-H D^(-1/2), the conjugate of its row k beside the identity times
    den s_k.  The radicand is an integer, and numfield.sqrt takes its
    math.isqrt: where it is a perfect square, as every one of an identity
    or a diagonal Gram of squares is, the root is exact and s_k is one
    numfield.quotient of 1 by it, where mp.sqrt, on mpmath's pure-Python
    backend, sheds the trailing zero bits of an exact root a byte at a time
    (96 us for the root of 9 at 1010 digits).  For a complex Gram the rows
    of the real image at 2k carry the real parts and the negated imaginary
    parts of U, in alternate columns.  Each part of an entry is its exact integer times s_k (or
    den s_k), rounded once, as a real entry is.
    """
    den, step, m = factor
    size = len(m)
    n = size // step
    up, inv = mp.matrix(n, n), mp.matrix(n, n)
    prev = 1
    for k in range(n):
        row = m[step * k]
        s = quotient(1, sqrt(den * row[step * k] * prev))
        t = den * s
        for j in range(k, n):
            up[k, j] = row[j] * s if step == 1 else mpc(row[2 * j] * s, -row[2 * j + 1] * s)
        for j in range(k + 1):
            c = size + step * j
            inv[j, k] = row[c] * t if step == 1 else mpc(row[c] * t, row[c + 1] * t)
        prev = m[step * k + step - 1][step * k + step - 1]
    return up, inv


def hermitian_cholesky(rows, digits: int):
    """Lower Cholesky factor L D^(1/2) (G = L D L^H) of a Hermitian
    positive-definite G, from its exact gram_ldl.

    Returns an mp.matrix at digits + GUARD.  Raises NotPositiveDefinite
    when a pivot is not positive or the matrix is not Hermitian within
    rank_cutoff(digits) relative to its largest entry, both decided
    exactly.
    """
    with mp.workdps(digits + GUARD):
        return _cholesky_pair(gram_ldl(rows, digits)[1])[0].H


def lndet_hermitian(rows, digits: int):
    """ln det of a Hermitian positive-definite matrix: one logarithm of the
    exact determinant that gram_ldl gives, rounded once."""
    with mp.workdps(digits + GUARD):
        return ln(to_mp(gram_ldl(rows, digits)[0]))


def cycl_free(field: NumberField, lattice: RegulatorLattice, grams) -> PointClass:
    """Class of a metrized free module from one Gram matrix per representative.

    The torus part carries coefficient (1/4) ln det G_sigma at each sigma,
    projected to quotient coordinates; the rank is the common matrix size.
    """
    grams = list(grams)
    if len(grams) != field.n_places:
        raise ValidationError("expected one Gram matrix per place representative")
    sizes = {len(g) for g in grams}
    if len(sizes) > 1:
        raise ValidationError("Gram matrices must share a single size")
    n = sizes.pop()
    return _cycl_from_lndets(
        field, lattice, n, [lndet_hermitian(g, field.digits) for g in grams]
    )


def _cycl_from_lndets(field: NumberField, lattice: RegulatorLattice, rank, lndets) -> PointClass:
    """cycl_free of a module of the given rank from ln det G_sigma per representative."""
    _check_field(field, lattice.field, "the regulator lattice")
    with mp.workdps(field.digits + GUARD):
        vals = [ld / 4 for ld in lndets]
    return point_class(lattice, rank, (), make_form(field, 0, vals))


def scale_class(lattice: RegulatorLattice, x: PointClass, lambdas) -> PointClass:
    """x + a((1/2) sum of ln lambda_sigma b_1(sigma)) for positive scalars."""
    field = lattice.field
    lam = list(lambdas)
    if len(lam) != field.n_places:
        raise ValidationError("expected one scaling factor per place representative")
    with mp.workdps(field.digits + GUARD):
        vals = []
        for v in lam:
            s = to_mp(v)
            if not (mp.im(s) == 0 and mp.re(s) > 0):
                raise ValidationError("scaling factors must be positive reals")
            vals.append(ln(mp.re(s)) / 2)
    return class_add(x, a_map(lattice, make_form(field, 0, vals)))
