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

A Gram determinant is kept as the determinant (prod of the Cholesky
diagonal)^2, and a logarithm is taken only where a coefficient vector needs
one: lndet_hermitian takes one per Gram, and callers that combine several
determinants multiply them first.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpc, mpf

from .errors import NoConvergence, NotAUnit, NotPositiveDefinite, ValidationError
from .numfield import (
    GUARD,
    FieldElement,
    NumberField,
    Record,
    embed,
    parse_rational,
    rank_cutoff,
    torus_tolerance,
    verify_unit,
)

_LLL_STEP_CAP = 50_000


def to_mp(x):
    """Exact-aware scalar conversion at the current working precision.

    Raises ValidationError on anything that is not a number, a decimal or
    "p/q" string, or an [re, im] pair of those.
    """
    if isinstance(x, (tuple, list)):
        if len(x) != 2:
            raise ValidationError("complex entries must be [re, im] pairs")
        return mpc(to_mp(x[0]), to_mp(x[1]))
    try:
        q = parse_rational(x) if isinstance(x, str) and "/" in x else x
        if isinstance(q, Fraction):
            return mpf(q.numerator) / q.denominator
        return mp.mpmathify(q)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a number: {x!r}") from exc


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
            return mp.sqrt(mp.fsum(a * a for a in self.values))

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

    def to_dict(self, dps: int = 30) -> dict:
        return {
            "degree": self.degree,
            "coeffs": {
                f"sigma_{k}": mp.nstr(v, dps) for k, v in enumerate(self.values)
            },
        }


def make_form(field: NumberField, degree_index: int, values) -> FormElement:
    """Build a coefficient vector, applying the parity and quotient rules."""
    if degree_index < 0:
        raise ValidationError("degree index must be non-negative")
    with mp.workdps(field.digits + GUARD):
        vals = [to_mp(v) for v in values]
        if len(vals) != field.n_places:
            raise ValidationError("expected one coefficient per place representative")
        if degree_index % 2 == 1:
            vals = [mpf(0) if k < field.r_real else v for k, v in enumerate(vals)]
        if degree_index == 0:
            mean = mp.fsum(vals) / len(vals)
            vals = [v - mean for v in vals]
        return FormElement(degree_index, tuple(vals), field.digits)


def zero_form(field: NumberField, degree_index: int = 0) -> FormElement:
    return FormElement(degree_index, tuple(mpf(0) for _ in range(field.n_places)), field.digits)


def unit_log(field: NumberField, unit: FieldElement) -> FormElement:
    """The degree-1 vector with coefficient (1/2) ln|sigma(u)| at each sigma."""
    if not verify_unit(field, unit):
        raise NotAUnit(f"not a power-basis unit: {unit}")
    with mp.workdps(field.digits + GUARD):
        vals = [
            mp.log(abs(embed(field, unit, k))) / 2 for k in range(field.n_places)
        ]
    return make_form(field, 0, vals)


def _dot(u, v):
    return mp.fsum(a * b for a, b in zip(u, v))


def _vec_norm(v):
    return mp.sqrt(_dot(v, v))


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
    lengths, both as _lll left them at digits + GUARD.
    """

    __slots__ = _fields = ("field", "unit_images", "basis", "star", "tol", "norms")

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
        if len(basis) > field.r_real + field.r_complex - 1:
            raise ValidationError("lattice rank exceeds the unit-group rank")
        tol = torus_tolerance(field.digits)
        basis, star = tuple(map(tuple, basis)), tuple(map(tuple, star))
        lat = RegulatorLattice(field, tuple(images), basis, star, tol, tuple(norms))
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

    def to_dict(self, dps: int = 30) -> dict:
        return {f"sigma_{k}": mp.nstr(v, dps) for k, v in enumerate(self.values)}


def reduce_mod_lattice(lattice: RegulatorLattice, f: FormElement):
    """Babai-reduce a degree-1 vector; returns (torus element, is_zero)."""
    if f.degree_index != 0:
        raise ValidationError("only degree-1 vectors reduce against the lattice")
    with mp.workdps(lattice.field.digits + GUARD):
        red, _ = _babai(lattice, f.values)
        t = TorusElement(lattice, tuple(red))
        return t, t.is_zero()


def _reduce_cls(orders, cls) -> tuple:
    vec = list(int(c) for c in cls)
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

    def to_dict(self, dps: int = 30) -> dict:
        return {
            "rank": self.rank,
            "cls": list(self.cls),
            "torus": self.torus.to_dict(dps),
        }


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
    t, _ = reduce_mod_lattice(lattice, f)
    return PointClass(int(rank), _reduce_cls(lattice.field.class_orders, cls), t)


def class_add(x: PointClass, y: PointClass) -> PointClass:
    orders = x.torus.lattice.field.class_orders
    cls = _reduce_cls(orders, (a + b for a, b in zip(x.cls, y.cls)))
    return PointClass(x.rank + y.rank, cls, x.torus.add(y.torus))


def class_neg(x: PointClass) -> PointClass:
    orders = x.torus.lattice.field.class_orders
    return PointClass(-x.rank, _reduce_cls(orders, (-c for c in x.cls)), x.torus.neg())


def a_map(lattice: RegulatorLattice, f: FormElement) -> PointClass:
    """The flat insertion: rank 0, trivial class, f modulo the lattice."""
    t, _ = reduce_mod_lattice(lattice, f)
    return PointClass(0, _reduce_cls(lattice.field.class_orders, ()), t)


def hermitian_cholesky(rows, digits: int):
    """Lower Cholesky factor L (G = L L^*) of a Hermitian positive-definite G.

    Returns an mp.matrix.  Raises NotPositiveDefinite when a pivot is not
    positive or the matrix is not Hermitian within rank_cutoff(digits)
    relative to its largest entry.
    """
    n = len(rows)
    with mp.workdps(digits + GUARD):
        a = [[to_mp(x) for x in row] for row in rows]
        if any(len(row) != n for row in a):
            raise ValidationError("Gram matrix must be square")
        scale = max((abs(x) for row in a for x in row), default=mpf(0))
        herm_tol = scale * rank_cutoff(digits)
        gram = mp.matrix(n, n)
        for i in range(n):
            for j in range(i + 1):
                if abs(a[i][j] - mp.conj(a[j][i])) > herm_tol:
                    raise NotPositiveDefinite("Gram matrix is not Hermitian")
                gram[i, j] = a[i][j]
            gram[i, i] = mp.re(a[i][i])
        # mp.cholesky reads the lower triangle.  With a real diagonal and
        # tol = 0 it refuses exactly the pivots <= 0: a negative one raises
        # ValueError, a zero one ZeroDivisionError.
        try:
            return mp.cholesky(gram, tol=0)
        except (ValueError, ZeroDivisionError) as exc:
            raise NotPositiveDefinite("Cholesky pivot is not positive") from exc


def _det_of_factor(low, digits: int):
    """det L L^* = (prod_i Re L_ii)^2 for a lower Cholesky factor L.

    No logarithm: callers that combine several determinants multiply them
    and take one logarithm of the product.
    """
    with mp.workdps(digits + GUARD):
        return mp.fprod(mp.re(low[i, i]) for i in range(low.rows)) ** 2


def lndet_hermitian(rows, digits: int):
    """ln det of a Hermitian positive-definite matrix via Cholesky.

    One logarithm, of the determinant (prod of the factor's diagonal)^2.
    """
    with mp.workdps(digits + GUARD):
        return mp.log(_det_of_factor(hermitian_cholesky(rows, digits), digits))


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
    with mp.workdps(field.digits + GUARD):
        vals = [ld / 4 for ld in lndets]
    t, _ = reduce_mod_lattice(lattice, make_form(field, 0, vals))
    return PointClass(rank, _reduce_cls(field.class_orders, ()), t)


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
            vals.append(mp.log(mp.re(s)) / 2)
    return class_add(x, a_map(lattice, make_form(field, 0, vals)))
