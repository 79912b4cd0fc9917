"""Exact determinants over R and the secondary class of a torsion module.

A finite torsion module T enters through a square presentation
0 -> R^m --M--> R^m -> T -> 0 with injective M (norm of det nonzero).  The
class depends on M only through its determinant: it is the flat insertion of
-(1/2) sum over Sigma* of ln|sigma(det M)| b_1(sigma).

Determinants are computed by fraction-free Bareiss elimination carried out
in Q[x] representatives of the quotient ring, with numfield's polynomial kit
(exact rational arithmetic throughout); no floating point enters before the
final embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import NotAUnit, SingularPresentation, ValidationError
from .flatmodel import PointClass, RegulatorLattice, a_map, make_form
from .numfield import (
    GUARD,
    FieldElement,
    NumberField,
    embed,
    norm,
    poly_divmod,
    poly_mul,
    poly_sub,
    poly_trim,
    verify_unit,
)


def exact_det(field: NumberField, rows) -> FieldElement:
    """Exact determinant of a square matrix of ring elements.

    Entries are lifted to their degree < n representatives in Q[x], where the
    fraction-free Bareiss recurrence applies (Q[x] is an integral domain, so
    pivots are never zero divisors even when p factors); the determinant
    polynomial is reduced modulo p only at the end.
    """
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValidationError("matrix must be square")
    if m == 0:
        return field.one()
    a = [[poly_trim(list(field.element(x).coeffs)) for x in r] for r in rows]
    sign = 1
    prev = [Fraction(1)]
    for k in range(m - 1):
        piv = -1
        for i in range(k, m):
            if a[i][k]:
                piv = i
                break
        if piv < 0:
            return field.zero()
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                num = poly_sub(poly_mul(a[i][j], a[k][k]), poly_mul(a[i][k], a[k][j]))
                a[i][j], rem = poly_divmod(num, prev)
                assert not rem
            a[i][k] = []
        prev = a[k][k]
    det_poly = a[m - 1][m - 1]
    if sign < 0:
        det_poly = [-c for c in det_poly]
    return field.element(det_poly)


@dataclass(frozen=True)
class TorsionPresentation:
    """Square presentation matrix of a finite torsion module over R."""

    field: NumberField
    size: int
    entries: tuple
    det_elem: FieldElement


def presentation(field: NumberField, rows) -> TorsionPresentation:
    """Validate a square matrix of ring elements as a torsion presentation."""
    m = len(rows)
    ents = tuple(tuple(field.element(x) for x in r) for r in rows)
    if any(len(r) != m for r in ents):
        raise ValidationError("presentation matrix must be square")
    det = exact_det(field, ents)
    if norm(field, det) == 0:
        raise SingularPresentation("presentation map is not injective")
    return TorsionPresentation(field=field, size=m, entries=ents, det_elem=det)


def zhat(field: NumberField, lattice: RegulatorLattice, pres: TorsionPresentation) -> PointClass:
    """Secondary class of the torsion module presented by pres.

    The torus part is -(1/2) sum over Sigma* of ln|sigma(det)| b_1(sigma);
    rank and class-group components vanish.
    """
    with mp.workdps(field.digits + GUARD):
        vals = [
            -mp.log(abs(embed(field, pres.det_elem, k))) / 2
            for k in range(field.n_places)
        ]
    return a_map(lattice, make_form(field, 0, vals))


def zhat_wellposed(
    field: NumberField,
    lattice: RegulatorLattice,
    pres: TorsionPresentation,
    left_unit_diag,
    right_unit_diag,
) -> bool:
    """Check invariance of zhat under unit rescalings of the resolution.

    left_unit_diag and right_unit_diag are sequences of units of length
    pres.size; the modified presentation is diag(left) * M * diag(right).
    """
    left = [field.element(x) for x in left_unit_diag]
    right = [field.element(x) for x in right_unit_diag]
    if len(left) != pres.size or len(right) != pres.size:
        raise ValidationError("diagonal factors must match the presentation size")
    for u in list(left) + list(right):
        if not verify_unit(field, u):
            raise NotAUnit(f"diagonal entry is not a unit: {u}")
    rows = [
        [field.mul(left[i], field.mul(pres.entries[i][j], right[j])) for j in range(pres.size)]
        for i in range(pres.size)
    ]
    modified = presentation(field, rows)
    return zhat(field, lattice, modified).same_as(zhat(field, lattice, pres))
