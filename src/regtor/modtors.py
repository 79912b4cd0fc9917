"""Exact determinants over R and the secondary class of a torsion module.

A finite torsion module T enters through a square presentation
0 -> R^m --M--> R^m -> T -> 0 with injective M (norm of det nonzero).  The
class depends on M only through its determinant: it is the flat insertion of
-(1/2) sum over Sigma* of ln|sigma(det M)| b_1(sigma).

Determinants are exact: exact_det substitutes x = 2^B into the integer
polynomials of the denominator-cleared matrix and runs numfield's one
fraction-free elimination kernel on the resulting integer matrix (Kronecker
substitution); no floating point enters before the final embedding.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .errors import NotAUnit, SingularPresentation, ValidationError
from .flatmodel import PointClass, RegulatorLattice, a_map, make_form
from .numfield import (
    GUARD,
    FieldElement,
    NumberField,
    Record,
    _int_bareiss_det,
    _kronecker_digits,
    _kronecker_matrix,
    embed,
    norm,
    verify_unit,
)

# Largest presentation size m.  A dense 12 x 12 presentation over Z[zeta_61]
# with entries in [-9, 9] costs about 3.4 s at 50 digits (2.1 s exact_det,
# 1.2 s the norm of its determinant) on one core of a 2-core x86 machine
# with mpmath's pure-Python backend; 16 x 16 costs 17 s and 20 x 20 75 s,
# most of it in the big-integer divisions of the elimination.
PRESENTATION_SIZE_MAX = 12


def exact_det(field: NumberField, rows) -> FieldElement:
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


class TorsionPresentation(Record):
    """Square presentation matrix of a finite torsion module over R."""

    __slots__ = _fields = ("field", "size", "entries", "det_elem")


def presentation(field: NumberField, rows) -> TorsionPresentation:
    """Validate a square matrix of ring elements, of size at most
    PRESENTATION_SIZE_MAX, as a torsion presentation."""
    m = len(rows)
    if m > PRESENTATION_SIZE_MAX:
        raise ValidationError(f"presentation size must be at most {PRESENTATION_SIZE_MAX}")
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
