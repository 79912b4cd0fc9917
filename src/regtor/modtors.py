"""Torsion presentations over R and their secondary class.

A finite torsion module T enters through a square presentation
0 -> R^m --M--> R^m -> T -> 0 with injective M: det M nonzero at every
place.  The class depends on M only through its determinant: it is the flat
insertion of -(1/2) sum over Sigma* of ln|sigma(det M)| b_1(sigma).

Both exact answers are numfield's: exact_det, the Kronecker-substituted
determinant with no floating point before the final embedding, and
nonzero_places, which decides det M at every place in K.
"""

from __future__ import annotations

from mpmath import mp

from .errors import NotAUnit, SingularPresentation, ValidationError
from .flatmodel import PointClass, RegulatorLattice, a_map, make_form
from .numfield import (
    GUARD,
    NumberField,
    Record,
    _check_field,
    embed,
    exact_det,
    ln,
    nonzero_places,
    verify_unit,
)

# Largest presentation size m.  A dense 12 x 12 presentation over Z[zeta_61]
# with entries in [-9, 9] costs about 2 s at 50 digits, nearly all of it
# exact_det (over Phi_61 a determinant that is not 0 in K needs no norm), on
# one core of a 2-core x86 machine with mpmath's pure-Python backend;
# 16 x 16 costs about 14 s, most of it in the big-integer divisions of the
# elimination.
PRESENTATION_SIZE_MAX = 12


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
    if not all(nonzero_places(field, det)):
        raise SingularPresentation("presentation map is not injective")
    return TorsionPresentation(field=field, size=m, entries=ents, det_elem=det)


def zhat(field: NumberField, lattice: RegulatorLattice, pres: TorsionPresentation) -> PointClass:
    """Secondary class of the torsion module presented by pres.

    The torus part is -(1/2) sum over Sigma* of ln|sigma(det)| b_1(sigma);
    rank and class-group components vanish.  The lattice and the
    presentation must both belong to field.
    """
    _check_field(field, lattice.field, "the regulator lattice")
    _check_field(field, pres.field, "the torsion presentation")
    with mp.workdps(field.digits + GUARD):
        vals = [
            -ln(abs(embed(field, pres.det_elem, k))) / 2
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
    The presentation must belong to field.
    """
    _check_field(field, pres.field, "the torsion presentation")
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
