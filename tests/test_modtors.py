"""Exact determinants over a number ring and secondary torsion classes.

Oracles: recursive cofactor expansion with ring operations (independent of
the Kronecker substitution and the integer elimination), multiplicativity of
the determinant, closed-form logs for the worked quadratic example, and
class-group arithmetic for additivity.
"""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from regtor import (
    NotAUnit,
    SingularPresentation,
    ValidationError,
    build_field,
    class_add,
    exact_det,
    norm,
    presentation,
    zhat,
    zhat_wellposed,
)
from regtor import modtors, numfield
from support import field_lattice, field_units, rmat_mul

small_entry = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=2)


def _cofactor_det(field, rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = field.zero()
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = field.mul(rows[0][j], _cofactor_det(field, minor))
        acc = field.add(acc, term if j % 2 == 0 else field.neg(term))
    return acc


@given(
    entries=st.lists(small_entry, min_size=4, max_size=4),
    seed=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_exact_det_matches_cofactor_expansion(entries, seed):
    field, _ = field_units("zsqrt2")
    rows = [
        [field.element(entries[0]), field.element(entries[1])],
        [field.element(entries[2]), field.element(entries[3])],
    ]
    assert exact_det(field, rows).coeffs == _cofactor_det(field, rows).coeffs


def test_exact_det_three_by_three_cyclotomic():
    field, _ = field_units("zeta5")
    rng = random.Random(3)
    for _ in range(10):
        rows = [
            [field.element([rng.randint(-2, 2) for _ in range(4)]) for _ in range(3)]
            for _ in range(3)
        ]
        assert exact_det(field, rows).coeffs == _cofactor_det(field, rows).coeffs


def _assert_cofactor(field, rows):
    assert exact_det(field, rows).coeffs == _cofactor_det(field, rows).coeffs


def test_exact_det_rational_and_huge_entries():
    field, _ = field_units("zeta5")
    rng = random.Random(5)
    for _ in range(4):
        rational = [
            [
                field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 10**12)) for _ in range(4)])
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        _assert_cofactor(field, rational)
        huge = [
            [field.element([rng.randint(-(10**30), 10**30) for _ in range(4)]) for _ in range(3)]
            for _ in range(3)
        ]
        _assert_cofactor(field, huge)


def test_exact_det_zero_row_one_by_one_and_degree_one():
    field, _ = field_units("zeta5")
    a, b = field.element([1, -2, 3]), field.element([0, 0, 0, 7])
    assert exact_det(field, [[a, b], [field.zero(), field.zero()]]).is_zero()
    assert exact_det(field, [[a]]).coeffs == a.coeffs
    assert exact_det(field, [[b]]).coeffs == b.coeffs
    assert exact_det(field, []).coeffs == field.one().coeffs
    rationals = build_field([0, 1], 50)  # Q itself: elements are constants
    rng = random.Random(1)
    for m in (1, 2, 4):
        rows = [
            [rationals.element([Fraction(rng.randint(-50, 50), rng.randint(1, 9))]) for _ in range(m)]
            for _ in range(m)
        ]
        _assert_cofactor(rationals, rows)


def test_exact_det_zeta23_three_by_three():
    field = build_field([1] * 23, 50)
    rng = random.Random(23)
    for _ in range(3):
        rows = [
            [field.element([rng.randint(-3, 3) for _ in range(22)]) for _ in range(3)]
            for _ in range(3)
        ]
        _assert_cofactor(field, rows)


def test_exact_det_coefficient_reaching_the_bound():
    # On a diagonal of single terms -c_i x^{k_i} with sum k_i < n, the
    # determinant is +-(prod c_i) x^{sum k_i}: one coefficient equals the
    # bound H = prod_i sum_j ||a_ij||_1 exactly, so B = bitlength(H) + 1 is tight.
    field = build_field([1] * 23, 50)
    for diag in ([(3, 0)], [(3, 1), (5, 2)], [(3, 1), (5, 2), (7, 0)], [(9, 4), (11, 0), (13, 5), (15, 3)]):
        m = len(diag)
        rows = [[field.zero()] * m for _ in range(m)]
        for i, (c, k) in enumerate(diag):
            rows[i][i] = field.element([0] * k + [-c])
        det = exact_det(field, rows)
        assert det.coeffs == _cofactor_det(field, rows).coeffs
        h = prod(c for c, _ in diag)
        assert det.coeffs[sum(k for _, k in diag)] == (-1) ** m * h


def test_exact_det_is_multiplicative():
    field = build_field([1] * 23, 50)
    rng = random.Random(55)
    for _ in range(2):
        a, b = (
            [[field.element([rng.randint(-2, 2) for _ in range(22)]) for _ in range(5)] for _ in range(5)]
            for _ in range(2)
        )
        lhs = exact_det(field, rmat_mul(field, a, b))
        assert lhs.coeffs == field.mul(exact_det(field, a), exact_det(field, b)).coeffs


def test_presentation_size_bound_precedes_the_determinant(monkeypatch):
    field, _ = field_units("zsqrt2")
    bound = modtors.PRESENTATION_SIZE_MAX
    two = field.element([2])
    diag = [[two if i == j else field.zero() for j in range(bound)] for i in range(bound)]
    assert presentation(field, diag).det_elem.coeffs == field.element([2**bound]).coeffs

    def refuse(*args):
        raise AssertionError("exact_det called above the size bound")

    monkeypatch.setattr(modtors, "exact_det", refuse)
    big = [[two if i == j else field.zero() for j in range(bound + 1)] for i in range(bound + 1)]
    with pytest.raises(ValidationError, match=str(bound)):
        presentation(field, big)


def test_exact_det_survives_zero_divisor_pivots():
    # x^4 - 5 x^2 + 6 = (x^2 - 2)(x^2 - 3); a^2 - 2 and a^2 - 3 multiply to 0
    field = build_field([6, 0, -5, 0, 1], 50)
    zd1 = field.element([-2, 0, 1])
    zd2 = field.element([-3, 0, 1])
    assert field.mul(zd1, zd2).is_zero()
    assert norm(field, zd1) == 0
    rows = [[zd1, zd2], [zd1, zd1]]
    want = _cofactor_det(field, rows)
    assert exact_det(field, rows).coeffs == want.coeffs
    assert want.coeffs == zd1.coeffs  # zd1 * (zd1 - zd2) = zd1


def test_presentation_rejects_singular_and_non_square():
    field, _ = field_units("zsqrt2")
    with pytest.raises(SingularPresentation):
        presentation(field, [[field.zero()]])
    with pytest.raises(ValidationError):
        presentation(field, [[field.one(), field.one()]])
    quartic = build_field([6, 0, -5, 0, 1], 50)
    with pytest.raises(SingularPresentation):
        presentation(quartic, [[quartic.element([-2, 0, 1])]])


@pytest.mark.parametrize("r", (5, 13))
def test_presentation_over_phi_r_takes_no_resultant(monkeypatch, r):
    # p = Phi_r is irreducible, so a determinant that is not 0 in K is
    # nonzero at every place: injectivity needs no norm
    field = build_field([1] * r, 50)
    calls = []
    resultant = numfield._resultant
    monkeypatch.setattr(numfield, "_resultant", lambda f, e: calls.append(1) or resultant(f, e))
    rng = random.Random(r)
    rows = [
        [field.element([rng.randint(-3, 3) for _ in range(field.degree)]) for _ in range(3)]
        for _ in range(3)
    ]
    det = presentation(field, rows).det_elem
    with pytest.raises(SingularPresentation):
        presentation(field, [rows[0], rows[1], rows[0]])
    assert calls == []
    assert norm(field, det) != 0 and len(calls) == 1


def test_zhat_worked_quadratic_example():
    field, units, lat = field_lattice("zsqrt2")
    pres = presentation(field, [[field.element([5, 1])]])
    x = zhat(field, lat, pres)
    assert x.rank == 0 and all(c == 0 for c in x.cls)
    assert not x.torus.is_zero()
    with mp.workdps(60):
        root = mp.sqrt(2)
        want = -mp.log((5 + root) / (5 - root)) / 2
        got = x.torus.as_form().reduced_b1_coords()[0]
        assert abs(got - want) < mp.mpf(10) ** -45


def test_zhat_of_unit_presentation_is_zero():
    field, units, lat = field_lattice("zsqrt2")
    for coeffs in ([1], [-1], [1, 1], [3, 2], [-1, 1]):
        pres = presentation(field, [[field.element(coeffs)]])
        assert zhat(field, lat, pres).is_zero()


def test_zhat_block_additivity():
    field, units, lat = field_lattice("zsqrt2")
    rng = random.Random(17)
    pool = [[2], [3], [5, 1], [1, 2], [3, 1]]
    for _ in range(6):
        a = field.element(rng.choice(pool))
        b = field.element(rng.choice(pool))
        pa = presentation(field, [[a]])
        pb = presentation(field, [[b]])
        pboth = presentation(
            field, [[a, field.zero()], [field.zero(), b]]
        )
        lhs = zhat(field, lat, pboth)
        rhs = class_add(zhat(field, lat, pa), zhat(field, lat, pb))
        assert lhs.same_as(rhs)


def test_zhat_depends_only_on_determinant_class():
    field, units, lat = field_lattice("zsqrt2")
    m = field.element([5, 1])
    u = field.element([1, 1])
    plain = presentation(field, [[m]])
    twisted = presentation(field, [[field.mul(field.mul(u, u), m)]])
    assert zhat(field, lat, plain).same_as(zhat(field, lat, twisted))


def test_zhat_wellposed_under_unit_diagonals():
    field, units, lat = field_lattice("zsqrt2")
    pres = presentation(
        field,
        [
            [field.element([2]), field.one()],
            [field.zero(), field.element([5, 1])],
        ],
    )
    u = field.element([1, 1])
    minus = field.element([-1])
    assert zhat_wellposed(field, lat, pres, [u, minus], [minus, u])
    with pytest.raises(NotAUnit):
        zhat_wellposed(field, lat, pres, [field.element([2]), u], [u, u])


@pytest.mark.parametrize("left, right", ((1, 2), (2, 3), (0, 2)))
def test_zhat_wellposed_refuses_diagonals_of_another_size(left, right):
    field, _, lat = field_lattice("zsqrt2")
    pres = presentation(field, [[field.element([2]), field.one()], [field.zero(), field.element([5, 1])]])
    u = field.element([1, 1])
    with pytest.raises(ValidationError, match="must match the presentation size"):
        zhat_wellposed(field, lat, pres, [u] * left, [u] * right)


def test_zhat_refuses_data_of_another_field():
    # Q(sqrt3) and Z[sqrt2] both have two real places, so only the check
    # tells them apart: unchecked, zhat read 5 + sqrt3 as 5 + sqrt2, or put
    # a Q(sqrt3) torus on the Z[sqrt2] lattice
    f2, _, lat2 = field_lattice("zsqrt2")
    f3 = build_field((-3, 0, 1), f2.digits)
    pres2 = presentation(f2, [[f2.element([5, 1])]])
    pres3 = presentation(f3, [[f3.element([5, 1])]])
    with pytest.raises(ValidationError, match="the regulator lattice belongs to another field"):
        zhat(f3, lat2, pres3)
    with pytest.raises(ValidationError, match="the torsion presentation belongs to another field"):
        zhat(f2, lat2, pres3)
    u = f2.element([1, 1])
    with pytest.raises(ValidationError, match="the torsion presentation belongs to another field"):
        zhat_wellposed(f2, lat2, pres3, [u], [u])
    assert not zhat(f2, lat2, pres2).is_zero()
