"""Degree-wise coefficient vectors, the regulator lattice, and point classes.

Oracles: mpmath logs of closed-form unit values (ln(1 + sqrt 2), the golden
ratio), the incremental lattice reduction in support, exact determinants of
rational Grams, and the group laws themselves.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from regtor import (
    NoConvergence,
    NotAUnit,
    NotPositiveDefinite,
    ValidationError,
    a_map,
    build_field,
    build_lattice,
    class_add,
    class_neg,
    cycl_free,
    hermitian_cholesky,
    make_form,
    one_class,
    point_class,
    reduce_mod_lattice,
    scale_class,
    unit_log,
    zero_class,
    zero_form,
)
from regtor import flatmodel
from regtor.flatmodel import gram_ldl, lndet_hermitian
from support import (
    cholesky_oracle,
    cyclotomic_units,
    field_lattice,
    field_units,
    fraction_det,
    lattice_basis_oracle,
    random_pd_gram,
)

small_ints = st.integers(min_value=-4, max_value=4)


def _mpq(q):
    return mp.mpf(q.numerator) / q.denominator


def test_make_form_degree_zero_is_mean_zero():
    field, _ = field_units("zsqrt2")
    f = make_form(field, 0, ["1.5", "0.5"])
    with mp.workdps(60):
        assert abs(mp.fsum(f.values)) < mp.mpf(10) ** -55
        assert abs(f.values[0] - mp.mpf("0.5")) < mp.mpf(10) ** -45


@given(vals=st.lists(small_ints, min_size=2, max_size=2), shift=small_ints)
@settings(max_examples=30, deadline=None)
def test_quotient_coordinates_ignore_all_ones(vals, shift):
    field, _ = field_units("zsqrt2")
    f = make_form(field, 0, vals)
    g = make_form(field, 0, [v + shift for v in vals])
    with mp.workdps(60):
        assert f.sub(g).norm() < mp.mpf(10) ** -50


def test_odd_degree_index_zeroes_real_places():
    field, _ = field_units("zsqrt2")
    f = make_form(field, 1, ["1.0", "2.0"])
    assert all(v == 0 for v in f.values)
    assert f.degree == 3
    cyc, _ = field_units("zeta5")
    g = make_form(cyc, 1, ["1.0", "2.0"])
    assert any(v != 0 for v in g.values)


def test_reduced_b1_coords_differ_against_first_place():
    field, _ = field_units("zsqrt2")
    f = make_form(field, 0, ["0.25", "1.25"])
    with mp.workdps(60):
        coords = f.reduced_b1_coords()
        assert len(coords) == 1
        assert abs(coords[0] - 1) < mp.mpf(10) ** -45


def test_form_arithmetic_keeps_precision():
    field, _ = field_units("zsqrt2")
    f = unit_log(field, field.element([1, 1]))
    with mp.workdps(70):
        assert f.scale(3).sub(f.add(f).add(f)).norm() < mp.mpf(10) ** -55


@pytest.mark.parametrize(
    "case", ("add across degrees", "coordinates off degree 1", "negative degree", "reduce off degree 0")
)
def test_forms_refuse_the_wrong_degree(case):
    field, _, lattice = field_lattice("zsqrt2")
    one, three = make_form(field, 0, [1, -1]), make_form(field, 1, [0, 0])
    call, message = {
        "add across degrees": (lambda: one.add(three), "different degrees"),
        "coordinates off degree 1": (three.reduced_b1_coords, "degree 1 only"),
        "negative degree": (lambda: make_form(field, -1, [0, 0]), "non-negative"),
        "reduce off degree 0": (lambda: reduce_mod_lattice(lattice, three), "only degree-1"),
    }[case]
    with pytest.raises(ValidationError, match=message):
        call()


def test_unit_log_fundamental_value():
    field, _ = field_units("zsqrt2")
    f = unit_log(field, field.element([1, 1]))
    with mp.workdps(60):
        want = mp.log(1 + mp.sqrt(2))
        assert abs(f.reduced_b1_coords()[0] - want) < mp.mpf(10) ** -45


def test_unit_log_rejects_non_units():
    field, _ = field_units("zsqrt2")
    with pytest.raises(NotAUnit):
        unit_log(field, field.element([2]))
    with pytest.raises(NotAUnit):
        unit_log(field, field.gen())


@given(j=st.integers(min_value=-3, max_value=3), k=st.integers(min_value=-3, max_value=3))
@settings(max_examples=20, deadline=None)
def test_unit_log_is_a_homomorphism(j, k):
    field, _ = field_units("zsqrt2")
    u = field.element([1, 1])
    uinv = field.element([-1, 1])

    def power(m):
        out = field.one()
        base = u if m >= 0 else uinv
        for _ in range(abs(m)):
            out = field.mul(out, base)
        return out

    x, y = power(j), power(k)
    lhs = unit_log(field, field.mul(x, y))
    rhs = unit_log(field, x).add(unit_log(field, y))
    with mp.workdps(60):
        assert lhs.sub(rhs).norm() < mp.mpf(10) ** -45


def test_lattice_rank_and_generator():
    field, units, lat = field_lattice("zsqrt2")
    assert lat.rank == 1
    with mp.workdps(60):
        want = mp.log(1 + mp.sqrt(2))
        assert abs(abs(lat.basis_form(0).reduced_b1_coords()[0]) - want) < mp.mpf(10) ** -45


def test_lattice_golden_ratio_generator():
    field, units, lat = field_lattice("zeta5")
    assert lat.rank == 1
    with mp.workdps(60):
        want = mp.log((1 + mp.sqrt(5)) / 2)
        assert abs(abs(lat.basis_form(0).reduced_b1_coords()[0]) - want) < mp.mpf(10) ** -45


def test_lattice_with_redundant_units():
    field, _ = field_units("zsqrt2")
    u = field.element([1, 1])
    sq = field.mul(u, u)
    cube = field.mul(sq, u)
    lat = build_lattice(field, [field.element([-1]), u, sq, field.neg(cube)])
    assert lat.rank == 1
    with mp.workdps(60):
        want = mp.log(1 + mp.sqrt(2))
        assert abs(abs(lat.basis_form(0).reduced_b1_coords()[0]) - want) < mp.mpf(10) ** -45


def _printed(basis, digits):
    return [[mp.nstr(x, digits) for x in v] for v in basis]


def _covolume(basis, digits):
    with mp.workdps(digits + 20):
        gram = mp.matrix([[mp.fsum(a * b for a, b in zip(u, v)) for v in basis] for u in basis])
        return mp.sqrt(mp.det(gram))


@pytest.mark.parametrize("p, digits", [(7, 1000), (11, 50), (13, 300), (17, 50), (23, 50)])
def test_lattice_basis_matches_incremental_oracle(p, digits):
    field, units = cyclotomic_units(p, digits)
    lat = build_lattice(field, units)
    assert lat.rank == (p - 3) // 2
    assert _printed(lat.basis, digits) == _printed(lattice_basis_oracle(field, units), digits)


@pytest.mark.parametrize(
    "p, digits, seed", [(11, 50, 1), (11, 50, 2), (13, 300, 3), (13, 300, 4), (17, 50, 5), (17, 50, 6)]
)
def test_lattice_of_dependent_units_matches_oracle(p, digits, seed):
    # u_a u_b goes first, before both of its factors; u_a^2 u_b and the
    # descriptor units follow in a shuffled order
    field, units = cyclotomic_units(p, digits)
    rng = random.Random(seed)
    ua, ub = rng.sample(units[2:], 2)
    rest = [*units, field.mul(field.mul(ua, ua), ub)]
    rng.shuffle(rest)
    gens = [field.mul(ua, ub), *rest]
    lat = build_lattice(field, gens)
    want = lattice_basis_oracle(field, gens)
    assert lat.rank == len(want) == (p - 3) // 2
    got_cov, want_cov = _covolume(lat.basis, digits), _covolume(want, digits)
    with mp.workdps(digits + 20):
        assert abs(got_cov / want_cov - 1) < mp.mpf(10) ** -(digits - 5)
    for u in gens:
        _, absorbed = reduce_mod_lattice(lat, unit_log(field, u))
        assert absorbed


def test_lattice_reduction_work_is_bounded(monkeypatch):
    # one incremental LLL pass and the absorption checks make 683 inner
    # products over Z[zeta31] at 50 digits; rebuilding Gram-Schmidt after
    # every step and re-reducing the whole basis per generator made 4277
    field, units = cyclotomic_units(31, 50)
    calls = [0]
    dot = flatmodel._dot

    def counting(u, v):
        calls[0] += 1
        return dot(u, v)

    monkeypatch.setattr(flatmodel, "_dot", counting)
    assert build_lattice(field, units).rank == 14
    assert calls[0] <= 1500


def test_reduction_reuses_the_lattice_norms(monkeypatch):
    # Babai takes one inner product per basis vector and the zero test one
    # more; recomputing each squared Gram-Schmidt length made it 2 rank + 1
    field, units = cyclotomic_units(31, 50)
    lat = build_lattice(field, units)
    f = make_form(field, 0, [Fraction(k, 7) for k in range(field.n_places)])
    calls = [0]
    dot = flatmodel._dot

    def counting(u, v):
        calls[0] += 1
        return dot(u, v)

    monkeypatch.setattr(flatmodel, "_dot", counting)
    reduce_mod_lattice(lat, f)
    assert lat.rank == 14
    assert calls[0] == lat.rank + 1


def test_lattice_step_cap_raises(monkeypatch):
    monkeypatch.setattr(flatmodel, "_LLL_STEP_CAP", 3)
    field, units = cyclotomic_units(11, 50)
    with pytest.raises(NoConvergence, match="lattice reduction did not terminate"):
        build_lattice(field, units)


def test_lattice_rank_zero_field():
    field, units, lat = field_lattice("z")
    assert lat.rank == 0
    f = make_form(field, 0, ["3.7"])
    t, is_zero = reduce_mod_lattice(lat, f)
    assert is_zero  # one place: the quotient space is trivial


def test_reduce_mod_lattice_membership():
    field, units, lat = field_lattice("zsqrt2")
    member = lat.basis_form(0)
    t, is_zero = reduce_mod_lattice(lat, member)
    assert is_zero and t.is_zero()
    outside = make_form(field, 0, ["0.2", "-0.2"])
    t2, is_zero2 = reduce_mod_lattice(lat, outside)
    assert not is_zero2 and not t2.is_zero()


def test_reduce_refuses_a_vector_it_cannot_reduce():
    # the basis and the vector carry digits + GUARD digits, and reducing a
    # coefficient above 10^GUARD cancels more than GUARD of them: 1e60 gave
    # (0.25, -0.25) and 1e400 an unreduced 4.56e+338
    field, _, lat = field_lattice("zsqrt2")
    for v in ("1e400", "1e60", "10000000001"):
        f = make_form(field, 0, [v, "-" + v])
        with pytest.raises(NoConvergence, match="cancels more digits"):
            reduce_mod_lattice(lat, f)
        with pytest.raises(NoConvergence, match="cancels more digits"):
            point_class(lat, 0, (), f)
    # up to 10^GUARD the reduction keeps the field's digits
    t, _ = reduce_mod_lattice(lat, make_form(field, 0, ["1e10", "-1e10"]))
    wide_field, _, wide = field_lattice("zsqrt2", 100)
    w, _ = reduce_mod_lattice(wide, make_form(wide_field, 0, ["1e10", "-1e10"]))
    with mp.workdps(110):
        assert abs(t.values[0] - w.values[0]) < mp.mpf(10) ** -48
    # a lattice of rank 0 reduces nothing, so it cancels nothing
    f = make_form(field, 0, ["1e60", "-1e60"])
    t, _ = reduce_mod_lattice(build_lattice(field, []), f)
    assert t.values == f.values


@pytest.mark.parametrize(
    "rank, cls", [("x", ()), (1.5, ()), (1, ("x",)), (1, (0.5,))],
    ids=["rank-text", "rank-half", "cls-text", "cls-half"],
)
def test_point_class_reads_its_integers_before_it_reduces(rank, cls):
    # no digits mend a rank or a class exponent that is no integer, so it is
    # refused (exit 2) before a form that cannot be reduced (exit 3) is tried
    field, _, lat = field_lattice("zsqrt2")
    f = make_form(field, 0, ["1e60", "-1e60"])
    with pytest.raises(ValidationError, match="integer"):
        point_class(lat, rank, cls, f)


@given(n=st.integers(min_value=-3, max_value=3), eps=small_ints)
@settings(max_examples=20, deadline=None)
def test_reduce_is_shift_invariant(n, eps):
    field, units, lat = field_lattice("zsqrt2")
    f = make_form(field, 0, ["0.31", "-0.31"])
    shifted = f.add(lat.basis_form(0).scale(n))
    t1, _ = reduce_mod_lattice(lat, f)
    t2, _ = reduce_mod_lattice(lat, shifted)
    assert t1.same_as(t2)


def test_torus_group_laws():
    field, units, lat = field_lattice("zsqrt2")
    f = make_form(field, 0, ["0.3", "-0.3"])
    t, _ = reduce_mod_lattice(lat, f)
    assert t.add(t.neg()).is_zero()
    assert t.same_as(t)


def test_a_map_kernel_is_the_lattice():
    field, units, lat = field_lattice("zsqrt2")
    assert a_map(lat, lat.basis_form(0)).is_zero()
    assert a_map(lat, zero_form(field)).is_zero()
    x = a_map(lat, make_form(field, 0, ["0.1454", "-0.1454"]))
    assert not x.is_zero()


def test_point_class_bookkeeping():
    field, units = field_units("zsqrt2")
    import regtor

    data = {
        "poly": [-2, 0, 1],
        "digits": 50,
        "units": [["-1"], ["1", "1"]],
        "class_group": {"orders": [2, 3]},
    }
    cfield, cunits = regtor.parse_descriptor(data)
    lat = build_lattice(cfield, cunits)
    x = point_class(lat, 2, (3, 5), zero_form(cfield))
    assert x.cls == (1, 2)
    y = class_add(x, x)
    assert y.rank == 4 and y.cls == (0, 1)
    z = class_add(x, class_neg(x))
    assert z.is_zero()


def test_one_class_and_zero_class():
    field, units, lat = field_lattice("zsqrt2")
    one = one_class(lat)
    assert one.rank == 1 and not one.is_zero()
    assert class_add(one, class_neg(one)).same_as(zero_class(lat))


def test_hermitian_cholesky_reconstructs():
    rng = random.Random(5)
    with mp.workdps(60):
        for complex_entries in (False, True):
            g = random_pd_gram(rng, 3, complex_entries)
            low = hermitian_cholesky(g, 50)
            n = 3
            for i in range(n):
                for j in range(n):
                    got = mp.fsum(low[i, k] * mp.conj(low[j, k]) for k in range(n))
                    want = (
                        mp.mpc(_mpq(g[i][j][0]), _mpq(g[i][j][1]))
                        if complex_entries
                        else _mpq(g[i][j])
                    )
                    assert abs(got - want) < mp.mpf(10) ** -45
    # an mp.matrix for every size, the 0 x 0 Gram's included
    for g in ([], [[4]]):
        low = hermitian_cholesky(g, 50)
        assert isinstance(low, mp.matrix) and (low.rows, low.cols) == (len(g), len(g))


def test_hermitian_cholesky_rejects_bad_input():
    # a negative pivot, a zero one
    for bad in ([[1, 0], [0, -1]], [[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0]]):
        with pytest.raises(NotPositiveDefinite, match="Cholesky pivot is not positive"):
            hermitian_cholesky(bad, 50)
    for bad in ([[1, 2], [3, 1]], [[[1, 1]]], [[1, [0, 1]], [[0, 1], 1]]):
        with pytest.raises(NotPositiveDefinite, match="Gram matrix is not Hermitian"):
            hermitian_cholesky(bad, 50)
    with pytest.raises(ValidationError, match="Gram matrix must be square"):
        hermitian_cholesky([[1, 0]], 50)


def test_hermitian_cholesky_has_no_absolute_floor():
    # Grams of tiny scale are positive definite, and a diagonal off the real
    # axis within the Hermitian tolerance is accepted
    for e in (40, 80):
        tiny = Fraction(1, 10**e)
        low = hermitian_cholesky([[tiny, tiny / 2], [tiny / 2, tiny]], 50)
        with mp.workdps(60):
            assert abs(low[0, 0] / mp.sqrt(mp.mpf(10) ** -e) - 1) < mp.mpf(10) ** -50
    assert hermitian_cholesky([[[1, "1e-70"]]], 50)[0, 0] == 1


def test_hermitian_test_scales_with_the_matrix():
    # the upper triangle is 10 % of the scale away from the lower one; a
    # tolerance with an absolute floor of rank_cutoff would let it pass
    tiny = Fraction(1, 10**40)
    with pytest.raises(NotPositiveDefinite, match="Gram matrix is not Hermitian"):
        hermitian_cholesky([[tiny, tiny / 10], [0, tiny]], 50)
    # the zero matrix is exactly Hermitian, and its zero pivot is refused
    with pytest.raises(NotPositiveDefinite, match="Cholesky pivot is not positive"):
        hermitian_cholesky([[0, 0], [0, 0]], 50)


def test_hermitian_tolerance_is_decided_exactly():
    # |g_10 - conj(g_01)|^2 10^digits against max |g|^2 = 1: the boundary
    # itself is accepted, and 10^-40 of it further is refused
    edge = Fraction(1, 10**25)
    low = hermitian_cholesky([[1, 0], [edge, 1]], 50)
    with mp.workdps(60):
        assert abs(low[1, 0] - mp.mpf(10) ** -25) < mp.mpf(10) ** -85
    with pytest.raises(NotPositiveDefinite, match="Gram matrix is not Hermitian"):
        hermitian_cholesky([[1, 0], [edge * (1 + Fraction(1, 10**40)), 1]], 50)
    # the same as the imaginary part of a diagonal entry
    assert hermitian_cholesky([[[1, edge / 2]]], 50)[0, 0] == 1
    with pytest.raises(NotPositiveDefinite, match="Gram matrix is not Hermitian"):
        hermitian_cholesky([[[1, edge]]], 50)


def test_gram_ldl_is_exact():
    # det G is a Fraction: 2 * 3 - 1, and 2 * 3 - |1 + i|^2 for the Hermitian G
    assert gram_ldl([[2, 1], [1, 3]], 50)[0] == 5
    assert gram_ldl([[2, [1, 1]], [[1, -1], 3]], 50)[0] == 4
    assert gram_ldl([[2, mp.mpc(1, 1)], [mp.mpc(1, -1), 3]], 50)[0] == 4
    assert gram_ldl([[2, mp.mpf(-1.5)], [mp.mpf(-1.5), 3]], 50)[0] == Fraction(15, 4)
    assert gram_ldl([], 50)[0] == 1
    # an mpf entry is the dyadic rational it is, not the rational it rounds
    with mp.workdps(30):
        third = mp.mpf(1) / 3
    man, exp = third.man_exp
    det = gram_ldl([[third, 0], [0, "1/3"]], 50)[0]
    assert det == Fraction(man, 2**-exp) / 3 and isinstance(det, Fraction)
    assert Fraction(man, 2**-exp) != Fraction(1, 3)
    # a decimal string is read exactly too
    assert gram_ldl([["0.1"]], 50)[0] == Fraction(1, 10)
    with pytest.raises(ValidationError, match="not a number"):
        gram_ldl([["one"]], 50)


def test_cholesky_pair_rounds_each_complex_part_once():
    # the eliminated rows of this Gram hold integers of 70 digits and more,
    # past the 40 digits of the working precision: each part of each entry
    # of U is the exact integer times the pivot's scale, rounded once, as a
    # real entry is
    big = 10**70
    gram = [[big + 1, [big // 10 + 3, big // 100 + 7]], [[big // 10 + 3, -(big // 100 + 7)], 3 * big + 5]]
    den, step, rows = gram_ldl(gram, 30)[1]
    assert step == 2 and max(abs(x) for row in rows for x in row) > 10**40
    with mp.workdps(40):
        up = flatmodel._cholesky_upper((den, step, rows))

        def once(a, s):
            # a times the mpf s, exact, then one rounding
            man, exp = s.man_exp
            return mp.ldexp(mp.mpf(a * man), exp)

        prev = 1
        for k in range(2):
            row = rows[2 * k]
            s = 1 / mp.sqrt(den * row[2 * k] * prev)
            for j in range(k, 2):
                assert up[k][j] == mp.mpc(once(row[2 * j], s), once(-row[2 * j + 1], s))
            prev = rows[2 * k + 1][2 * k + 1]


def test_gram_ldl_refuses_huge_exponents():
    # each would otherwise scale the Gram to a denominator of ~3.3e9 bits
    for g in ([["1e-1000000000"]], [["1", "0"], ["0", "1e-1000000000"]],
              [["1e1000000000"]], [[mp.mpf("1e-1000000000")]], [["1e-100000"]]):
        with pytest.raises(ValidationError, match="exceeds the limit"):
            gram_ldl(g, 50)


@pytest.mark.parametrize("digits", (50, 300))
def test_hermitian_cholesky_matches_textbook_oracle(digits):
    rng = random.Random(digits)
    with mp.workdps(digits + 10):
        for complex_entries in (False, True):
            for n in range(9):
                g = random_pd_gram(rng, n, complex_entries)
                low = hermitian_cholesky(g, digits)
                want = cholesky_oracle(g, digits)
                assert (low.rows, low.cols) == (n, n)
                for i in range(n):
                    for j in range(n):
                        assert abs(low[i, j] - want[i][j]) < mp.mpf(10) ** -digits


def test_lndet_matches_exact_determinant():
    rng = random.Random(11)
    g = random_pd_gram(rng, 4)
    with mp.workdps(60):
        got = lndet_hermitian(g, 50)
        want = mp.log(_mpq(fraction_det(g)))
        assert abs(got - want) < mp.mpf(10) ** -45


def test_cycl_free_identity_grams_give_multiples_of_one():
    field, units, lat = field_lattice("zsqrt2")
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    x = cycl_free(field, lat, [eye, eye])
    assert x.rank == 3 and x.torus.is_zero()
    three_one = point_class(lat, 3, (), zero_form(field))
    assert x.same_as(three_one)


def test_cycl_free_rank_one_scaling_values():
    field, units, lat = field_lattice("zsqrt2")
    lam = (Fraction(4), Fraction(9, 4))
    grams = [[[lam[0] ** 2]], [[lam[1] ** 2]]]
    x = cycl_free(field, lat, grams)
    with mp.workdps(60):
        vals = [mp.log(_mpq(l)) / 2 for l in lam]
    want = a_map(lat, make_form(field, 0, vals))
    assert x.torus.same_as(want.torus)


def test_cycl_free_block_additivity():
    field, units, lat = field_lattice("zsqrt2")
    rng = random.Random(23)
    for _ in range(5):
        g1 = [random_pd_gram(rng, 2) for _ in range(2)]
        g2 = [random_pd_gram(rng, 1) for _ in range(2)]
        blocks = []
        for k in range(2):
            top = [row + [Fraction(0)] for row in g1[k]]
            bottom = [[Fraction(0), Fraction(0)] + g2[k][0]]
            blocks.append(top + bottom)
        lhs = cycl_free(field, lat, blocks)
        rhs = class_add(cycl_free(field, lat, g1), cycl_free(field, lat, g2))
        assert lhs.same_as(rhs)


def test_cycl_free_det_reduction():
    field, units, lat = field_lattice("zsqrt2")
    rng = random.Random(29)
    with mp.workdps(60):
        for _ in range(5):
            grams = [random_pd_gram(rng, 3) for _ in range(2)]
            dets = [[[fraction_det(g)]] for g in grams]
            n_one = point_class(lat, 3, (), zero_form(field))
            lhs = class_add(cycl_free(field, lat, grams), class_neg(n_one))
            rhs = class_add(cycl_free(field, lat, dets), class_neg(one_class(lat)))
            assert lhs.same_as(rhs)
            diff = class_add(lhs, class_neg(rhs))
            assert diff.torus.norm() < mp.mpf(10) ** -40


def test_cycl_free_rejects_non_pd():
    field, units, lat = field_lattice("zsqrt2")
    with pytest.raises(NotPositiveDefinite):
        cycl_free(field, lat, [[[-1]], [[1]]])


def test_scale_class_identity_and_composition():
    field, units, lat = field_lattice("zsqrt2")
    x = cycl_free(field, lat, [[[2]], [[3]]])
    same = scale_class(lat, x, [1, 1])
    assert same.same_as(x)
    lam, mu = ["2", "3"], ["5/2", "7/3"]
    left = scale_class(lat, scale_class(lat, x, lam), mu)
    prod = [Fraction(a) * Fraction(b) for a, b in zip(lam, mu)]
    right = scale_class(lat, x, prod)
    assert left.same_as(right)


def test_scaling_one_by_unit_absolute_values_is_trivial():
    field, units, lat = field_lattice("zsqrt2")
    from regtor import embed

    u = field.element([1, 1])
    with mp.workdps(60):
        lambdas = [abs(embed(field, u, k)) for k in range(field.n_places)]
    scaled = scale_class(lat, one_class(lat), lambdas)
    assert scaled.same_as(one_class(lat))


def test_scale_class_rejects_non_positive():
    field, units, lat = field_lattice("zsqrt2")
    with pytest.raises(ValidationError):
        scale_class(lat, one_class(lat), [1, -2])


def test_classes_of_different_fields_do_not_mix():
    # Q(sqrt3), with a class group of order 2, against the lattice of
    # Z[sqrt2]: both fields have two real places, so only the check tells
    # them apart
    f3 = build_field((-3, 0, 1), 30, class_orders=(2,))
    lat3 = build_lattice(f3, [f3.element([2, 1])])
    _, _, lat2 = field_lattice("zsqrt2", 30)
    with pytest.raises(ValidationError, match="lattice belongs to another field"):
        cycl_free(f3, lat2, [[[5]], [[7]]])
    x = point_class(lat3, 0, (1,), zero_form(f3))
    for add in (lambda: scale_class(lat2, x, [2, 3]), lambda: class_add(one_class(lat2), x)):
        with pytest.raises(ValidationError, match="different regulator lattices"):
            add()


def _lattices_of_other_fields():
    # Z[sqrt2], then Q(sqrt3), with as many real places, and Z[zeta7], with
    # three complex ones
    _, _, lat2 = field_lattice("zsqrt2", 30)
    f3 = build_field((-3, 0, 1), 30, class_orders=(2,))
    f7, units7 = cyclotomic_units(7, 30)
    return lat2, build_lattice(f3, [f3.element([2, 1])]), build_lattice(f7, units7)


def _residue(lat):
    n = lat.field.n_places
    return reduce_mod_lattice(lat, make_form(lat.field, 0, [k * k for k in range(n)]))[0]


def test_torus_elements_of_different_lattices_do_not_add():
    # TorusElement.add holds the one lattice check, which class_add and
    # same_as read through it: a residue of another lattice is refused,
    # not reduced against this one (Q(sqrt3)) or cut to its length
    # (Z[zeta7])
    lat2, *others = _lattices_of_other_fields()
    x = _residue(lat2)
    for lat in others:
        y = _residue(lat)
        for a, b in ((x, y), (y, x)):
            for op in (a.add, a.same_as):
                with pytest.raises(ValidationError, match="different regulator lattices"):
                    op(b)
        assert y.same_as(_residue(lat))
    assert x.add(_residue(lat2)).same_as(_residue(lat2).add(x))


def test_form_operands_of_another_length_are_refused():
    # (1, 2) + (1, 2, 3) would zip to two values, and a form of another
    # length would index past the lattice's places in the reduction
    lat2, _, lat7 = _lattices_of_other_fields()
    x = make_form(lat2.field, 0, [1, 2])
    y = make_form(lat7.field, 0, [1, 2, 3])
    for op in (lambda: x.add(y), lambda: y.add(x), lambda: x.sub(y)):
        with pytest.raises(ValidationError, match="different lengths"):
            op()
    for lat, f in ((lat2, y), (lat7, x)):
        for op in (lambda: reduce_mod_lattice(lat, f), lambda: point_class(lat, 1, (), f),
                   lambda: a_map(lat, f)):
            with pytest.raises(ValidationError, match="one coefficient per place representative"):
                op()


def test_forms_scale_by_real_numbers_only():
    # a scalar is read as make_form reads a coefficient: an imaginary part
    # that is not 0 is refused before it makes a complex coefficient, and
    # an [re, 0] pair or an mpc of imaginary part 0 reads as its real part
    lat2 = _lattices_of_other_fields()[0]
    x = make_form(lat2.field, 0, ["1/3", "2/7"])
    for c in (1j, mp.mpc(2, 1), [2, 1], ["0", "1e-40"]):
        with pytest.raises(ValidationError, match="real number only"):
            x.scale(c)
    want = x.scale(2)
    for c in (mp.mpc(2, 0), [2, 0], 2 + 0j, "2"):
        got = x.scale(c)
        assert got == want and all(type(v) is mp.mpf for v in got.values)
    assert reduce_mod_lattice(lat2, x.scale(mp.mpc(2, 0)))[0].same_as(reduce_mod_lattice(lat2, want)[0])
