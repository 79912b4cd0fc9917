"""Reidemeister torsion of metrized complexes, both computation paths.

Oracles: closed forms for two-term, contracted, and zero-differential
complexes; the basis-chase path against the Laplacian path and against the
SVD-coimage basis-chase of tests/support.py; invariance under
unitary base change, degree shift, and direct sum; and the point-level
Euler-characteristic identity on designed and randomized complexes.
"""

import inspect
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath.ctx_mp_python
import pytest
from mpmath import mp

from regtor import (
    CohomologySpec,
    MetrizedComplexAtPlace,
    NotPositiveDefinite,
    RankAmbiguous,
    ValidationError,
    at_place,
    build_complex_over_r,
    exact_torsion,
    metrized_complex_at_place,
    presentation,
    reidemeister,
    rtorsion_form,
    torsion_by_contraction,
    verify_euler_identity,
)
from regtor import build_field, flatmodel, modtors, numfield, rtorsion
from regtor.cli import main
from regtor.flatmodel import gram_ldl
from regtor.numfield import GUARD, rank_cutoff
from support import (
    as_matrix,
    euler_residual_by_classes,
    field_lattice,
    eigenvalue_rank,
    field_units,
    gram_by_matrix_product,
    place_matrices,
    random_complex_over,
    raw_value,
    torsion_by_coimage,
)

EYE1 = [[1]]
EYE2 = [[1, 0], [0, 1]]
NOH = ((), ())
Z2 = Path(__file__).parent / "data" / "zsqrt2.json"


def _both(lengths, diffs, grams, hgrams, hmaps, digits=50):
    cplx = metrized_complex_at_place(digits, lengths, diffs, grams, hgrams, hmaps)
    a = reidemeister(cplx)
    b = torsion_by_contraction(cplx)
    with mp.workdps(digits + 10):
        assert abs(a - b) / a < mp.mpf(10) ** -40
    return a


@pytest.mark.parametrize("maps, grams", (([EYE1], []), ([], [EYE1]), ([EYE1, EYE1], [EYE1])))
def test_place_data_refuses_mismatched_cohomology_counts(maps, grams):
    with pytest.raises(ValidationError, match="degree counts of the complex data disagree"):
        metrized_complex_at_place(30, [1], [], [EYE1], grams, maps)


def test_two_term_multiplication_is_inverse_modulus():
    with mp.workdps(60):
        for z in (2, 5, mp.mpc(3, 4)):
            tau = _both((1, 1), ([[z]],), (EYE1, EYE1), NOH, NOH)
            assert abs(tau - 1 / abs(mp.mpmathify(z))) < mp.mpf(10) ** -45


def test_unitary_differential_gives_one():
    with mp.workdps(60):
        c, s = mp.cos(mp.mpf("0.7")), mp.sin(mp.mpf("0.7"))
        tau = _both((2, 2), ([[c, -s], [s, c]],), (EYE2, EYE2), NOH, NOH)
        assert abs(tau - 1) < mp.mpf(10) ** -45


def test_zero_differential_volume_ratio():
    # tau = prod_i (det G_i / det H_i)^{(-1)^i / 2}
    with mp.workdps(60):
        tau = _both((1, 1), ([[0]],), ([[3]], [[5]]), (EYE1, EYE1), (EYE1, EYE1))
        assert abs(tau - mp.sqrt(mp.mpf(3) / 5)) < mp.mpf(10) ** -45
        tau2 = _both(
            (1, 1), ([[0]],), ([[3]], [[5]]), ([[7]], [[2]]), (EYE1, EYE1)
        )
        assert abs(tau2 - mp.sqrt(mp.mpf(3) / 7 / (mp.mpf(5) / 2))) < mp.mpf(10) ** -45


def test_three_term_with_top_cohomology():
    with mp.workdps(60):
        tau = _both(
            (1, 1, 1),
            ([[3]], [[0]]),
            (EYE1, EYE1, [[7]]),
            ((), (), EYE1),
            ((), (), EYE1),
        )
        assert abs(tau - mp.sqrt(7) / 3) < mp.mpf(10) ** -45


def test_representatives_may_carry_coboundary_parts():
    # (a, 0)^T embeds C in C^2; 5 f1 + f2 and f2 represent the same class
    with mp.workdps(60):
        for a in (1, 4):
            tau = _both(
                (1, 2),
                ([[a], [0]],),
                (EYE1, EYE2),
                ((), EYE1),
                ((), [[5], [1]]),
            )
            assert abs(tau - mp.mpf(1) / a) < mp.mpf(10) ** -45


def test_cyclotomic_two_term_value():
    with mp.workdps(60):
        z = 1 - mp.expj(2 * mp.pi / 5)
        tau = _both((1, 1), ([[z]],), (EYE1, EYE1), NOH, NOH)
        assert abs(tau - 1 / (2 * mp.sin(mp.pi / 5))) < mp.mpf(10) ** -45


def test_degree_shift_inverts_tau():
    with mp.workdps(60):
        tau = _both((1, 1), ([[3]],), (EYE1, EYE1), NOH, NOH)
        shifted = _both(
            (0, 1, 1),
            ([[]], [[3]]),
            ((), EYE1, EYE1),
            ((), (), ()),
            ((), (), ()),
        )
        assert abs(tau * shifted - 1) < mp.mpf(10) ** -45


def test_direct_sum_multiplies_tau():
    with mp.workdps(60):
        t1 = _both((1, 1), ([[2]],), (EYE1, EYE1), NOH, NOH)
        t2 = _both((1, 1), ([[5]],), (EYE1, EYE1), NOH, NOH)
        tsum = _both(
            (2, 2), ([[2, 0], [0, 5]],), (EYE2, EYE2), NOH, NOH
        )
        assert abs(tsum - t1 * t2) < mp.mpf(10) ** -45


def test_unitary_base_change_preserves_tau():
    with mp.workdps(60):
        z = mp.mpc(2, 1)
        base = _both((1, 1), ([[z]],), (EYE1, EYE1), NOH, NOH)
        # conjugate the one-dimensional degrees by phases
        u0 = mp.expj(mp.mpf("0.4"))
        u1 = mp.expj(mp.mpf("-1.1"))
        moved = _both((1, 1), ([[u1 * z * mp.conj(u0)]],), (EYE1, EYE1), NOH, NOH)
        assert abs(base - moved) < mp.mpf(10) ** -45


def test_acyclic_two_term_has_no_cohomology():
    # the exact kernels of 0 -> C --2--> C -> 0 are zero, so the place lists
    # no class, and a class listed in degree 1 is refused
    cplx = metrized_complex_at_place(50, (1, 1), ([[2]],), (EYE1, EYE1), NOH, NOH)
    assert tuple(spec.free_rank for spec in cplx.complex.cohomology) == (0, 0)
    with pytest.raises(ValidationError, match="degree 1 supplies 1 cohomology classes but "
                       "the kernel has dimension 0"):
        metrized_complex_at_place(50, (1, 1), ([[2]],), (EYE1, EYE1), ((), EYE1), ((), [[1]]))


def test_rejects_non_complex():
    with pytest.raises(ValidationError):
        metrized_complex_at_place(
            50, (1, 1, 1), ([[1]], [[1]]), (EYE1, EYE1, EYE1), ((), (), ()), ((), (), ())
        )


def test_rejects_non_cocycle_representatives():
    with pytest.raises(ValidationError):
        metrized_complex_at_place(
            50, (1, 1), ([[2]],), (EYE1, EYE1), (EYE1, ()), ([[1]], ())
        )


def test_rejects_representatives_without_cohomology():
    with pytest.raises(ValidationError):
        metrized_complex_at_place(
            50, (1, 1), ([[2]],), (EYE1, EYE1), ((), ()), ([[1]], ())
        )
    # and cohomology on a degree with no cochains
    with pytest.raises(ValidationError, match="degree 0 is zero but lists cohomology"):
        metrized_complex_at_place(50, (0, 1), ([[]],), ((), EYE1), (EYE1, ()), ((), ()))


def test_rejects_non_positive_gram():
    with pytest.raises(NotPositiveDefinite):
        metrized_complex_at_place(50, (1, 1), ([[2]],), ([[-1]], EYE1), NOH, NOH)


def test_each_gram_is_factored_once(monkeypatch):
    # every Gram goes through the one exact factorization, once
    seen = []

    def counting(rows, digits):
        seen.append(tuple(tuple(complex(x) for x in row) for row in rows))
        return gram_ldl(rows, digits)

    monkeypatch.setattr(rtorsion, "gram_ldl", counting)
    monkeypatch.setattr(flatmodel, "gram_ldl", counting)
    # H^0 and H^1 are both one-dimensional, so each route meets two
    # harmonic degrees
    g0, g1 = [[2, 1], [1, 3]], [[4, 1], [1, 5]]
    cplx = metrized_complex_at_place(
        50, (2, 2), ([[1, 0], [0, 0]],), (g0, g1), ([[7]], [[11]]), ([[0], [1]], [[1], [1]])
    )
    reidemeister(cplx)
    torsion_by_contraction(cplx)
    for gram in (g0, g1, [[7]], [[11]]):
        assert seen.count(tuple(tuple(complex(x) for x in row) for row in gram)) == 1
    # and nothing else: the Laplacian route reads det W_i from a QR factor of K_i
    assert len(seen) == 4


def test_gram_determinants_are_exact():
    # det G and det H are Fractions: 2 * 3 - 1 = 5, and 2 * 3 - |1 + i|^2 = 4
    # for the Hermitian Gram; with identity representatives of the whole
    # cohomology, W_i = H_i and tau = 1 on both routes
    real, herm = [[2, 1], [1, 3]], [[2, [1, 1]], [[1, -1], 3]]
    eye = [[1, 0], [0, 1]]
    cplx = metrized_complex_at_place(
        50, (2, 2), ([[0, 0], [0, 0]],), (real, herm), (real, herm), (eye, eye)
    )
    cochain, det_h = cplx.complex.factors[0]
    det_g = tuple(d for d, _ in cochain)
    assert det_g == (5, 4) and det_h == (5, 4)
    assert all(isinstance(d, Fraction) for d in det_g + det_h)
    for tau in (reidemeister(cplx), torsion_by_contraction(cplx)):
        assert abs(tau - 1) < mp.mpf(10) ** -50


@pytest.mark.parametrize("digits", (50, 300))
def test_euler_residual_is_the_laplacian_rounding(digits):
    # with exact Gram determinants the residual on the free-cohomology
    # complex is the rounding of the Laplacian tau alone, far below 10^-digits
    field, _, lat = field_lattice("zsqrt2", digits)
    res = verify_euler_identity(field, lat, _free_cohomology_complex(field))
    assert res.is_zero()
    with mp.workdps(digits + 10):
        assert all(abs(v) < mp.mpf(10) ** -(digits + 10) for v in res.torus.values)


def test_rejects_wrong_representative_count():
    # degree 0 has kernel dimension 1 but no representatives were given:
    # refused when the place is built
    with pytest.raises(ValidationError, match="degree 0 supplies 0 cohomology classes"):
        metrized_complex_at_place(50, (1, 1), ([[0]],), (EYE1, EYE1), ((), EYE1), ((), EYE1))


def test_rejects_degenerate_representatives():
    # (5, 0) lies in the image of d0: refused when the place is built
    with pytest.raises(ValidationError, match="dependent"):
        metrized_complex_at_place(
            50, (1, 2), ([[2], [0]],), (EYE1, EYE2), ((), EYE1), ((), [[5], [0]])
        )


def _ill_conditioned(small):
    # 0 -> C^2 --diag(1, small)--> C^2 -> 0 at 50 digits: the cutoffs scale
    # with the norm of the data, which the entry 1 keeps near 1
    return metrized_complex_at_place(
        50, (2, 2), ([[1, 0], [0, small]],), (EYE2, EYE2), NOH, NOH
    )


def test_ambiguous_rank_is_reported():
    # the Laplacian eigenvalue 10^-50 sits at its cutoff 10^-50 |L|_F; the
    # basis-chase reads the exact rank 2 and tau = 10^25
    cplx = _ill_conditioned(Fraction(1, 10**25))
    with pytest.raises(RankAmbiguous, match="degree 0: an eigenvalue may sit at the cutoff"):
        reidemeister(cplx)
    assert _is_ten_to(torsion_by_contraction(cplx), 25)


def test_build_complex_over_r_checks_exactly():
    field, _ = field_units("zsqrt2")
    two = field.element([2])
    with pytest.raises(ValidationError):
        build_complex_over_r(
            field,
            (1, 1, 1),
            ([[two]], [[two]]),
            [[EYE1, EYE1]] * 3,
            [CohomologySpec(0)] * 3,
        )
    with pytest.raises(ValidationError):
        build_complex_over_r(
            field, (1, 1), ([[two]],), [[EYE1]], [CohomologySpec(0)] * 2
        )
    # the count comes first: the third description names no degree
    extra = CohomologySpec(1, ((field.one(),),), ([[1]], [[1]]))
    with pytest.raises(ValidationError, match="expected one cohomology description per degree"):
        build_complex_over_r(
            field, (1, 1), ([[two]],), [[EYE1, EYE1]] * 2, [CohomologySpec(0)] * 2 + [extra]
        )


def test_build_complex_over_r_refuses_a_negative_free_rank():
    # unchecked, the free rank -1 was refused only by a Gram count or size
    # check, whose message named the Grams
    field, _ = field_units("zsqrt2")
    two = field.element([2])
    for grams in ((), ([], [])):
        specs = [CohomologySpec(-1, (), grams), CohomologySpec(0)]
        with pytest.raises(ValidationError, match="the free rank at degree 0 is negative: -1"):
            build_complex_over_r(field, (1, 1), ([[two]],), [[EYE1, EYE1]] * 2, specs)


def test_build_complex_over_r_checks_cohomology_exactly():
    field, _ = field_units("zsqrt2")
    two, one, zero = field.element([2]), field.one(), field.zero()
    grams = [[EYE1, EYE1], [EYE2, EYE2]]
    # 0 -> R --(2, 0)^T--> R^2 -> 0 has H^1 = R/(2) + R, with free part (0, 1)
    def make(reps, free_rank=1):
        free = CohomologySpec(free_rank, reps, ([[1]] * free_rank,) * 2) if free_rank else CohomologySpec(0)
        return build_complex_over_r(field, (1, 2), ([[two], [zero]],), grams, [CohomologySpec(0), free])

    assert _exact_ranks(make(((zero,), (one,)))) == ((1,), (1,))
    with pytest.raises(ValidationError, match="degree 1 supplies 0 cohomology classes "
                       "but the kernel has dimension 1"):
        make((), 0)
    with pytest.raises(ValidationError, match="degree 1 supplies 2 cohomology classes "
                       "but the kernel has dimension 1"):
        make(((zero, one), (one, zero)), 2)
    # d0 = (1, -1) has kernel R (1, 1), so (1, 2) is no cocycle
    row = [[one, field.neg(one)]]
    spec = CohomologySpec(1, ((one,), (two,)), ([[1]], [[1]]))
    with pytest.raises(ValidationError, match="a degree-0 representative is not a cocycle"):
        build_complex_over_r(field, (2, 1), (row,), [[EYE2, EYE2], [EYE1, EYE1]],
                             [spec, CohomologySpec(0)])


def test_build_complex_over_r_checks_every_place_when_built():
    # every count and shape, at every place, is refused when the complex is
    # built, not when its place is
    field, _ = field_units("zsqrt2")
    two, one, zero = field.element([2]), field.one(), field.zero()

    def acyclic(grams, top):
        # 0 -> R --2--> R -> 0, tau = 1/2 at standard metrics
        return build_complex_over_r(field, (1, 1), ([[two]],), grams, [CohomologySpec(0), top])

    with pytest.raises(ValidationError, match="cochain Gram 0 has the wrong size"):
        acyclic([[EYE1, EYE2], [EYE1, EYE1]], CohomologySpec(0))
    # free rank 0 with representatives, with or without Grams, is refused as
    # over C; Grams alone are not of the free rank
    with pytest.raises(ValidationError, match="degree 1 provides representatives but no "
                       "cohomology Gram"):
        acyclic([[EYE1, EYE1]] * 2, CohomologySpec(0, ((one,),), ([[1]], [[1]])))
    with pytest.raises(ValidationError, match="degree 1 provides representatives but no "
                       "cohomology Gram"):
        acyclic([[EYE1, EYE1]] * 2, CohomologySpec(0, ((one,),)))
    with pytest.raises(ValidationError, match="a free cohomology Gram at degree 1 is not of "
                       "its free rank"):
        acyclic([[EYE1, EYE1]] * 2, CohomologySpec(0, (), ([[1]], [[1]])))

    # 0 -> R --(2, 0)^T--> R^2 -> 0, H^1 free of rank 1 represented by (0, 1)
    def free(grams):
        return build_complex_over_r(
            field, (1, 2), ([[two], [zero]],), [[EYE1] * 2, [EYE2] * 2],
            [CohomologySpec(0), CohomologySpec(1, ((zero,), (one,)), grams)],
        )

    free(([[1]], [[3]]))
    with pytest.raises(ValidationError, match="a free cohomology Gram at degree 1 is not of "
                       "its free rank"):
        free(([[1]], EYE2))
    # each shape is checked once per complex: the count of differentials and
    # the height and width of the representatives against the free rank
    with pytest.raises(ValidationError, match="degree counts of the complex data disagree"):
        build_complex_over_r(field, (1, 1), (), [[EYE1, EYE1]] * 2, [CohomologySpec(0)] * 2)
    for reps, message in (
        (((one,),), "cohomology representatives 1 have the wrong height"),
        (((zero, zero), (one, one)), "cohomology representatives 1 disagree with the free rank"),
    ):
        with pytest.raises(ValidationError, match=message):
            build_complex_over_r(
                field, (1, 2), ([[two], [zero]],), [[EYE1] * 2, [EYE2] * 2],
                [CohomologySpec(0), CohomologySpec(1, reps, ([[1]], [[1]]))],
            )


def test_at_place_takes_no_shape_check_or_conversion(monkeypatch):
    # build_complex_over_r checked every shape, so at_place embeds each ring
    # element straight into its mp.matrix: no complex built, so no shape
    # checked, and no to_mp (which rtorsion does not import)
    field, _ = field_units("zsqrt2")
    complexes = [_free_cohomology_complex(field), *(c for _, _, c in _corpus_complexes())]
    calls = []
    monkeypatch.setattr(
        rtorsion, "build_complex_over_r",
        _counting(calls, "build_complex_over_r", rtorsion.build_complex_over_r),
    )
    with monkeypatch.context() as m:
        for mod in (numfield, flatmodel):
            m.setattr(mod, "to_mp", _counting(calls, "to_mp", mod.to_mp))
        for cplx in complexes:
            for k in range(cplx.field.n_places):
                at_place(cplx, k)
    assert calls == []
    # the same data given to metrized_complex_at_place is checked once, when
    # its one complex over Q is built, and its place converts nothing either
    metrized_complex_at_place(*_embedded(complexes[0], 0))
    assert [name for name, _ in calls] == ["build_complex_over_r"]


def test_data_of_another_field_is_refused():
    # a torsion presentation, or a complex, over Q(sqrt3) against Z[sqrt2]
    field, _ = field_units("zsqrt2")
    other = build_field((-3, 0, 1), 50)
    lat = flatmodel.build_lattice(other, [other.element([2, 1])])
    tors = presentation(other, [[other.element([2])]])
    with pytest.raises(ValidationError, match="the torsion presentation at degree 1 belongs "
                       "to another field"):
        build_complex_over_r(
            field, (1, 1), ([[field.element([2])]],), [[EYE1, EYE1]] * 2,
            [CohomologySpec(0), CohomologySpec(0, torsion=tors)],
        )
    cplx = _free_cohomology_complex(field)
    with pytest.raises(ValidationError, match="the complex belongs to another field"):
        rtorsion_form(other, cplx)
    with pytest.raises(ValidationError, match="the complex belongs to another field"):
        verify_euler_identity(other, lat, cplx)


def test_rtorsion_form_of_rational_multiplier_is_balanced():
    # |sigma(2)| is the same at both places, so the projected form vanishes
    field, _ = field_units("zsqrt2")
    cplx = build_complex_over_r(
        field,
        (1, 1),
        ([[field.element([2])]],),
        [[EYE1, EYE1], [EYE1, EYE1]],
        [
            CohomologySpec(0),
            CohomologySpec(0, torsion=presentation(field, [[field.element([2])]])),
        ],
    )
    with mp.workdps(60):
        assert rtorsion_form(field, cplx).norm() < mp.mpf(10) ** -45


def _euler_residual(field, lat, cplx):
    res = verify_euler_identity(field, lat, cplx)
    assert res.rank == 0 and all(c == 0 for c in res.cls)
    with mp.workdps(60):
        assert res.torus.norm() < mp.mpf(10) ** -40
    assert res.is_zero()


def test_euler_identity_on_designed_complexes():
    field, units, lat = field_lattice("zsqrt2")
    one = field.one()
    two = field.element([2])
    gen_plus = field.element([5, 1])

    # split exact
    _euler_residual(
        field,
        lat,
        build_complex_over_r(
            field, (1, 1), ([[one]],), [[EYE1, [[2]]], [[[3]], EYE1]],
            [CohomologySpec(0), CohomologySpec(0)],
        ),
    )
    # multiplication with torsion cokernel
    _euler_residual(
        field,
        lat,
        build_complex_over_r(
            field, (1, 1), ([[two]],), [[EYE1, EYE1], [EYE1, EYE1]],
            [
                CohomologySpec(0),
                CohomologySpec(0, torsion=presentation(field, [[two]])),
            ],
        ),
    )
    # non-rational multiplier, unbalanced places
    _euler_residual(
        field,
        lat,
        build_complex_over_r(
            field, (1, 1), ([[gen_plus]],), [[[[2]], EYE1], [EYE1, [[5]]]],
            [
                CohomologySpec(0),
                CohomologySpec(0, torsion=presentation(field, [[gen_plus]])),
            ],
        ),
    )
    # zero differential, pure metric mismatch
    _euler_residual(
        field,
        lat,
        build_complex_over_r(
            field,
            (1, 1),
            ([[field.zero()]],),
            [[[[2]], [[3]]], [[[5]], [[7]]]],
            [
                CohomologySpec(1, ((one,),), ([[1]], [[2]])),
                CohomologySpec(1, ((one,),), ([[3]], [[1]])),
            ],
        ),
    )


def test_randomized_corpus_small():
    for name, count, seed in (("zsqrt2", 12, 101), ("zeta5", 6, 202)):
        field, units, lat = field_lattice(name)
        rng = random.Random(seed)
        for _ in range(count):
            cplx = random_complex_over(field, rng)
            with mp.workdps(70):
                for k in range(field.n_places):
                    cp = at_place(cplx, k)
                    a = reidemeister(cp)
                    b = torsion_by_contraction(cp)
                    assert abs(a - b) / a < mp.mpf(10) ** -40
            _euler_residual(field, lat, cplx)


# Each place and its tau are built once per complex object.


def _free_cohomology_complex(field, torsion=None):
    # H^1 = R/(2) + R over Z[sqrt2], its free part represented by (3, 1); a
    # torsion element other than 2 misstates H^1
    torsion = field.element([2]) if torsion is None else torsion
    return build_complex_over_r(
        field,
        (1, 2),
        ([[field.element([2])], [field.zero()]],),
        [[[[2]], EYE1], [[[2, 1], [1, 3]], [[1, 0], [0, 5]]]],
        [
            CohomologySpec(0),
            CohomologySpec(
                1,
                ((field.element([3]),), (field.one(),)),
                ([[2]], [[7]]),
                torsion=presentation(field, [[torsion]]),
            ),
        ],
    )


def test_at_place_builds_each_place_afresh():
    # at_place keeps nothing: each call assembles an equal, new place
    field, _ = field_units("zsqrt2")
    cplx = _free_cohomology_complex(field)
    for k in range(field.n_places):
        a, b = at_place(cplx, k), at_place(cplx, k)
        assert a == b and a is not b
    assert at_place(cplx, 0) != at_place(cplx, 1)
    # one index per place: no negative alias of the last one
    for k in (-1, field.n_places):
        with pytest.raises(ValidationError, match="not in 0..1"):
            at_place(cplx, k)
    assert cplx == _free_cohomology_complex(field)
    assert at_place(cplx, 0) == at_place(_free_cohomology_complex(field), 0)


def test_build_factors_every_gram_once(monkeypatch):
    # build_complex_over_r factors each cochain and free cohomology Gram at
    # each place once and at_place factors none, so a Gram that is not
    # square at place 1 alone refuses the complex when it is built
    field, _ = field_units("zsqrt2")
    calls = []
    monkeypatch.setattr(rtorsion, "gram_ldl", _counting(calls, "ldl", gram_ldl))
    cplx = _free_cohomology_complex(field)
    assert len(calls) == field.n_places * (len(cplx.lengths) + 1)
    calls.clear()
    for k in range(field.n_places):
        at_place(cplx, k)
    assert calls == []
    with pytest.raises(ValidationError, match="Gram matrix must be square"):
        build_complex_over_r(
            field, (1, 1), ([[field.element([2])]],), [[EYE1, [[1, 0]]], [EYE1, EYE1]],
            [CohomologySpec(0)] * 2,
        )
    # the kept factors are immutable and the Grams kept as tuples, so a
    # complex hashes, built from tuples or from lists, with [re, im] pairs
    built = [
        build_complex_over_r(
            field, (1, 1), (((field.element([2]),),),), ((((1,),), ((3,),)),) * 2,
            [CohomologySpec(0)] * 2,
        )
        for _ in range(2)
    ]
    built.append(build_complex_over_r(
        field, (1, 1), [[[field.element([2])]]], [[[[1]], [[3]]]] * 2, [CohomologySpec(0)] * 2
    ))
    assert built[0] == built[2] and hash(built[0]) == hash(built[1]) == hash(built[2])
    pair = build_complex_over_r(
        field, (1, 1), [[[field.element([2])]]], [[[[[1, 0]]], [[3]]]] * 2, [CohomologySpec(0)] * 2
    )
    assert pair.grams[0][0] == (((1, 0),),) and hash(pair) == hash(pair)


def test_exact_readers_build_no_place(monkeypatch, capsys):
    # rtorsion_form, verify_euler_identity and the rtorsion and euler-check
    # commands read the exact tau from the complex: outside
    # build_complex_over_r they build no place, form no Cholesky factor and
    # factor no Gram
    field, _, lat = field_lattice("zsqrt2")
    cplx = _free_cohomology_complex(field)
    calls = []
    building = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if not building:
                calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    def build(*args):
        building.append(True)
        try:
            return build_complex_over_r(*args)
        finally:
            building.pop()

    monkeypatch.setattr(rtorsion, "build_complex_over_r", build)
    for mod, name in ((rtorsion, "at_place"), (rtorsion, "_cholesky_upper"),
                      (rtorsion, "gram_ldl"), (flatmodel, "_cholesky_upper"),
                      (flatmodel, "gram_ldl")):
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    free = json.dumps({
        "lengths": [1, 2],
        "diffs": [[["2"], ["0"]]],
        "grams": [[[["2"]], [["1"]]], [[["2", "1"], ["1", "3"]], [["1", "0"], ["0", "5"]]]],
        "cohomology": [{}, {"free_rank": 1, "free_reps": [["3"], ["1"]],
                            "free_grams": [[["2"]], [["7"]]], "torsion": [["2"]]}],
    })
    rtorsion_form(field, cplx)
    assert verify_euler_identity(field, lat, cplx).is_zero()
    for command in ("rtorsion", "euler-check"):
        assert main([command, "--field", str(Z2), "--complex", free]) == 0
    assert '"is_zero": true' in capsys.readouterr().out
    assert calls == []


def test_warm_euler_identity_factors_nothing(monkeypatch, capsys):
    # verify_euler_identity and the rtorsion command read the exact
    # basis-chase, so cold or warm they take no eigenvalue; once at_place has
    # built every place, verify_euler_identity factors no Gram either
    field, _, lat = field_lattice("zsqrt2")
    warm = _free_cohomology_complex(field)
    for k in range(field.n_places):
        at_place(warm, k)
    calls = {"eighe": 0, "factor": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    acyclic = json.dumps(
        {"lengths": [1, 1], "diffs": [[["2"]]], "grams": [[[[1]], [[1]]], [[[1]], [[1]]]]}
    )
    with monkeypatch.context() as m:
        m.setattr(mp, "eighe", counting("eighe", mp.eighe))
        ldl = counting("factor", gram_ldl)
        m.setattr(rtorsion, "gram_ldl", ldl)
        m.setattr(flatmodel, "gram_ldl", ldl)
        res = verify_euler_identity(field, lat, warm)
        assert calls == {"eighe": 0, "factor": 0}
        # a cold complex from the same data gives the same residual, bit for bit
        cold = verify_euler_identity(field, lat, _free_cohomology_complex(field))
        assert calls["eighe"] == 0 and calls["factor"] > 0
        assert main(["rtorsion", "--field", str(Z2), "--complex", acyclic]) == 0
        assert calls["eighe"] == 0
    assert '"sigma_0": "0.5"' in capsys.readouterr().out
    assert res.is_zero()
    assert cold.rank == res.rank and cold.cls == res.cls
    assert cold.torus.values == res.torus.values
    assert all(isinstance(v, mp.mpf) for v in res.torus.values)


def _ill_conditioned_over_r(field, e=30):
    # 0 -> R^2 --diag(1, 10^-e)--> R^2 -> 0, of exact rank 2 at every place
    one, zero = field.one(), field.zero()
    tiny = field.element([Fraction(1, 10**e)])
    return build_complex_over_r(
        field, (2, 2), ([[one, zero], [zero, tiny]],), [[EYE2, EYE2], [EYE2, EYE2]],
        [CohomologySpec(0)] * 2,
    )


def test_failures_are_not_kept():
    field, _ = field_units("zsqrt2")
    tiny = field.element([Fraction(1, 10**12)])
    cplx = _ill_conditioned_over_r(field)
    at = at_place(cplx, 0)
    # at 50 digits the Laplacian eigenvalue 10^-60 falls below its cutoff
    # 10^-50 |L|_F against the exact rank, on every call
    for _ in range(2):
        with pytest.raises(RankAmbiguous):
            reidemeister(at)
    assert at_place(cplx, 0) == at
    # a Gram that is not positive at place 1 alone refuses the whole
    # complex when it is built, on every build
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite):
            build_complex_over_r(
                field, (1, 1), ([[tiny]],), [[EYE1, [[-1]]], [EYE1, EYE1]],
                [CohomologySpec(0)] * 2,
            )


def _alternating(field, degrees):
    # 0 -> R --1--> R --0--> R --1--> R ... : acyclic once degrees is even
    one, zero = field.one(), field.zero()
    return build_complex_over_r(
        field,
        (1,) * degrees,
        [[[one if i % 2 == 0 else zero]] for i in range(degrees - 1)],
        [[EYE1] * field.n_places] * degrees,
        [CohomologySpec(0)] * degrees,
    )


def _identity(field, n):
    ident = [[field.one() if r == c else field.zero() for c in range(n)] for r in range(n)]
    eye = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    return build_complex_over_r(
        field, (n, n), (ident,), [[eye] * field.n_places] * 2, [CohomologySpec(0)] * 2
    )


def test_complex_size_bound():
    size = rtorsion.COMPLEX_SIZE_MAX
    assert size == 12
    field, _ = field_units("zsqrt2")
    with mp.workdps(60):
        for cplx in (_alternating(field, size), _identity(field, size)):
            for k in range(field.n_places):
                assert abs(reidemeister(at_place(cplx, k)) - 1) < mp.mpf(10) ** -45
    for make in (_alternating, _identity):
        with pytest.raises(ValidationError, match="at most 12 degrees"):
            make(field, size + 1)
    with pytest.raises(ValidationError, match="at most 12 degrees"):
        build_complex_over_r(field, (1, -1), ([[]],), [[EYE1, EYE1]] * 2, [CohomologySpec(0)] * 2)


# Each route computes only what tau needs.


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append((name, kwargs))
        return fn(*args, **kwargs)

    return wrapper


def _corpus_complexes():
    for name, count, seed in (("zsqrt2", 6, 303), ("zeta5", 3, 404)):
        field, _, lat = field_lattice(name)
        rng = random.Random(seed)
        for _ in range(count):
            yield field, lat, random_complex_over(field, rng)


def _corpus_places():
    for field, _, cplx in _corpus_complexes():
        for k in range(field.n_places):
            yield at_place(cplx, k)


def _exact_ranks(cplx):
    # the rank of each d_i at each place, decided in K
    per_diff = [numfield.exact_pivots(cplx.field, d) for d in cplx.diffs]
    return tuple(tuple(len(p[k]) for p in per_diff) for k in range(cplx.field.n_places))


def test_exact_ones_take_no_slow_exact_quotient(monkeypatch):
    # on mpmath's pure-Python backend an exact quotient or square root sheds
    # its trailing zero bits a byte at a time, and int / mpf (mpf_rdiv_int)
    # has no fast path for one: 1/mpf(1) took 75 us at 1010 digits.  With
    # identity Grams and delta_i = 1 the torsion routes take no int / mpf,
    # and the Cholesky pairs no mp.sqrt (of a perfect square, here: the
    # radicands of identity Grams and of diagonal Grams of squares)
    field = build_field((-2, 0, 1), 1000)
    lat = flatmodel.build_lattice(field, [field.element([1, 1])])
    eye2, squares = [[1, 0], [0, 1]], [[4, 0], [0, 9]]
    one, zero = field.one(), field.zero()
    complexes = [
        _identity(field, 3),
        _alternating(field, 4),
        build_complex_over_r(
            field, (1, 1), ([[zero]],), [[EYE1] * 2] * 2,
            [CohomologySpec(1, ((one,),), (EYE1, EYE1))] * 2,
        ),
        build_complex_over_r(
            field, (2, 2), ([[one, zero], [zero, one]],), [[squares, eye2], [eye2, squares]],
            [CohomologySpec(0)] * 2,
        ),
    ]
    assert all(d == one for c in complexes for per in c.deltas for d in per)
    calls = []
    monkeypatch.setattr(
        mpmath.ctx_mp_python, "mpf_rdiv_int",
        _counting(calls, "mpf_rdiv_int", mpmath.ctx_mp_python.mpf_rdiv_int),
    )
    for cplx in complexes:
        for k in range(field.n_places):
            with monkeypatch.context() as m:
                m.setattr(mp, "sqrt", _counting(calls, "sqrt", mp.sqrt))
                at = at_place(cplx, k)
            tau = torsion_by_contraction(at)
            assert abs(reidemeister(at) / tau - 1) < mp.mpf(10) ** -990
        assert verify_euler_identity(field, lat, cplx).is_zero()
    assert calls == []
    # nor does an exact quotient of mpf that is no power of two: 9/9
    monkeypatch.setattr(
        mpmath.ctx_mp_python, "mpf_div", _counting(calls, "mpf_div", mpmath.ctx_mp_python.mpf_div)
    )
    with mp.workdps(1010):
        assert rtorsion._alternating([mp.mpf(9), mp.mpf(9)]) == 1
        assert rtorsion._alternating([mp.mpf(3), mp.mpf(1)], [mp.mpf(1), mp.mpf(3)]) == 9
    assert calls == []


def test_contraction_over_r_takes_no_numeric_rank(monkeypatch):
    # the complex of each place keeps its exact delta_i there, so the
    # basis-chase takes no singular value, eigenvalue or logarithm
    field, _ = field_units("zsqrt2")
    places = [at_place(_free_cohomology_complex(field), 0), *_corpus_places()]
    assert all(len(at.complex.deltas[at.place]) == len(at.complex.lengths) for at in places)
    calls = []
    for name in ("svd_c", "eighe", "log", "exp"):
        monkeypatch.setattr(mp, name, _counting(calls, name, getattr(mp, name)))
    for at in places:
        torsion_by_contraction(at)
    assert calls == []


def test_basis_chase_forms_no_orthonormal_coordinates(monkeypatch):
    # a place is its complex and its index: neither at_place nor the
    # basis-chase forms a Cholesky factor or embeds a matrix; the Laplacian
    # route alone embeds its orthonormal rows, afresh on each call
    calls = []
    for mod in (rtorsion, flatmodel):
        monkeypatch.setattr(mod, "_cholesky_upper", _counting(calls, "upper", mod._cholesky_upper))
    monkeypatch.setattr(
        rtorsion, "_orthonormal_rows", _counting(calls, "rows", rtorsion._orthonormal_rows)
    )
    places = list(_corpus_places())
    for at in places:
        torsion_by_contraction(at)
    assert calls == []
    for _ in range(2):
        reidemeister(places[0])
    lengths = places[0].complex.lengths
    assert [name for name, _ in calls] == (["rows"] + ["upper"] * len(lengths)) * 2


def test_exact_ranks_agree_with_singular_values():
    # on the well-conditioned corpus the exact rank of each d_i is the count
    # of its singular values above the cutoff
    for field, _, cplx in _corpus_complexes():
        exact = _exact_ranks(cplx)
        for k in range(field.n_places):
            at = at_place(cplx, k)
            with mp.workdps(field.digits + 10):
                cut = rank_cutoff(field.digits)
                numeric = tuple(
                    sum(1 for v in mp.svd_c(d, compute_uv=False) if v > cut) if d.rows and d.cols else 0
                    for d in place_matrices(at)[0]
                )
            assert exact[k] == numeric


def _recording_rows(monkeypatch):
    # the orthonormal rows of each place the Laplacian route reads, so that
    # a Gram can be told by the differential it was formed from
    made = []
    orthonormal = rtorsion._orthonormal_rows

    def recording(at):
        made.append(orthonormal(at))
        return made[-1]

    monkeypatch.setattr(rtorsion, "_orthonormal_rows", recording)
    return made


def test_laplacian_route_takes_one_factorization_per_differential(monkeypatch):
    # the rank and det' of each nonzero d_i come from one _ldl of its Gram,
    # and no eigenvalue problem is solved
    formed, factored, eighe = [], [], []
    gram, ldl = rtorsion._gram, rtorsion._ldl
    made = _recording_rows(monkeypatch)

    def counting_gram(a, adjoint_first):
        formed.append((gram(a, adjoint_first), a))
        return formed[-1][0]

    def counting_ldl(low, floor2):
        factored.append(low)
        return ldl(low, floor2)

    monkeypatch.setattr(rtorsion, "_gram", counting_gram)
    monkeypatch.setattr(rtorsion, "_ldl", counting_ldl)
    monkeypatch.setattr(mp, "eighe", lambda *args, **kwargs: eighe.append(args))
    field, _ = field_units("zsqrt2")
    free = _free_cohomology_complex(field)
    places = [(at_place(free, 0), _exact_ranks(free)[0])]
    for _, _, cplx in _corpus_complexes():
        exact = _exact_ranks(cplx)
        places += [(at_place(cplx, k), exact[k]) for k in range(cplx.field.n_places)]
    for at, ranks in places:
        formed.clear()
        factored.clear()
        reidemeister(at)
        grams = [(low, i) for low in factored for g, a in formed if low is g
                 for i, d in enumerate(made[-1][0]) if a is d]
        # a differential is nonzero at a place exactly when its rank there is
        n = at.complex.lengths
        assert [i for _, i in grams] == [i for i, r in enumerate(ranks) if r]
        assert [len(low) for low, _ in grams] == [min(n[i], n[i + 1]) for _, i in grams]
    assert eighe == []


def test_laplacian_route_forms_each_gram_once(monkeypatch):
    # the rank of d_i and the Laplacians beside it read one Gram of d_i per
    # orientation; the only other Gram is Q Q^*, one per degree that lists
    # cohomology
    calls = []
    gram = rtorsion._gram

    def counting(a, adjoint_first):
        calls.append((a, adjoint_first))
        return gram(a, adjoint_first)

    monkeypatch.setattr(rtorsion, "_gram", counting)
    made = _recording_rows(monkeypatch)
    places = _cohomology_complexes()
    shared = 0
    for at in places:
        calls.clear()
        reidemeister(at)
        diffs = made[-1][0]
        formed = [(i, t) for a, t in calls for i, d in enumerate(diffs) if a is d]
        assert len(formed) == len(set(formed))
        dims = [spec.free_rank for spec in at.complex.cohomology]
        assert len(calls) - len(formed) == sum(1 for h in dims if h)
        # a Gram that both the rank and a Laplacian read: the rank's
        # orientation of a differential beside a degree with cohomology
        n = at.complex.lengths
        shared += sum(
            1 for i in range(len(diffs))
            if (i, n[i] <= n[i + 1]) in formed
            and dims[i if n[i] <= n[i + 1] else i + 1]
        )
    assert shared


def _row_complex(digits, row, reps):
    # 0 -> C^3 --row--> C -> 0, H^0 spanned by the two columns of reps
    return metrized_complex_at_place(
        digits, (3, 1), ([row],), ([[1, 0, 0], [0, 2, 1], [0, 1, 3]], EYE1),
        ([[2, 1], [1, 7]], ()), (reps, ()),
    )


def _pivot_cases(digits):
    eps, big = Fraction(1, 10**15), 10**15
    # leading columns in the kernel of d1; the complex is acyclic
    yield metrized_complex_at_place(
        digits, (2, 3, 1), ([[1, 2], [3, 5], [0, 0]], [[0, 0, 3]]),
        ([[2, 1], [1, 1]], [[1, 0, 0], [0, 4, 1], [0, 1, 2]], [[5]]), ((), (), ()), ((), (), ()),
    )
    yield _row_complex(digits, [0, 0, 3], [[1, 1], [1, 2], [0, 0]])
    # the first column scaled by 10^-15 against the others, or the others by
    # 10^15: e_0 lies within 10^-15 of the kernel, and the representatives
    # mix the kernel densely
    reps = [[1, 2], [1 - eps, 1 - 2 * eps], [1, 1]]
    yield _row_complex(digits, [eps, 1, -1], reps)
    yield _row_complex(digits, [1, big, -big], reps)
    # representatives 10^15 long and nearly parallel: the Gram of their
    # harmonic projections would square that conditioning
    yield _row_complex(digits, [1, big, -big], [[big, big], [0, 1], [1, 2]])


@pytest.mark.parametrize("digits", (50, 300))
def test_pivot_columns_hold_up(digits):
    for cplx in _pivot_cases(digits):
        a, b = reidemeister(cplx), torsion_by_contraction(cplx)
        with mp.workdps(digits + 10):
            assert abs(a - b) / a < mp.mpf(10) ** -digits


@pytest.mark.parametrize("digits", (50, 300))
@pytest.mark.parametrize("e", (15, 20))
def test_both_routes_keep_representatives_conditioning(digits, e):
    # 0 -> C^3 --(3, 1, -2)--> C -> 0 with standard metrics, so orthonormal
    # coordinates keep the data exact.  H^0 is spanned by two columns 10^e
    # long that differ by a short kernel vector, along no coordinate axis;
    # their harmonic Gram is K^T K, so tau^2 = det(K^T K) / (det H |d|^2)
    # exactly.  The Laplacian route must not square the conditioning of K,
    # and the basis-chase, which reads the exact delta_i, loses none of it.
    big = 10**e
    reps = [[big + 1, big + 2], [big - 3, big - 6], [2 * big, 2 * big]]
    cols = list(zip(*reps))
    gram = [[sum(a * b for a, b in zip(u, v)) for v in cols] for u in cols]
    tau2 = Fraction(gram[0][0] * gram[1][1] - gram[0][1] ** 2, 13 * 14)
    cplx = metrized_complex_at_place(
        digits, (3, 1), ([[3, 1, -2]],), ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], EYE1),
        ([[2, 1], [1, 7]], ()), (reps, ()),
    )
    taus = reidemeister(cplx), torsion_by_contraction(cplx)
    with mp.workdps(digits + 10):
        want = mp.sqrt(mp.mpf(tau2.numerator) / tau2.denominator)
        for got in taus:
            assert abs(got - want) / want < mp.mpf(10) ** -digits


@pytest.mark.parametrize("digits", (50, 300))
@pytest.mark.parametrize("e", (5, 15, 30))
def test_laplacian_route_resolves_nearly_parallel_representatives_over_c(digits, e):
    # 0 -> C^3 --(3, 1, -2)--> C -> 0 with standard metrics, and H^0 spanned
    # by 10^e w and 10^e w + v for Gaussian-integer kernel vectors w and v,
    # so the two columns point 10^-e apart.  Their harmonic Gram is K^* K,
    # so tau^2 = det(K^* K) / (det H |d|^2) exactly, here at 200 more
    # digits.  Q of the representatives must stay orthonormal however close
    # they lie.
    big = 10**e
    w, v = [(2, 2), (-2, 0), (2, 3)], [(1, 0), (1, 0), (2, 0)]
    k1 = [(big * a, big * b) for a, b in w]
    k2 = [(a + c, b + d) for (a, b), (c, d) in zip(k1, v)]

    def inner(x, y):
        # x^* y as (re, im)
        pairs = list(zip(x, y))
        return (sum(a * c + b * d for (a, b), (c, d) in pairs),
                sum(a * d - b * c for (a, b), (c, d) in pairs))

    re, im = inner(k1, k2)
    det = inner(k1, k1)[0] * inner(k2, k2)[0] - re**2 - im**2
    cplx = metrized_complex_at_place(
        digits, (3, 1), ([[3, 1, -2]],), ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], EYE1),
        ([[2, 1], [1, 7]], ()), ([[list(x), list(y)] for x, y in zip(k1, k2)], ()),
    )
    got = reidemeister(cplx)
    with mp.workdps(digits + 200):
        want = mp.sqrt(mp.mpf(det) / (13 * 14))
        assert abs(got - want) / want < mp.mpf(10) ** -digits


def _swap_degree_one_representatives(monkeypatch, reps):
    # the Laplacian route reads reps, at the working precision, as the
    # orthonormal rows of its degree-1 representatives
    orthonormal = rtorsion._orthonormal_rows

    def swapped(at):
        diffs, kept = orthonormal(at)
        with mp.workdps(60):
            return diffs, [kept[0], [[mp.mpf(x) for x in row] for row in reps], *kept[2:]]

    monkeypatch.setattr(rtorsion, "_orthonormal_rows", swapped)


@pytest.mark.parametrize("reps", (
    [[0, 0], [0, 1], [0, 0]],
    [[0, 0], [1, 0], [0, 0]],
    [[0, 0], [1, 1], [0, 0]],
    [[1, 0], [0, 1], [0, 0]],
    [[0, 1], [1, 0], [0, 0]],
))
def test_representatives_that_span_no_cohomology_basis_are_refused(reps, monkeypatch):
    # 0 -> C --(2, 0, 0)--> C^3 --0--> C -> 0: the harmonic space in degree 1
    # is spanned by e_1 and e_2, and e_0 spans the image.  A zero column, a
    # column that repeats another, or one inside the image leaves no basis
    # of H^1: delta_1 = 0 in Q, and the place is refused when it is built
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def build(reps):
        return metrized_complex_at_place(
            50, (1, 3, 1), ([[2], [0], [0]], [[0, 0, 0]]),
            (EYE1, eye3, EYE1), ((), EYE2, EYE1), ((), reps, [[1]]),
        )

    with pytest.raises(ValidationError, match="degree 1: the image, cohomology and "
                       "coimage columns are dependent"):
        build(reps)
    # a place that builds has delta_1 != 0 exactly, so only rounding could
    # lose its harmonic projections; the Laplacian route still refuses such
    # columns rather than dividing by zero, as a rank more digits might
    # mend, when its orthonormal rows are replaced after they are embedded.
    # The Grams are identities, so the columns are their own orthonormal
    # coordinates
    _swap_degree_one_representatives(monkeypatch, reps)
    with pytest.raises(RankAmbiguous, match="degree-1 representatives do not project "
                       "onto a cohomology basis"):
        reidemeister(build([[0, 0], [1, 0], [0, 1]]))


def test_contraction_agrees_with_svd_coimage_oracle():
    worst = mp.mpf(0)
    count = 0
    for name, total, seed in (("zsqrt2", 28, 505), ("zeta5", 12, 606)):
        field, _ = field_units(name)
        rng = random.Random(seed)
        for _ in range(total):
            cplx = random_complex_over(field, rng)
            count += 1
            for k in range(field.n_places):
                at = at_place(cplx, k)
                got, want = torsion_by_contraction(at), torsion_by_coimage(at)
                with mp.workdps(field.digits + 10):
                    worst = max(worst, abs(got - want) / want)
    assert count == 40
    assert worst < mp.mpf(10) ** -field.digits


def test_error_paths_are_unchanged():
    # each refusal keeps its message; a complex given at one place meets
    # them when its place is built.  Degree 0 has a kernel that the complex
    # does not list
    with pytest.raises(ValidationError, match="degree 0 supplies 0 cohomology classes "
                       "but the kernel has dimension 1"):
        metrized_complex_at_place(50, (1, 1), ([[0]],), (EYE1, EYE1), ((), EYE1), ((), EYE1))
    # every count is checked before any basis determinant: degree 2 has a
    # kernel that the complex does not list
    diffs, grams = ([[2], [0]], [[0, 0]]), (EYE1, EYE2, EYE1)
    with pytest.raises(ValidationError, match="degree 2 supplies 0 cohomology classes "
                       "but the kernel has dimension 1"):
        metrized_complex_at_place(50, (1, 2, 1), diffs, grams, ((), EYE1, ()), ((), [[5], [0]], ()))
    # with H^2 listed too, the representative inside the image is refused
    # instead of dividing by 0
    with pytest.raises(ValidationError, match="degree 1: the image, cohomology and "
                       "coimage columns are dependent"):
        metrized_complex_at_place(
            50, (1, 2, 1), diffs, grams, ((), EYE1, EYE1), ((), [[5], [0]], EYE1)
        )


# Small-scalar complexes.  The basis-chase reads them exactly, over Q; the
# Laplacian route resolves them because every cutoff scales with the data,
# so a scalar differential is well-conditioned however small it is.


def _small_scalar(e):
    # 0 -> C --10^-e--> C -> 0 at 50 digits: acyclic, tau = 10^e
    return metrized_complex_at_place(
        50, (1, 1), ([[Fraction(1, 10**e)]],), (EYE1, EYE1), NOH, NOH
    )


def _is_ten_to(tau, e):
    with mp.workdps(60):
        return abs(tau / mp.mpf(10) ** e - 1) < mp.mpf(10) ** -40


@pytest.mark.parametrize("e", (12, 14, 20))
def test_contraction_resolves_small_scalar_differential(e):
    assert _is_ten_to(torsion_by_contraction(_small_scalar(e)), e)


@pytest.mark.parametrize("e", (12, 14, 20))
def test_laplacian_resolves_small_scalar_differential(e):
    assert _is_ten_to(reidemeister(_small_scalar(e)), e)


def test_laplacian_misjudged_kernel_over_r_is_ambiguous():
    # 0 -> R^2 --diag(1, 10^-30)--> R^2 -> 0: at 50 digits the Laplacian
    # eigenvalue 10^-60 falls below its cutoff 10^-50 |L|_F, far outside its
    # band, but the exact rank is 2, so more digits would help:
    # RankAmbiguous, not the rep-count ValidationError.  The basis-chase
    # takes the exact rank.
    for digits in (50, 130):
        field, _ = field_units("zsqrt2", digits)
        cplx = _ill_conditioned_over_r(field)
        for k in range(field.n_places):
            at = at_place(cplx, k)
            assert _is_ten_to(torsion_by_contraction(at), 30)
            if digits == 50:
                with pytest.raises(RankAmbiguous, match="Laplacian in degree 0: 1 eigenvalues "
                                   "fall below the cutoff but the exact kernel has dimension 0"):
                    reidemeister(at)
            else:
                assert _is_ten_to(reidemeister(at), 30)
    # diag(1, 10^-25) puts the eigenvalue 10^-50 at its cutoff instead
    field, _ = field_units("zsqrt2")
    cplx = _ill_conditioned_over_r(field, 25)
    for k in range(field.n_places):
        at = at_place(cplx, k)
        assert _is_ten_to(torsion_by_contraction(at), 25)
        with pytest.raises(RankAmbiguous, match=r"d0 out of degree 0: an eigenvalue may sit at "
                           r"the cutoff \(smallest pivot 1.0e-50\)"):
            reidemeister(at)


# Adjacent differentials of very different scale: 0 -> C --(10^-e, 0)^T-->
# C^2 --(0, 10^e)--> C -> 0, acyclic with tau = 10^(2e).  The degree-1
# Laplacian diag(10^-2e, 10^2e) spans more than 50 digits; each differential
# is judged against its own norm.


def _scale_split_diffs(small, big, zero):
    return ([[small], [zero]], [[zero, big]])


def _agree_at_ten_to(at, e):
    a, b = reidemeister(at), torsion_by_contraction(at)
    digits = at.complex.field.digits
    with mp.workdps(digits + 10):
        assert abs(a - b) / a < mp.mpf(10) ** -digits
    assert _is_ten_to(a, e)


@pytest.mark.parametrize("e", (15, 20))
def test_laplacian_resolves_differentials_of_different_scale(e):
    diffs = _scale_split_diffs(Fraction(1, 10**e), 10**e, 0)
    cplx = metrized_complex_at_place(
        50, (1, 2, 1), diffs, (EYE1, EYE2, EYE1), ((),) * 3, ((),) * 3
    )
    _agree_at_ten_to(cplx, 2 * e)


@pytest.mark.parametrize("e", (15, 20))
def test_laplacian_resolves_differentials_of_different_scale_around_cohomology(e):
    # 0 -> C --(10^-e, 0, 0)^T--> C^3 --(0, 10^e, 0)--> C -> 0 with H^1
    # spanned by e_3, tau = 10^(2e): the harmonic correction factors
    # diag(10^-2e, 10^2e, 0) + |L|_F e_3 e_3^*, which spans 4e digits
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cplx = metrized_complex_at_place(
        50, (1, 3, 1), ([[Fraction(1, 10**e)], [0], [0]], [[0, 10**e, 0]]),
        (EYE1, eye3, EYE1), ((), EYE1, ()), ((), [[0], [0], [1]], ()),
    )
    _agree_at_ten_to(cplx, 2 * e)


@pytest.mark.parametrize("e", (15, 20))
def test_laplacian_resolves_differentials_of_different_scale_over_r(e):
    field, _ = field_units("zsqrt2")
    small, big = field.element([Fraction(1, 10**e)]), field.element([10**e])
    diffs = _scale_split_diffs(small, big, field.zero())
    cplx = build_complex_over_r(
        field, (1, 2, 1), diffs, [[EYE1] * 2, [EYE2] * 2, [EYE1] * 2], [CohomologySpec(0)] * 3
    )
    for k in range(field.n_places):
        _agree_at_ten_to(at_place(cplx, k), 2 * e)


def test_ranks_split_where_p_factors():
    # p = (x^2 + 1)(x^2 + 2): place 0 is i, a root of x^2 + 1, and place 1
    # is i sqrt2.  d0 = diag(x^2 + 1, x^2 + 2) has rank 1 at both, while an
    # elimination that treats p as irreducible finds rank 2.
    field = build_field([2, 0, 3, 0, 1], 50)
    a, b = field.element([1, 0, 1]), field.element([2, 0, 1])
    zero, one = field.zero(), field.one()
    grams = [[EYE2, EYE2], [EYE2, EYE2]]
    cplx = build_complex_over_r(
        field,
        (2, 2),
        ([[a, zero], [zero, b]],),
        grams,
        [
            CohomologySpec(1, ((b,), (a,)), ([[1]], [[1]])),
            CohomologySpec(1, ((one,), (one,)), ([[1]], [[1]])),
        ],
    )
    assert _exact_ranks(cplx) == ((1,), (1,))
    with mp.workdps(60):
        for k in range(field.n_places):
            at = at_place(cplx, k)
            want = torsion_by_coimage(at)
            assert abs(want - 1) < mp.mpf(10) ** -45
            for got in (reidemeister(at), torsion_by_contraction(at)):
                assert abs(got / want - 1) < mp.mpf(10) ** -45
    # diag(x^2 + 1, 1) has rank 1 at i but 2 at i sqrt2: the cohomology
    # differs between the places, and no one free rank fits both
    with pytest.raises(ValidationError, match="degree 0 supplies 0 cohomology classes "
                       "but the kernel has dimension 1"):
        build_complex_over_r(field, (2, 2), ([[a, zero], [zero, one]],), grams,
                             [CohomologySpec(0)] * 2)


def test_at_place_accepts_exact_complex_with_large_coefficients():
    # d0 = (a, b)^T, d1 = (b u, -a u) is exact over Z[sqrt2]; d after d at
    # place 0 carries the rounding of 10^40-sized entries, which the
    # tolerance relative to |d1| |d0| absorbs
    field, _ = field_units("zsqrt2")
    a = field.element([10**20 + 3, 10**20 + 7])
    b = field.element([3 * 10**19 + 1, 7 * 10**19])
    u = field.element([5 * 10**19, 2 * 10**19 + 9])
    cplx = build_complex_over_r(
        field,
        (1, 2, 1),
        ([[a], [b]], [[field.mul(b, u), field.neg(field.mul(a, u))]]),
        [[EYE1, EYE1], [EYE2, EYE2], [EYE1, EYE1]],
        [CohomologySpec(0)] * 3,
    )
    cp = at_place(cplx, 0)
    assert abs(reidemeister(cp) / torsion_by_contraction(cp) - 1) < mp.mpf(10) ** -40
    # the cocycle (b u, -a u) of d0 = (a, b), with 10^12-sized a, b, u: d0 K
    # carries rounding of order 10^-24, which the tolerance relative to
    # |d0| |K| absorbs, while the harmonic eigenvalue's noise stays far
    # below the rank cutoff
    a = field.element([10**12 + 3, 10**12 + 7])
    b = field.element([3 * 10**11 + 1, 7 * 10**11])
    u = field.element([5 * 10**11, 2 * 10**11 + 9])
    reps = ((field.mul(b, u),), (field.neg(field.mul(a, u)),))
    cplx = build_complex_over_r(
        field,
        (2, 1),
        ([[a, b]],),
        [[EYE2, EYE2], [EYE1, EYE1]],
        [CohomologySpec(1, reps, ([[1]], [[1]])), CohomologySpec(0)],
    )
    for k in range(field.n_places):
        cp = at_place(cplx, k)
        assert abs(reidemeister(cp) / torsion_by_contraction(cp) - 1) < mp.mpf(10) ** -40


# Logarithms are taken only where a form needs one.


def test_places_and_routes_take_no_logarithm(monkeypatch):
    field, _, lat = field_lattice("zsqrt2")
    complexes = [(field, lat, _free_cohomology_complex(field)), *_corpus_complexes()]
    calls = []
    for name in ("log", "exp"):
        monkeypatch.setattr(mp, name, _counting(calls, name, getattr(mp, name)))
    monkeypatch.setattr(rtorsion, "ln", _counting(calls, "ln", rtorsion.ln))
    for field, _, cplx in complexes:
        for k in range(field.n_places):
            at = at_place(cplx, k)
            reidemeister(at)
            torsion_by_contraction(at)
    assert calls == []


def test_warm_euler_identity_takes_one_log_per_place(monkeypatch):
    # the torsion classes fold into the per-place product: one logarithm
    # (numfield.ln, which takes mp.log only away from 1) per place in all,
    # and no zhat
    field, _, lat = field_lattice("zsqrt2")
    complexes = [(field, lat, _free_cohomology_complex(field)), *_corpus_complexes()]
    assert any(spec.torsion is not None for _, _, c in complexes for spec in c.cohomology)
    for field, _, cplx in complexes:
        for k in range(field.n_places):
            reidemeister(at_place(cplx, k))
            torsion_by_contraction(at_place(cplx, k))
    calls = []
    monkeypatch.setattr(rtorsion, "ln", _counting(calls, "ln", rtorsion.ln))
    monkeypatch.setattr(mp, "exp", _counting(calls, "exp", mp.exp))
    monkeypatch.setattr(modtors, "zhat", _counting(calls, "zhat", modtors.zhat))
    for field, lat, cplx in complexes:
        calls.clear()
        assert verify_euler_identity(field, lat, cplx).is_zero()
        assert [name for name, _ in calls] == ["ln"] * field.n_places


@pytest.mark.parametrize("digits", (50, 300))
def test_euler_identity_matches_per_class_oracle(digits):
    outcomes = []
    for name, count, seed in (("zsqrt2", 8, 707), ("zeta5", 4, 808)):
        field, _, lat = field_lattice(name, digits)
        rng = random.Random(seed)
        cases = [random_complex_over(field, rng) for _ in range(count)]
        if name == "zsqrt2":
            # the rtorsion_free_cohomology complex, and the same with H^1
            # misstated as R/(3 + sqrt2) + R
            cases += [
                _free_cohomology_complex(field),
                _free_cohomology_complex(field, field.element([3, 1])),
            ]
        for cplx in cases:
            got = verify_euler_identity(field, lat, cplx)
            want = euler_residual_by_classes(field, lat, cplx)
            assert (got.rank, got.cls, got.is_zero()) == (want.rank, want.cls, want.is_zero())
            assert got.torus.same_as(want.torus)
            torsion = any(spec.torsion is not None for spec in cplx.cohomology)
            outcomes.append((torsion, got.is_zero()))
    assert outcomes.count((True, False)) == 1
    assert outcomes.count((True, True)) >= 3


# The basis-chase over R: tau^2 = prod (|sigma(delta_i)|^2 det G_i / det H_i)^((-1)^i)
# from the exact basis determinants delta_i in K.


@pytest.mark.parametrize("digits", (50, 300))
def test_exact_basis_chase_matches_numeric_routes(digits):
    count = 0
    for name, total, seed in (("z", 6, 11), ("zsqrt2", 6, 12), ("zeta5", 4, 13)):
        field, _ = field_units(name, digits)
        rng = random.Random(seed)
        for _ in range(total):
            cplx = random_complex_over(field, rng)
            for k in range(field.n_places):
                at = at_place(cplx, k)
                assert at.complex is cplx and at.place == k
                got = torsion_by_contraction(at)
                count += 1
                with mp.workdps(digits + 10):
                    for want in (torsion_by_coimage(at), reidemeister(at)):
                        assert abs(got - want) / want < mp.mpf(10) ** -digits
    assert count == 6 + 12 + 8


def test_exact_basis_chase_takes_pivots_per_branch():
    # p = (x^2 - 2)(x^2 - 3), places -sqrt3, -sqrt2, sqrt2, sqrt3.  d0 = (a, b)
    # with a = x^2 - 2, b = x^2 - 3 and ab = 0 in K has rank 1 everywhere,
    # but a vanishes at +-sqrt2 and b at +-sqrt3, so the pivot column, and
    # with it each delta_i, differs between the branches of p
    field = build_field([6, 0, -5, 0, 1], 50)
    assert (field.r_real, field.r_complex) == (4, 0)
    a, b = field.element([-2, 0, 1]), field.element([-3, 0, 1])
    d0 = [[a, b]]
    assert numfield.exact_pivots(field, d0) == ((0,), (1,), (1,), (0,))
    cplx = build_complex_over_r(
        field, (2, 1), (d0,), [[EYE2, [[2, 1], [1, 3]]] * 2, [EYE1, [[5]]] * 2],
        [CohomologySpec(1, ((b,), (field.neg(a),)), ([[1]], [[2]]) * 2), CohomologySpec(0)],
    )
    assert _exact_ranks(cplx) == ((1,),) * 4
    # delta_1 = d0 on the pivot column: a at +-sqrt3, b at +-sqrt2
    assert [deltas[1] for deltas in cplx.deltas] == [a, b, b, a]
    for k in range(field.n_places):
        at = at_place(cplx, k)
        got = torsion_by_contraction(at)
        with mp.workdps(60):
            for want in (torsion_by_coimage(at), reidemeister(at)):
                assert abs(got / want - 1) < mp.mpf(10) ** -48


def test_exact_basis_chase_refuses_representatives_in_the_image():
    # over Z[sqrt2]: H^1 of 0 -> R --(2, 0)^T--> R^2 -> 0 represented by
    # (1, 0)^T, which lies in the image, so delta_1 = 0 in K and the
    # complex is refused when it is built
    field, _ = field_units("zsqrt2")
    two, zero, one = field.element([2]), field.zero(), field.one()
    with pytest.raises(ValidationError, match="degree 1: the image, cohomology and "
                       "coimage columns are dependent"):
        build_complex_over_r(
            field, (1, 2), ([[two], [zero]],), [[EYE1] * 2, [EYE2] * 2],
            [CohomologySpec(0), CohomologySpec(1, ((one,), (zero,)), ([[1]], [[1]]))],
        )
    # over (x^2 - 2)(x^2 - 3) the representative (0, x^2 - 2)^T of the same
    # H^1 completes the image only where x^2 - 2 does not vanish: delta_1 is
    # 0 at +-sqrt2 alone, decided exactly, and that refuses the complex
    field = build_field([6, 0, -5, 0, 1], 50)
    a, one, zero = field.element([-2, 0, 1]), field.one(), field.zero()
    with pytest.raises(ValidationError, match="degree 1: the image, cohomology and "
                       "coimage columns are dependent"):
        build_complex_over_r(
            field, (1, 2), ([[one], [zero]],), [[EYE1] * 4, [EYE2] * 4],
            [CohomologySpec(0), CohomologySpec(1, ((zero,), (a,)), ([[1]],) * 4)],
        )


def test_exact_basis_chase_keeps_every_digit_of_an_ill_conditioned_differential():
    # 0 -> R^2 --[[1, 1], [1, 1 + 10^-20]]--> R^2 -> 0 over Z[sqrt2] with
    # standard metrics: tau = 1/|det d| = 10^20, while d^* d has condition
    # number about 10^41
    field, _ = field_units("zsqrt2")
    one = field.one()
    d = [[one, one], [one, field.element([1 + Fraction(1, 10**20)])]]
    cplx = build_complex_over_r(
        field, (2, 2), (d,), [[EYE2] * 2] * 2, [CohomologySpec(0)] * 2
    )
    for k in range(field.n_places):
        tau = torsion_by_contraction(at_place(cplx, k))
        with mp.workdps(70):
            assert abs(tau / mp.mpf(10) ** 20 - 1) < mp.mpf(10) ** -50


@pytest.mark.parametrize("e", (15, 30))
def test_exact_basis_chase_keeps_representatives_conditioning(e):
    # the case of test_both_routes_keep_representatives_conditioning
    # over Z: two H^0 representatives 10^e long and nearly parallel, along
    # no coordinate axis, which the minors of the numeric basis-chase lose
    field, _ = field_units("z")
    big = 10**e
    reps = [[big + 1, big + 2], [big - 3, big - 6], [2 * big, 2 * big]]
    cols = list(zip(*reps))
    gram = [[sum(a * b for a, b in zip(u, v)) for v in cols] for u in cols]
    tau2 = Fraction(gram[0][0] * gram[1][1] - gram[0][1] ** 2, 13 * 14)
    ring = [[field.element([x]) for x in row] for row in reps]
    cplx = build_complex_over_r(
        field, (3, 1), ([[field.element([x]) for x in (3, 1, -2)]],),
        [[[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], [EYE1]],
        [CohomologySpec(2, ring, ([[2, 1], [1, 7]],)), CohomologySpec(0)],
    )
    got = torsion_by_contraction(at_place(cplx, 0))
    with mp.workdps(60):
        want = mp.sqrt(mp.mpf(tau2.numerator) / tau2.denominator)
        assert abs(got - want) / want < mp.mpf(10) ** -50


def test_contraction_over_r_takes_no_minor_or_pivot(monkeypatch):
    # the places of complexes over R, and of complexes given at one place,
    # take no numeric determinant or elimination
    field, _ = field_units("zsqrt2")
    places = [at_place(_free_cohomology_complex(field), 0), *_corpus_places()]
    places += [metrized_complex_at_place(*_embedded(_free_cohomology_complex(field), 1))]
    calls = []
    for name in ("det", "svd_c"):
        monkeypatch.setattr(mp, name, _counting(calls, name, getattr(mp, name)))
    for at in places:
        torsion_by_contraction(at)
    assert calls == []


def _embedded(cplx, k):
    # the arguments of metrized_complex_at_place for place k of a complex over R
    field = cplx.field
    hgrams = [spec.free_grams[k] if spec.free_rank else () for spec in cplx.cohomology]
    hmaps = [
        _embed_rows(field, spec.free_reps, k) if spec.free_rank else ()
        for spec in cplx.cohomology
    ]
    return (
        field.digits, cplx.lengths, [_embed_rows(field, m, k) for m in cplx.diffs],
        [g[k] for g in cplx.grams], hgrams, hmaps,
    )


def _embed_rows(field, rows, k):
    return [[numfield.embed(field, x, k) for x in row] for row in rows]


def test_at_place_takes_no_numeric_zero_product(monkeypatch):
    # K decides d after d = 0 and every cocycle, so no place takes either
    # product, or the Frobenius norms that only they need: neither a place
    # of a complex over R nor a complex given at one place, read exactly
    # over Q.  Given the numbers of a place over R whose d after d is empty,
    # metrized_complex_at_place gives the same matrices, lengths, free ranks
    # and Gram determinants, and the same tau to the working precision
    field, _ = field_units("zsqrt2")
    free = _free_cohomology_complex(field)
    complexes = [(field, free), *((f, c) for f, _, c in _corpus_complexes())]
    assert any(spec.free_rank for _, c in complexes for spec in c.cohomology)
    calls = []
    monkeypatch.setattr(mp, "norm", _counting(calls, "norm", mp.norm))
    for field, cplx in complexes:
        for k in range(field.n_places):
            at_place(cplx, k)
    metrized_complex_at_place(
        50, (1, 2, 1), ([[1], [Fraction(1, 3)]], [[1, -3]]), (EYE1, EYE2, EYE1), NOH + ((),),
        NOH + ((),),
    )
    assert calls == []
    field = free.field
    for k in range(field.n_places):
        at, over_q = at_place(free, k), metrized_complex_at_place(*_embedded(free, k))
        assert rtorsion._orthonormal_rows(over_q) == rtorsion._orthonormal_rows(at)
        q = over_q.complex
        assert q.field.digits == field.digits and q.lengths == free.lengths
        assert [s.free_rank for s in q.cohomology] == [s.free_rank for s in free.cohomology]
        assert [d for d, _ in q.factors[0][0]] == [d for d, _ in free.factors[k][0]]
        assert q.factors[0][1] == free.factors[k][1]
        a, b = exact_torsion(q)[0][0], exact_torsion(free)[0][k]
        with mp.workdps(field.digits + 10):
            assert abs(a / b - 1) < mp.mpf(10) ** -field.digits
    assert calls == []


def test_complexes_over_c_decide_zero_products_exactly():
    # a complex given at one place has a K, Q or Q(i), which decides d after
    # d and its cocycles exactly
    def build(lengths, diffs, hgrams, hmaps):
        grams = [[[int(r == c) for c in range(n)] for r in range(n)] for n in lengths]
        return metrized_complex_at_place(50, lengths, diffs, grams, hgrams, hmaps)

    with pytest.raises(ValidationError, match="d1 after d0 is not zero"):
        build((1, 1, 1), ([[1]], [[1]]), ((),) * 3, ((),) * 3)
    with pytest.raises(ValidationError, match="a degree-0 representative is not a cocycle"):
        build((1, 1), ([[2]],), (EYE1, ()), ([[1]], ()))
    # d1 d0 = 1 - 3 * (1/3 rounded at 60 digits), or i times it, vanishes
    # only to rounding, far inside any tolerance relative to the data, and
    # is refused over Q and over Q(i)
    with mp.workdps(60):
        third = mp.mpf(1) / 3
    for d1 in ([[1, -3]], [[[0, 1], [0, -3]]]):
        with pytest.raises(ValidationError, match="d1 after d0 is not zero"):
            build((1, 2, 1), ([[1], [third]], d1), ((),) * 3, ((),) * 3)
    # the same complex with the exact 1/3 builds: tau = |d1| / |d0| = 3
    tau = _both((1, 2, 1), ([[1], [Fraction(1, 3)]], [[1, -3]]), (EYE1, EYE2, EYE1),
                ((),) * 3, ((),) * 3)
    with mp.workdps(60):
        assert abs(tau - 3) < mp.mpf(10) ** -45


def test_complexes_over_c_take_no_ranks_or_basis_determinants():
    # only the place's complex, from K, supplies |sigma(delta_i)|^2; a caller
    # of metrized_complex_at_place cannot pass values that no check covers,
    # such as delta_sq = (7, 1), which made the basis-chase read sqrt(7)
    params = inspect.signature(metrized_complex_at_place).parameters
    assert list(params) == [
        "digits", "lengths", "diffs", "cochain_grams", "cohomology_grams", "cohomology_maps"
    ]
    args = (50, (1, 1), ([[2]],), (EYE1, EYE1), NOH, NOH)
    for extra in ({"delta_sq": (7, 1)}, {"ranks": (0,)}):
        with pytest.raises(TypeError):
            metrized_complex_at_place(*args, **extra)
    with pytest.raises(TypeError):
        metrized_complex_at_place(*args, None, (7, 1))
    # delta_0 = 1 and delta_1 = 2, decided in Q and kept by the place's complex
    at = metrized_complex_at_place(*args)
    assert rtorsion._delta_sq(at.complex, at.place) == [1, 4]
    with mp.workdps(60):
        for tau in (reidemeister(at), torsion_by_contraction(at)):
            assert abs(tau - mp.mpf(1) / 2) < mp.mpf(10) ** -45



def test_a_place_reads_every_exact_fact_from_its_complex(monkeypatch):
    # a place keeps its complex and its index, nothing else, so a place
    # rebuilt from at_place's fields cannot be handed basis determinants or
    # matrices: delta_sq = (7, 1) made the basis-chase read sqrt(7) for
    # 0 -> C --2--> C -> 0, whose tau is 1/2
    at = metrized_complex_at_place(50, (1, 1), ([[2]],), ([[1]], [[1]]), ((), ()), ((), ()))
    fields = {f: getattr(at, f) for f in MetrizedComplexAtPlace._fields}
    with pytest.raises(TypeError, match="unexpected keyword argument 'delta_sq'"):
        MetrizedComplexAtPlace(**dict(fields, delta_sq=(7, 1)))
    rebuilt = MetrizedComplexAtPlace(**fields)
    with mp.workdps(60):
        for tau in (reidemeister(rebuilt), torsion_by_contraction(rebuilt)):
            assert abs(tau - mp.mpf(1) / 2) < mp.mpf(10) ** -45
    assert rebuilt == at and hash(rebuilt) == hash(at)
    # the Laplacian route reads the representatives it embeds from the
    # complex, and refuses ones that span no cohomology basis: here the
    # degree-1 orthonormal rows of a built place are swapped for a zero
    # column and e_1
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    at = metrized_complex_at_place(
        50, (1, 3, 1), ([[2], [0], [0]], [[0, 0, 0]]),
        (EYE1, eye3, EYE1), ((), EYE2, EYE1), ((), [[0, 0], [1, 0], [0, 1]], [[1]]),
    )
    _swap_degree_one_representatives(monkeypatch, [[0, 0], [0, 1], [0, 0]])
    with pytest.raises(RankAmbiguous, match="degree-1 representatives do not project "
                       "onto a cohomology basis"):
        reidemeister(at)


def _split_complex(field, a, b):
    # 0 -> R^2 --diag(a, b)--> R^2 -> 0 with ab = 0 in K: rank 1 at every
    # place, but the pivot column, and with it each delta_i, is that of b
    # where a vanishes and that of a elsewhere
    zero, one = field.zero(), field.one()
    return build_complex_over_r(
        field, (2, 2), ([[a, zero], [zero, b]],),
        [[[[2, 1], [1, 3]]] * field.n_places, [EYE2] * field.n_places],
        [
            CohomologySpec(1, ((b,), (a,)), ([[3]],) * field.n_places),
            CohomologySpec(1, ((one,), (one,)), ([[7]],) * field.n_places),
        ],
    )


def test_both_exact_readers_give_the_same_tau():
    # torsion_by_contraction on a place and exact_torsion on its complex read
    # tau through one per-place reader, so they agree to the last bit: over
    # the corpus, over reducible p = (x + 1)(x^2 + 1) and (x^2 + 1)(x^2 + 2),
    # whose delta_i differ between places, and over Q and Q(i)
    complexes = [cplx for _, _, cplx in _corpus_complexes()]
    for poly, a, b in (([1, 1, 1, 1], [1, 1], [1, 0, 1]), ([2, 0, 3, 0, 1], [1, 0, 1], [2, 0, 1])):
        field = build_field(poly, 50)
        split = _split_complex(field, field.element(a), field.element(b))
        assert split.deltas[0] != split.deltas[1]
        complexes.append(split)
    assert {c.field.poly for c in complexes} >= {(-2, 0, 1), (1, 1, 1, 1, 1)}
    over_c = [
        metrized_complex_at_place(50, (1, 1), (d,), (EYE1, EYE1), NOH, NOH).complex
        for d in ([[2]], [[[3, 4]]])
    ]
    assert [c.field.poly for c in over_c] == [(0, 1), (1, 0, 1)]
    count = 0
    for cplx in complexes + over_c:
        taus = exact_torsion(cplx)[0]
        for k in range(cplx.field.n_places):
            assert repr(torsion_by_contraction(at_place(cplx, k))) == repr(taus[k])
            count += 1
    assert count == 6 * 2 + 3 * 2 + 2 + 2 + 2

def test_complexes_over_c_are_read_over_q_or_q_i(monkeypatch):
    # every entry is read exactly; real data builds over Q = Z[x]/(x), and an
    # entry with a nonzero imaginary part, an [re, im] pair or an mpc, in a
    # differential or a representative, over Q(i) = Z[x]/(x^2 + 1)
    polys = []
    monkeypatch.setattr(
        rtorsion, "build_field", lambda poly, digits: polys.append(poly) or build_field(poly, digits)
    )
    with mp.workdps(60):
        third, z = mp.mpf(1) / 3, mp.mpc(3, 4)
    # (d, representatives of H^0 and H^1 or None, the poly, tau)
    for d, reps, want, tau in (
        ([[2]], None, (0, 1), Fraction(1, 2)),
        ([[third]], None, (0, 1), Fraction(3)),
        ([["2.5"]], None, (0, 1), Fraction(2, 5)),
        ([[[3, 0]]], None, (0, 1), Fraction(1, 3)),
        ([[mp.mpc(2, 0)]], None, (0, 1), Fraction(1, 2)),
        ([[[3, 4]]], None, (1, 0, 1), Fraction(1, 5)),
        ([[z]], None, (1, 0, 1), Fraction(1, 5)),
        ([[0]], ([[1]], [[mp.mpc(0, 2)]]), (1, 0, 1), Fraction(1, 2)),
        ([[0]], ([[[1, 0]]], [[2]]), (0, 1), Fraction(1, 2)),
    ):
        polys.clear()
        hgrams, hmaps = ((EYE1, EYE1), reps) if reps else (NOH, NOH)
        at = metrized_complex_at_place(50, (1, 1), (d,), (EYE1, EYE1), hgrams, hmaps)
        assert polys == [want]
        with mp.workdps(60):
            want_tau = mp.mpf(tau.numerator) / tau.denominator
            assert abs(torsion_by_contraction(at) - want_tau) < mp.mpf(10) ** -45


# The Hermitian Grams, formed from half their entries, round as mpmath's own
# products.


def _random_matrix(rng, rows, cols, complex_entries):
    # entries at the working precision over a spread of scales, a fifth of
    # them zero, which an mp.matrix does not store and reads as mpmath's
    # real zero
    def part():
        return mp.mpf(rng.randint(-10**30, 10**30)) / rng.randint(1, 10**15) * mp.mpf(2) ** rng.randint(-60, 60)

    def entry():
        if rng.random() < 0.2:
            return 0
        return mp.mpc(part(), part()) if complex_entries else part()

    return as_matrix([[entry() for _ in range(cols)] for _ in range(rows)], cols)


@pytest.mark.parametrize("digits", (50, 300, 1000))
def test_kernels_round_as_mpmath_products(digits):
    rng = random.Random(digits)
    gram = rtorsion._gram
    with mp.workdps(digits + 10):
        for complex_entries in (False, True):
            for r, c in ((0, 3), (3, 0), (1, 1), (2, 3), (4, 2), (3, 3)):
                a = _random_matrix(rng, r, c, complex_entries)
                for adjoint_first in (True, False):
                    # _gram reads the rows of the matrix and forms the lower
                    # triangle alone, as rows.  With no row the rows hold no
                    # width, and stand for the 0 x 0 matrix, whose Gram is empty
                    got = gram(a.tolist(), adjoint_first)
                    if not r:
                        assert got == []
                        continue
                    want = gram_by_matrix_product(a, adjoint_first)
                    lower = [[raw_value(want[i, j]) for j in range(i + 1)] for i in range(want.rows)]
                    assert [[raw_value(x) for x in row] for row in got] == lower


def _factor_against_eigenvalues(g, digits, dropped=0):
    # the rank step on the mp.matrix G against the eigenvalue rule it
    # certifies (support.eigenvalue_rank, by mp.eighe): the same rank and
    # det', or RankAmbiguous, never another rank.  Returns whether the
    # factor decided.  det' agrees to 10^-digits relative, widened by the
    # first-order bound r (n 10^-(digits + GUARD) |G|_F + dropped) / lambda_r
    # over the smallest eigenvalue kept: the rounding of the eigenvalues,
    # and the part of G below the cut that the factor drops and the
    # eigenvalues leave out, at most dropped (0 when that part is rounding)
    want = eigenvalue_rank(g, digits)
    low = [[g[i, j] for j in range(i + 1)] for i in range(g.rows)]
    try:
        r, det = rtorsion._rank_and_det(low, rank_cutoff(digits) ** 4, "G")
    except RankAmbiguous:
        return False
    assert want is not None and r == want[0], (r, want)
    tol = mp.mpf(10) ** -digits
    if r:
        tol += r * (g.rows * mp.mpf(10) ** -(digits + GUARD) * mp.mnorm(g, "F") + dropped) / want[2]
    assert abs(det - want[1]) <= tol * want[1]
    return True


# every rank of every size at 50 digits; two ranks of each size at 300 and
# one at 1000, where mp.eighe of a 12 x 12 Gram takes 0.2 s
_FACTOR_RANKS = {50: lambda n: range(n + 1), 300: lambda n: {n // 2, n - n % 2}, 1000: lambda n: {5 * n % (n + 1)}}


@pytest.mark.parametrize("digits", (50, 300, 1000))
def test_rank_step_matches_eigenvalues_of_random_grams(digits):
    # G = B B^H for B of n rows and r columns, each column scaled by
    # 10^-e: e in [0, 4], or for every third G one column next to the cut,
    # e = digits/2 + [-2.5, 2.5], where eigenvalue and pivots decide alike
    # only within the band's factor 10^3
    rng = random.Random(digits)
    decided = near_decided = near = 0
    with mp.workdps(digits + GUARD):
        for n in range(1, rtorsion.COMPLEX_SIZE_MAX + 1):
            for r in sorted(_FACTOR_RANKS[digits](n)):
                cplx = (n + r) % 2 == 1
                scales = [rng.uniform(0, 4) for _ in range(r)]
                if r and (n + r) % 3 == 0:
                    scales[rng.randrange(r)] = digits / 2 + rng.uniform(-2.5, 2.5)
                b = mp.matrix(n, max(r, 1))
                for j, e in enumerate(scales):
                    for i in range(n):
                        x = mp.mpf(rng.gauss(0, 1)) * mp.mpf(10) ** -e
                        b[i, j] = mp.mpc(x, rng.gauss(0, 1) * mp.mpf(10) ** -e) if cplx else x
                g = b * b.H
                if r and (n + r) % 3 == 0:
                    # that column may fall below the cut, where the factor
                    # drops at most cut/10^3
                    cut = rank_cutoff(digits) ** 2 * mp.mnorm(g, "F")
                    near += 1
                    near_decided += _factor_against_eigenvalues(g, digits, cut / 1000)
                else:
                    ok = _factor_against_eigenvalues(g, digits)
                    # away from the cut the bounds always decide
                    assert ok, (n, r)
                    decided += 1
    assert decided and near


@pytest.mark.parametrize("digits", (50, 300))
def test_rank_step_on_kahan_grams(digits):
    # G = R^H R for Kahan's R = diag(1, s, .., s^(n-1)) (I - c U), U the
    # strict upper ones, c^2 + s^2 = 1: every diagonal entry of G and of
    # each Schur complement is a tie, so the pivots are s^(2k), and the
    # smallest eigenvalue lies far below the last pivot.  With s^(2(n-1))
    # from 10^(3 - digits) to 10^(-7 - digits), the eigenvalue rule gives
    # n, n - 1 or RankAmbiguous, and the factor the same or RankAmbiguous,
    # and it refuses a rank the eigenvalue rule gives at least once.  The
    # factor drops a Schur complement of trace at most cut/10^3 where the
    # eigenvalues leave out the smallest one
    refused = 0
    with mp.workdps(digits + GUARD):
        for n in (6, 12):
            for x in range(-3, 8):
                s = mp.mpf(10) ** (-mp.mpf(digits + x) / (2 * n - 2))
                c = mp.sqrt(1 - s * s)
                kahan = mp.matrix(n, n)
                for i in range(n):
                    kahan[i, i] = s**i
                    for j in range(i + 1, n):
                        kahan[i, j] = -c * s**i
                g = kahan.H * kahan
                cut = rank_cutoff(digits) ** 2 * mp.mnorm(g, "F")
                decided = _factor_against_eigenvalues(g, digits, cut / 1000)
                refused += not decided and eigenvalue_rank(g, digits) is not None
    assert refused


@pytest.mark.parametrize("digits", (50, 300, 1000))
def test_rank_step_keeps_a_small_scalar_differential(digits):
    # the 1 x 1 Grams of 0 -> R --(m/10^e)--> R -> 0 with e near digits/4,
    # the shape of perfbench's conditioning slice: rank 1 and det' = x^2
    with mp.workdps(digits + GUARD):
        for e in range(digits // 4 - 2, digits // 4 + 3):
            for m in (1, 3, 7, 99):
                x = mp.mpf(m) / mp.mpf(10) ** e
                assert _factor_against_eigenvalues(mp.matrix([[x * x]]), digits)
                assert rtorsion._rank_and_det([[x * x]], rank_cutoff(digits) ** 4, "G") == (1, x * x)


def test_inverse_norm_of_the_factor_is_mpmaths():
    # the kept side's bound reads |G^-1|_F^2 off the factor of a positive
    # definite G, every step taken: the square of mpmath's Frobenius norm
    # of its inverse
    rng = random.Random(7)
    with mp.workdps(60):
        for n in range(1, 7):
            b = mp.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    b[i, j] = mp.mpc(rng.gauss(0, 1), rng.gauss(0, 1)) if n % 2 else rng.gauss(0, 1)
            g = b * b.H + mp.eye(n)
            pivots, order, l = rtorsion._ldl([[g[i, j] for j in range(i + 1)] for i in range(n)], 0)
            want = mp.mnorm(mp.inverse(g), "F") ** 2
            assert len(pivots) == n
            assert abs(rtorsion._inverse_frobenius2(pivots, order, l) / want - 1) < mp.mpf(10) ** -50


def test_rank_step_refuses_what_the_eigenvalue_rule_refuses_at_few_digits():
    # at 1 and 2 digits the band about the cut c^2 |G|_F, a factor 10^3 on
    # either side, holds the one nonzero eigenvalue of a rank-one Gram: the
    # eigenvalue rule refuses it, and the factor on its one pivot, though
    # the Schur complement it leaves is 0
    for digits in (1, 2):
        with mp.workdps(digits + GUARD):
            for g in ([[3]], [[1, 0], [0, 0]], [[4, 2], [2, 1]]):
                assert eigenvalue_rank(mp.matrix(g), digits) is None
                assert not _factor_against_eigenvalues(mp.matrix(g), digits)


def _cohomology_complexes():
    field, _ = field_units("zsqrt2")
    free = _free_cohomology_complex(field)
    places = [at_place(free, k) for k in range(field.n_places)]
    places += [metrized_complex_at_place(*_embedded(free, k)) for k in range(field.n_places)]
    places += [
        at for at in _corpus_places()
        if any(spec.free_rank for spec in at.complex.cohomology) and all(at.complex.lengths)
    ]
    return places


def test_reidemeister_converts_no_matrix(monkeypatch):
    # a scalar times an mp.matrix, scalar first, goes through a failed
    # conversion whose message holds the repr of the whole matrix
    places = _cohomology_complexes()
    assert len(places) > 4
    ctx = type(mp)
    calls = []
    fallback = ctx._convert_fallback

    def spy(self, x, strings):
        calls.append(type(x).__name__)
        return fallback(self, x, strings)

    monkeypatch.setattr(ctx, "_convert_fallback", spy)
    for at in places:
        reidemeister(at)
    assert calls == []


def test_basis_determinants_over_a_known_irreducible_take_no_exact_ranks(monkeypatch):
    # over Z[zeta5], whose p is Phi_5, delta_i != 0 in K settles every place:
    # nonzero_places takes no resultant there
    field, _ = field_units("zeta5")
    assert field.known_irreducible
    calls = []
    monkeypatch.setattr(
        numfield, "_subresultant_prs", _counting(calls, "resultant", numfield._subresultant_prs)
    )
    rng = random.Random(505)
    complexes = [random_complex_over(field, rng) for _ in range(3)]
    assert calls == []
    for cplx in complexes:
        assert all(not d.is_zero() for deltas in cplx.deltas for d in deltas)
        for k in range(field.n_places):
            tau = torsion_by_contraction(at_place(cplx, k))
            with mp.workdps(60):
                assert abs(tau / reidemeister(at_place(cplx, k)) - 1) < mp.mpf(10) ** -40
    # a delta_i that is 0 in K is 0 at every place, and refuses the complex
    two, zero, one = field.element([2]), field.zero(), field.one()
    with pytest.raises(ValidationError, match="dependent"):
        build_complex_over_r(
            field, (1, 2), ([[two], [zero]],), [[EYE1] * 2, [EYE2] * 2],
            [CohomologySpec(0), CohomologySpec(1, ((one,), (zero,)), ([[1]], [[1]]))],
        )
    assert calls == []



# The exact zero tests of build_complex_over_r pack both factors of a
# product (Kronecker substitution); the oracle multiplies FieldElements one
# term at a time.


def _entrywise_product(field, left, right):
    out = []
    for row in left:
        out.append([])
        for c in range(len(right[0]) if right else 0):
            acc = field.zero()
            for t, x in enumerate(row):
                acc = field.add(acc, field.mul(x, right[t][c]))
            out[-1].append(acc)
    return out


def _entrywise_product_is_zero(field, left, right):
    return all(x.is_zero() for row in _entrywise_product(field, left, right) for x in row)


def _zero_product_pair(field, rng, m, t, n):
    # (A | 0) U^-1 and U (0 ; B) for a product U of shears: their product is
    # 0 in K, though no term of it is
    def elem():
        return field.element(
            [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(field.degree)]
        )

    k = rng.randint(1, t - 1)
    u = [[field.one() if i == j else field.zero() for j in range(t)] for i in range(t)]
    ui = [row[:] for row in u]
    for _ in range(3 * t):
        a, b = rng.sample(range(t), 2)
        c = elem()
        u[a] = [field.add(x, field.mul(c, y)) for x, y in zip(u[a], u[b])]
        for row in ui:
            row[b] = field.sub(row[b], field.mul(row[a], c))
    left = [[elem() if j < k else field.zero() for j in range(t)] for _ in range(m)]
    right = [[field.zero() if i < k else elem() for _ in range(n)] for i in range(t)]
    return _entrywise_product(field, left, ui), _entrywise_product(field, u, right)


@pytest.mark.parametrize("poly", ((-2, 0, 1), (1,) * 7), ids=("zsqrt2", "zeta7"))
def test_packed_zero_products_match_entrywise_products(poly):
    field = build_field(poly, 50)
    rng = random.Random(len(poly))
    is_zero = numfield.product_is_zero
    for m, t, n in ((1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 2)):
        left, right = _zero_product_pair(field, rng, m, t, n)
        assert any(not x.is_zero() for row in left for x in row)
        assert is_zero(field, left, right) and _entrywise_product_is_zero(field, left, right)
        # one perturbed entry, on a row of right that is not zero
        j = next(j for j, row in enumerate(right) if any(not x.is_zero() for x in row))
        bad = [row[:] for row in left]
        r = rng.randrange(m)
        bad[r][j] = field.add(bad[r][j], field.element([Fraction(1, 3)]))
        assert not is_zero(field, bad, right) and not _entrywise_product_is_zero(field, bad, right)
    # x times x^(n-1) less x^n mod p, of degree < n, is zero only modulo p
    x = field.gen()
    high = field.element([0] * (field.degree - 1) + [1])
    top = field.mul(x, high)
    for last, zero in ((top, True), (field.add(top, field.one()), False)):
        args = (field, [[x, field.neg(field.one())]], [[high], [last]])
        assert is_zero(*args) is zero is _entrywise_product_is_zero(*args)
    # empty factors
    for left, right in (([], [[x]]), ([[]], []), ([[x]], [[]])):
        assert is_zero(field, left, right) and _entrywise_product_is_zero(field, left, right)
