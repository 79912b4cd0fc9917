"""Number-ring construction, embeddings, norms, and unit verification.

Oracles: mpmath's sqrt and closed-form roots for embedding values, the
Aberth-Ehrlich iteration in support.aberth_roots for roots that build_field
takes from mp.polyroots or from the closed form, the product of embeddings
for the norm, and exact Fraction arithmetic for ring laws.
"""

import json
import random
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from regtor import (
    FieldElement,
    NoConvergence,
    NotAUnit,
    NotSquarefree,
    ValidationError,
    build_field,
    dirichlet_rank,
    embed,
    embed_all,
    make_cyclotomic_setup,
    norm,
    parse_descriptor,
    parse_rational,
    verify_unit,
)
from regtor import numfield
from regtor.cli import main
from support import (
    aberth_roots,
    chain_table,
    coprime,
    fdot_embed,
    field_units,
    fraction_det,
    load_descriptor,
    monic_gcd,
    raw_value,
    sylvester_resultant,
    ulps_off,
)

small_coeffs = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=1, max_size=4
)


def test_quadratic_field_places():
    field, _ = field_units("zsqrt2")
    assert field.degree == 2
    assert field.r_real == 2 and field.r_complex == 0
    assert field.is_real_place(0) and field.is_real_place(1)
    with mp.workdps(60):
        root = mp.sqrt(2)
        assert abs(field.sigma_star[0] + root) < mp.mpf(10) ** -49
        assert abs(field.sigma_star[1] - root) < mp.mpf(10) ** -49


def test_cyclotomic_field_places():
    field, _ = field_units("zeta5")
    assert field.degree == 4
    assert field.r_real == 0 and field.r_complex == 2
    assert not field.is_real_place(0)
    with mp.workdps(60):
        tol = mp.mpf(10) ** -49
        # ordered by real part: angle 4 pi / 5 first, then 2 pi / 5
        assert abs(field.sigma_star[0] - mp.expjpi(mp.mpf(4) / 5)) < tol
        assert abs(field.sigma_star[1] - mp.expjpi(mp.mpf(2) / 5)) < tol
        for z in field.sigma_star:
            assert abs(abs(z) - 1) < tol
            assert abs(z ** 5 - 1) < tol


def oracle_embeddings(poly, digits):
    """Aberth roots in the documented place order: real roots ascending, then
    positive-imaginary roots by real part (distinct here), then conjugates."""
    with mp.workdps(digits + 20):
        roots = aberth_roots(list(poly), digits)
        cut = mp.mpf(10) ** (-digits / 2)
        reals = sorted(z.real for z in roots if abs(z.imag) <= cut)
        pos = sorted((z for z in roots if z.imag > cut), key=lambda z: z.real)
        return len(reals), len(pos), reals + pos + [mp.conj(z) for z in pos]


def test_roots_of_unity_field_matches_aberth():
    # The closed-form embeddings agree with generic root finding, place by
    # place, for odd and even orders (r = 2, 4, 6, 12 have the real root -1).
    for r in range(2, 14):
        fields = [build_field([1] * r, 50)]
        if r in (3, 5, 7, 11, 13):
            fields.append(make_cyclotomic_setup(r, 50).field)
        r_real, r_complex, want = oracle_embeddings([1] * r, 50)
        for field in fields:
            assert field.poly == (1,) * r
            assert (field.r_real, field.r_complex) == (r_real, r_complex)
            assert len(field.all_embeddings) == r - 1
            with mp.workdps(70):
                for a, b in zip(field.all_embeddings, want):
                    assert abs(a - b) < mp.mpf(10) ** -50, r


@pytest.mark.parametrize(
    "r, digits",
    [(r, 50) for r in range(2, 14)] + [(61, 50), (61, 300), (31, 1000), (61, 1000)],
)
def test_roots_of_unity_take_the_upper_half(monkeypatch, r, digits):
    # Only e^{2 pi i k/r} with 2k <= r is evaluated, each by one mp.expjpi at
    # an angle in [0, 1/4]; the field stores the full list of r - 1 roots in
    # the documented order: real roots ascending, then the upper roots by
    # real part, then their conjugates, each within one unit of
    # 10^-(digits + 2 GUARD) of the closed form at twice the digits, and
    # exactly +-1 or +-i where 4k = 0 (mod r).
    expjpi = mp.expjpi
    with mp.workdps(2 * digits):
        roots = {k: expjpi(mp.mpf(2 * k) / r) for k in range(1, r)}
    reals = sorted((k for k, z in roots.items() if z.imag == 0), key=lambda k: roots[k].real)
    upper = sorted((k for k, z in roots.items() if z.imag > 0), key=lambda k: roots[k].real)
    order = reals + upper + [r - k for k in upper]
    calls = []
    monkeypatch.setattr(mp, "expjpi", lambda x: calls.append(x) or expjpi(x))
    field = build_field((1,) * r, digits)
    assert len(calls) == r // 2
    assert all(0 <= x <= mp.mpf(1) / 4 for x in calls), calls
    assert field.sigma_star == field.all_embeddings[: len(reals) + len(upper)]
    assert len(field.all_embeddings) == len(order)
    with mp.workdps(2 * digits):
        for k, z in zip(order, field.all_embeddings):
            assert abs(z - roots[k]) <= mp.mpf(10) ** -(digits + 2 * numfield.GUARD), k
            if 4 * k % r == 0:
                assert z == roots[k] and roots[k] in (1, -1, 1j, -1j), k
    # every power of every place is read from those roots: none is evaluated anew
    for k in range(field.n_places):
        numfield._powers(field, k)
    assert len(calls) == r // 2


@pytest.mark.parametrize("digits", (15, 50, 300, 1000))
def test_unit_power_tables_match_the_product_chain(digits):
    # every power of a place of 1 + x + ... + x^(r-1) is read from the
    # closed-form roots; for prime r, and for r = 2 and 4, each table is
    # bit for bit the one a product chain at digits + 3 GUARD, rounded once
    # to digits + GUARD, gives
    for r in (2, 3, 4, 5, 7, 11, 13, 31, 61):
        field = build_field((1,) * r, digits)
        for k in range(field.n_places):
            assert numfield._powers(field, k) == chain_table(field, k), (r, k)


@pytest.mark.parametrize("digits", (15, 50, 300, 1000))
def test_unit_power_tables_of_composite_order_are_exact_at_one(digits):
    # for composite r the closed form is exact where the product chain
    # leaves rounding: a power zeta^(jk) with jk = 0 mod r is exactly 1 with
    # an imaginary part of exactly 0; every other power is within one unit
    # of digits + GUARD of the chain
    unit = mp.mpf(10) ** -(digits + numfield.GUARD)
    for r in (6, 9, 12):
        field = build_field((1,) * r, digits)
        for place in range(field.n_places):
            k = r // 2 - place
            e, re, im = numfield._powers(field, place)
            ce, cre, cim = chain_table(field, place)
            im, cim = im or (0,) * len(re), cim or (0,) * len(cre)
            with mp.workdps(digits + 3 * numfield.GUARD):
                for j in range(field.degree):
                    got = mp.mpc(mp.ldexp(re[j], e), mp.ldexp(im[j], e))
                    want = mp.mpc(mp.ldexp(cre[j], ce), mp.ldexp(cim[j], ce))
                    if j * k % r == 0:
                        assert got == 1 and im[j] == 0, (r, place, j)
                    assert abs(got - want) <= unit, (r, place, j)


@pytest.mark.parametrize("r, digits", [(5, 50), (61, 300)])
def test_unit_root_backward_error_still_bites(monkeypatch, tmp_path, capsys, r, digits):
    # one closed-form root off by a relative 10^-(digits - GUARD - 3) is
    # refused, by build_field and by field-info with exit 3; one off by
    # 10^-(digits + GUARD) is within the bound
    expjpi = mp.expjpi

    def perturb_first_root(eps):
        calls = []

        def perturbed(x):
            calls.append(x)
            z = expjpi(x)
            return z * (1 + eps) if len(calls) == 1 else z

        monkeypatch.setattr(mp, "expjpi", perturbed)

    perturb_first_root(mp.mpf(10) ** -(digits + numfield.GUARD))
    assert build_field((1,) * r, digits).degree == r - 1
    far = mp.mpf(10) ** -(digits - numfield.GUARD - 3)
    perturb_first_root(far)
    with pytest.raises(NoConvergence, match="^root backward error exceeds the precision bound$"):
        build_field((1,) * r, digits)
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"poly": [1] * r, "digits": digits}))
    perturb_first_root(far)
    assert main(["field-info", "--field", str(path)]) == 3
    assert "root backward error exceeds the precision bound" in capsys.readouterr().err


def test_unit_places_take_no_complex_product(monkeypatch):
    # build_field and every power table of Phi_61 at 1000 digits read the
    # closed-form roots with additions only: no mpc product runs
    products = []
    for name in ("__mul__", "__rmul__"):
        method = getattr(mp.mpc, name)
        monkeypatch.setattr(
            mp.mpc, name, lambda a, b, method=method: products.append(1) or method(a, b)
        )
    field = build_field((1,) * 61, 1000)
    for k in range(field.n_places):
        numfield._powers(field, k)
    assert not products


def _per_place_table(field, place):
    """The powers of one place of 1 + x + ... + x^(r-1), read from the
    closed-form roots and rounded once to digits + GUARD, as integers over
    their own least binary exponent: (e, re, im).  Place i is zeta^k with
    k = r//2 - i, and zeta^m is sigma_star[r//2 - m] for 2m <= r and the
    conjugate of zeta^(r-m) otherwise."""
    r = len(field.poly)

    def zeta(m):
        if m == 0:
            return mp.mpf(1)
        if 2 * m <= r:
            return field.sigma_star[r // 2 - m]
        return mp.conj(field.sigma_star[r // 2 - (r - m)])

    with mp.workdps(field.digits + numfield.GUARD):
        chain = [+zeta(j * (r // 2 - place) % r) for j in range(field.degree)]
    parts = [w.real for w in chain] + [w.imag for w in chain]
    e = min(x.man_exp[1] for x in parts if x)
    ints = [int(mp.ldexp(x, -e)) for x in parts]
    return e, ints[: len(chain)], ints[len(chain) :]


@pytest.mark.parametrize("digits", (50, 1000))
def test_unit_places_share_one_power_table(monkeypatch, digits):
    # Every place of Phi_r reads its powers from one table of 1, the
    # closed-form roots and their conjugates, converted to integers once per
    # field at the field-wide least exponent.  Each embed is bit for bit the
    # one a table of that place alone gives: its exact dot product rounded
    # once to digits + GUARD, then divided by the common denominator.
    rng = random.Random(digits)
    conversions = []
    int_parts = numfield._int_parts
    monkeypatch.setattr(numfield, "_int_parts", lambda parts: conversions.append(1) or int_parts(parts))
    for r in (3, 5, 7, 31, 61):
        field = build_field((1,) * r, digits)
        elems = [
            [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**9)) for _ in range(r - 1)]
            for _ in range(3)
        ] + [[1], [0, 1], [Fraction(-1, 3)] * (r - 1)]
        conversions.clear()
        for place in range(field.n_places):
            e, re, im = _per_place_table(field, place)
            for coeffs in elems:
                x = field.element(coeffs)
                den = 1
                for c in x.coeffs:
                    den = den * c.denominator // gcd(den, c.denominator)
                nums = [c.numerator * (den // c.denominator) for c in x.coeffs]
                with mp.workdps(digits + numfield.GUARD):
                    want = mp.mpc(
                        *(mp.ldexp(mp.mpf(sum(map(mul, nums, t))), e) / den for t in (re, im))
                    )
                assert raw_value(embed(field, x, place)) == raw_value(want), (r, place)
        assert len(conversions) == 1, r
        assert len({field._memo["powers", k][0] for k in range(field.n_places)}) == 1, r


def test_rational_field():
    field, units = field_units("z")
    assert field.degree == 1
    assert field.r_real == 1 and field.r_complex == 0
    assert dirichlet_rank(field) == 0
    assert norm(field, field.element([Fraction(7)])) == 7


def test_embedding_residuals_meet_bound():
    for poly in ([-2, 0, 1], [1, 1, 1, 1, 1], [-1, -1, 0, 0, 0, 1]):
        field = build_field(poly, 50)
        with mp.workdps(70):
            bound = mp.mpf(10) ** -40
            for z in field.all_embeddings:
                val = mp.polyval([1] + list(reversed(poly[:-1])), z)
                assert abs(val) < bound


def test_quintic_against_polyroots():
    # x^5 - x - 1 has one real root and two conjugate pairs; build_field's
    # roots come from mp.polyroots, so the oracle is the Aberth iteration.
    field = build_field([-1, -1, 0, 0, 0, 1], 50)
    assert field.r_real == 1 and field.r_complex == 2
    r_real, r_complex, want = oracle_embeddings([-1, -1, 0, 0, 0, 1], 50)
    assert (r_real, r_complex) == (1, 2)
    with mp.workdps(70):
        for a, b in zip(field.all_embeddings, want):
            assert abs(a - b) < mp.mpf(10) ** -50


def test_complex_roots_sharing_a_real_part_pair_up():
    # Each product has two conjugate pairs with the same real part; the
    # places are ordered by imaginary part, i before sqrt(2) i.
    cases = [
        ([2, 0, 3, 0, 1], (50, 60), (0, 0), (1, 2)),  # (x^2+1)(x^2+2)
        ([2, 3, 4, 2, 1], (30, 50, 80, 300), (-0.5, -0.5), (0.75, 1.75)),  # (x^2+x+1)(x^2+x+2)
        ([10, 14, 11, 4, 1], (100,), (-1, -1), (1, 4)),  # (x^2+2x+2)(x^2+2x+5)
    ]
    for poly, digit_list, re_parts, im_squares in cases:
        for digits in digit_list:
            field = build_field(poly, digits)
            assert (field.r_real, field.r_complex) == (0, 2)
            with mp.workdps(digits + 20):
                tol = mp.mpf(10) ** (-digits + 1)
                want = [mp.mpc(re, mp.sqrt(im2)) for re, im2 in zip(re_parts, im_squares)]
                want += [mp.conj(z) for z in want]
                for a, b in zip(field.all_embeddings, want):
                    assert abs(a - b) < tol, (poly, digits)


def test_wilkinson_polynomial_builds():
    # (x - 1)(x - 2)...(x - 20): its roots are condition-sensitive enough to
    # stall a root finder that works only a few digits past the target.
    poly = [1]
    for k in range(1, 21):
        poly = [a - k * b for a, b in zip([0] + poly, poly + [0])]
    field = build_field(poly, 50)
    assert (field.r_real, field.r_complex) == (20, 0)
    with mp.workdps(70):
        for k, x in enumerate(field.sigma_star, start=1):
            assert abs(x - k) < mp.mpf(10) ** -45


@pytest.mark.parametrize("digits", (50, 100))
def test_large_roots_are_judged_by_backward_error(digits):
    # x^2 - (10^41 + 1): p(z) carries the rounding of z^2 ~ 10^41, far above
    # 10^-(digits - 10) at any precision, while the backward error
    # |p(z)| / (|z|^2 + 10^41 + 1) stays at the working epsilon
    c = 10**41 + 1
    field = build_field([-c, 0, 1], digits)
    assert (field.r_real, field.r_complex) == (2, 0)
    with mp.workdps(digits + 10):
        root = mp.sqrt(c)
        assert abs(field.sigma_star[0] + root) / root < mp.mpf(10) ** -digits
        assert abs(field.sigma_star[1] - root) / root < mp.mpf(10) ** -digits


def test_embed_keeps_one_power_table_per_place():
    field, _ = field_units("zeta5")
    x = field.element([Fraction(1, 3), -2, Fraction(5, 7), 4])
    with mp.workdps(70):
        for k, z in enumerate(field.sigma_star):
            want = sum(mp.mpf(c.numerator) / c.denominator * z**j for j, c in enumerate(x.coeffs))
            assert abs(embed(field, x, k) - want) < mp.mpf(10) ** -58
    assert sorted(field._memo) == [("powers", 0), ("powers", 1)]
    table = field._memo["powers", 1]
    embed(field, field.gen(), 1)
    assert field._memo["powers", 1] is table
    # the table stays outside equality, repr and copies
    assert field == build_field(field.poly, field.digits) and "_memo" not in repr(field)


@pytest.mark.parametrize("digits", (50, 300, 1000))
def test_embed_rounds_as_fdot(digits):
    # the integer dot product with one table of powers per place gives the
    # raw value mp.fdot over the mpf powers gives, real and complex; the
    # large root of x^2 - (10^41 + 1) spreads the exponents of its powers
    rng = random.Random(digits)
    fixed = [[0], [7], [10**20 + 3], [Fraction(7, 10**250)], [Fraction(-1, 3), 10**20 + 3]]
    for poly in ([-2, 0, 1], [1] * 4, [1] * 5, [1] * 11, [1] * 61, [-(10**41 + 1), 0, 1]):
        field = build_field(poly, digits)
        elems = fixed + [
            [Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**12)) for _ in poly[1:]]
            for _ in range(4)
        ]
        for coeffs in elems:
            x = field.element(coeffs)
            for k in range(field.n_places):
                assert raw_value(embed(field, x, k)) == raw_value(fdot_embed(field, x, k))
        for k in range(field.n_places):
            e, re, im = field._memo["powers", k]
            assert all(type(v) is int for v in (e, *re, *(im or ())))
            assert (im is None) == field.is_real_place(k)


def test_embed_sums_exactly_where_fdot_drops_a_term():
    # z^3 = 2: with z^2 rounded to m 2^e and K = 500 - e, the element
    # -m 2^(e+K) + z + 2^K z^2 is the rounded z, exactly, while mp.fdot,
    # which drops the term z lying more than twice the precision below the
    # running sum, returns the cancellation of the other two: 0
    field = build_field([-2, 0, 0, 1], 50)
    e, re, _ = numfield._powers(field, 0)
    k = 500 - e
    x = field.element([-re[2] * 2 ** (e + k), 1, 2**k])
    assert fdot_embed(field, x, 0) == 0
    with mp.workdps(field.digits + 10):
        assert embed(field, x, 0) == mp.ldexp(re[1], e) == +field.sigma_star[0]


def test_known_irreducible_reads_only_the_form_of_p():
    known = {
        (0, 1): True, (5, 1): True, (1, 1): True, (1,) * 5: True, (1,) * 61: True,
        # 1 + x + x^2 + x^3 = (1 + x)(1 + x^2), and 1 + ... + x^5 is Phi_2 Phi_3 Phi_6
        (1,) * 4: False, (1,) * 6: False, (-2, 0, 1): False, (6, 0, -5, 0, 1): False,
    }
    for poly, want in known.items():
        assert build_field(poly, 30).known_irreducible is want, poly


def test_root_finder_failure_is_no_convergence(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(numfield, "_POLYROOTS_STEPS", 1)
    with pytest.raises(NoConvergence):
        build_field([-1, -1, 0, 0, 0, 1], 50)
    path = tmp_path / "quintic.json"
    path.write_text('{"poly": [-1, -1, 0, 0, 0, 1]}')
    assert main(["field-info", "--field", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err


def test_degree_bound_precedes_root_finding(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("polyroots called above the degree bound")

    monkeypatch.setattr(numfield.mp, "polyroots", refuse)
    too_long = numfield.DEGREE_MAX + 1
    for poly in ([-2] + [0] * (too_long - 1) + [1], [1] * (too_long + 1)):
        with pytest.raises(ValidationError, match=str(numfield.DEGREE_MAX)):
            build_field(poly, 50)
    assert build_field([1] * (numfield.DEGREE_MAX + 1), 30).degree == numfield.DEGREE_MAX


def test_build_field_rejects_bad_polynomials():
    with pytest.raises(ValidationError):
        build_field([2, 2], 50)  # not monic
    with pytest.raises(ValidationError):
        build_field([], 50)
    with pytest.raises(ValidationError):
        build_field([1], 50)  # constant
    with pytest.raises(NotSquarefree):
        build_field([0, 0, 1], 50)  # x^2
    with pytest.raises(NotSquarefree):
        build_field([4, 0, -4, 0, 1], 50)  # (x^2 - 2)^2
    # int() would read 2.5 as 2 and True as 1; an integral Fraction is an integer
    for poly, orders in (
        ((-2, 0, True), ()),
        ((-2, Fraction(1, 2), 1), ()),
        ((float("inf"), 0, 1), ()),
        ((-2, 0, 1), (2.5, True)),
        ((-2, 0, 1), ("2",)),
    ):
        with pytest.raises(ValidationError, match="integer"):
            build_field(poly, 50, class_orders=orders)
    assert build_field((-2, 0, 1), 50, class_orders=(Fraction(2), 3)).class_orders == (2, 3)


@pytest.mark.parametrize("case", ("delete a field", "compare with a tuple", "non-square", "digits 0"))
def test_numfield_refusals(case):
    field = build_field((-2, 0, 1), 30)
    one = field.one()
    if case == "compare with a tuple":
        # a record leaves the comparison with another type to that type
        assert one.__eq__(one.coeffs) is NotImplemented and one != one.coeffs
        return
    call, error, message = {
        "delete a field": (lambda: delattr(one, "coeffs"), AttributeError, "cannot delete field"),
        "non-square": (lambda: numfield.exact_det(field, [[one, one]]), ValidationError, "square"),
        "digits 0": (lambda: build_field((-2, 0, 1), 0), ValidationError, "digits must be positive"),
    }[case]
    with pytest.raises(error, match=message):
        call()


def test_build_field_accepts_reducible_squarefree():
    field = build_field([-1, 0, 1], 50)  # (x-1)(x+1)
    assert field.r_real == 2
    assert norm(field, field.gen()) == -1


def test_squarefree_test_matches_euclid():
    # build_field rejects p exactly when Euclid over Q finds gcd(p, p') nonconstant.
    rng = random.Random(12)

    def monic(degree):
        return [rng.randint(-4, 4) for _ in range(degree)] + [1]

    rejected = 0
    for _ in range(40):
        if rng.random() < 0.5:
            f = monic(rng.randint(1, 3))
            g = monic(rng.randint(0, 6))
            p = [int(c) for c in numfield.poly_mul(numfield.poly_mul(f, f), g)]
        else:
            p = monic(rng.randint(1, 12))
        n = len(p) - 1
        if coprime(p, [k * p[k] for k in range(1, n + 1)]):
            assert build_field(p, 30).degree == n
        else:
            rejected += 1
            with pytest.raises(NotSquarefree):
                build_field(p, 30)
    assert rejected >= 15


def test_all_ones_polynomial_passes_the_squarefree_test(monkeypatch):
    # 1 + x + ... + x^{r-1} vanishes at the distinct r-th roots of unity other
    # than 1: the exact test takes Res(p, p') and passes it for every r, and
    # refuses a square such as (x^2 + 1)^2
    calls = []
    resultant = numfield._resultant
    monkeypatch.setattr(numfield, "_resultant", lambda p, q: calls.append(p) or resultant(p, q))
    for r in range(2, numfield.DEGREE_MAX + 2):
        assert build_field([1] * r, 30).degree == r - 1
        assert calls.pop() == (1,) * r
    with pytest.raises(NotSquarefree):
        build_field([1, 0, 2, 0, 1], 30)


def test_int_bareiss_det_matches_fractions():
    # half of the entries are zero, so pivots are found by column swaps; a
    # row that is a combination of two others, a zero row or a zero column
    # makes the matrix singular, and the determinant 0
    rng = random.Random(19)
    assert numfield._int_bareiss_det([]) == 1
    assert numfield._int_bareiss_det([[0, 1], [1, 0]]) == -1
    assert numfield._int_bareiss_det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    singular = 0
    for _ in range(150):
        n = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        kind = rng.randrange(8)
        if n > 2 and kind == 1:
            a, b, c = rng.sample(range(n), 3)
            m[c] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(m[a], m[b])]
        elif kind == 2:
            m[rng.randrange(n)] = [0] * n
        elif kind == 3:
            col = rng.randrange(n)
            for row in m:
                row[col] = 0
        want = fraction_det(m)
        singular += want == 0
        before = [row[:] for row in m]
        assert numfield._int_bareiss_det(m) == want
        assert m == before
    assert 40 <= singular <= 110


def test_resultant_matches_sylvester():
    # det q(C_p) on Z[x]/(p) against the (n + m)-square Sylvester determinant:
    # q of higher and equal degree than p, of lower degree, and constant
    rng = random.Random(60)

    def poly(degree, lead=1):
        return [rng.randint(-9, 9) for _ in range(degree)] + [lead]

    pairs = []
    for n in (1, 2, 3, 7, 16, 33, 60):
        p = poly(n)
        for m in (n, n + rng.randint(1, 6), rng.randint(1, n)):
            pairs.append((p, poly(m, rng.choice((-3, -1, 1, 2, 7)))))
        pairs.append((p, [rng.choice((-5, 2, 3))]))
    # sparse pairs whose remainder degree drops by 2 or more after the first
    # step: x^5 + 1 and x^3 + x (drops 2, 2), x^7 - 1 and x^4 + x^2 + 1
    # (drops 3, 3)
    assert numfield._resultant([1, 0, 0, 0, 0, 1], [0, 1, 0, 1]) == -2
    assert numfield._resultant([-1, 0, 0, 0, 0, 0, 0, 1], [1, 0, 1, 0, 1]) == 3

    def sparse(degree, lead):
        return [rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(degree)] + [lead]

    batch = [(sparse(rng.randint(1, 14), 1), sparse(rng.randint(0, 16), rng.choice((-3, -1, 1, 2))))
             for _ in range(300)]
    abnormal = 0
    for p, q in batch:
        # the remainder degrees, by Euclid over Q
        seq = [p, numfield.poly_divmod(q, p)[1]]
        while len(seq[-1]) > 1:
            seq.append(numfield.poly_divmod([Fraction(c) for c in seq[-2]], seq[-1])[1])
        abnormal += any(len(a) - len(b) >= 2 for a, b in zip(seq[1:], seq[2:]))
    assert abnormal >= 100, abnormal
    for p, q in pairs + batch:
        assert numfield._resultant(p, q) == sylvester_resultant(p, q)
    # a shared factor makes both 0, and so does a q that p divides
    g = [-2, 0, 1]
    p = [int(c) for c in numfield.poly_mul(g, [3, 1, 0, 1])]
    for u in ([1, -1], [5, 0, 2, 1, 1]):
        q = [int(c) for c in numfield.poly_mul(g, u)]
        assert numfield._resultant(p, q) == sylvester_resultant(p, q) == 0
    assert numfield._resultant([2, 0, 1], [0, 0, 0, 4, 0, 2]) == 0
    assert numfield._resultant([-2, 0, 1], [3]) == 9


def test_subresultant_gcd_matches_euclid():
    # f = g h and e = g u share the roots of g; Euclid over Q is the oracle.
    # A gcd of degree d comes after d - 1 subresultants whose psc_j is 0.
    rng = random.Random(31)

    def poly(degree):
        return [rng.randint(-4, 4) for _ in range(degree)] + [1]

    degrees = [rng.randint(1, 3) for _ in range(30)] + [2, 3] * 10
    deep = 0
    for d in degrees:
        g, h = poly(d), poly(rng.randint(1, 4))
        f = [int(c) for c in numfield.poly_mul(g, h)]
        # deg u < deg h keeps deg e below deg f
        u = [rng.randint(-3, 3) for _ in range(rng.randint(0, len(h) - 2))] + [rng.choice((-2, 1, 3))]
        e = [int(c) for c in numfield.poly_mul(g, u)]
        want = monic_gcd(f, e)
        assert numfield._subresultant_prs(f, e) == (0, want)
        deep += len(want) > 3
    assert deep >= 10
    # sparse, with remainder degrees 4, 2: gcd(x^6 + 1, x^4 + x^2) is the
    # shared x^2 + 1
    f, e = [1, 0, 0, 0, 0, 0, 1], [0, 0, 1, 0, 1]
    assert numfield._subresultant_prs(f, e) == (0, [1, 0, 1]) and monic_gcd(f, e) == [1, 0, 1]
    assert numfield._subresultant_prs([-2, 0, 1], [3]) == (9, [1])


def test_norms_and_the_squarefree_test_take_no_elimination(monkeypatch):
    # norm, verify_unit and build_field's squarefree test take their
    # resultant by the remainder sequence, with no _bareiss call
    calls = []
    monkeypatch.setattr(numfield, "_bareiss", lambda *a, **k: calls.append(1))
    field = build_field([-3, 1, 0, 2, 0, 1], 30)
    assert norm(field, field.element([1, 1])) == sylvester_resultant(field.poly, [1, 1])
    assert not verify_unit(field, field.element([2]))
    with pytest.raises(NotSquarefree):
        build_field([4, 0, -4, 0, 1], 30)
    for name in ("zeta5", "zsqrt2"):
        field, units = field_units(name)
        assert all(verify_unit(field, v) for v in units)
    assert calls == []


def _transvections(field, rng, n, count):
    # a product of elementary matrices I + w E_kl with dense w: unimodular,
    # so it keeps the rank at every place
    u = [[field.one() if r == c else field.zero() for c in range(n)] for r in range(n)]
    for _ in range(count if n > 1 else 0):
        k, l = rng.sample(range(n), 2)
        w = field.element([rng.randint(-2, 2) for _ in range(field.degree)])
        u[k] = [field.add(x, field.mul(w, y)) for x, y in zip(u[k], u[l])]
    return u


def _mat_mul(field, a, b):
    out = []
    for row in a:
        out.append([field.zero()] * len(b[0]))
        for t, x in enumerate(row):
            out[-1] = [field.add(acc, field.mul(x, y)) for acc, y in zip(out[-1], b[t])]
    return out


SPLIT_FIELDS = pytest.mark.parametrize(
    "poly, factors",
    [
        ([2, 0, 3, 0, 1], ([1, 0, 1], [2, 0, 1])),  # (x^2 + 1)(x^2 + 2)
        ([-6, 11, -6, 1], ([-1, 1], [-2, 1], [-3, 1], [2, -3, 1])),  # (x - 1)(x - 2)(x - 3)
        ([-2, 0, 1], ()),
        ([1, 1, 1, 1, 1], ()),
    ],
)


def _vanishes(field, x, k):
    # the embedded value, far below any nonzero one of these small elements
    with mp.workdps(60):
        return abs(embed(field, x, k)) <= mp.mpf(10) ** -40


@SPLIT_FIELDS
def test_exact_ranks_follow_the_factors_of_p(poly, factors):
    # M = U D V with unimodular U, V and D diagonal in 1, 0 and factors of p:
    # at each place the rank counts the diagonal entries its root keeps
    # nonzero, read off the embedded values
    field = build_field(poly, 50)
    rng = random.Random(sum(poly))
    pool = [[1], [0], [2, 1]] + [list(f) for f in factors]
    for _ in range(12):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        diag = [field.element(rng.choice(pool)) for _ in range(min(rows, cols))]
        d = [[diag[r] if r == c else field.zero() for c in range(cols)] for r in range(rows)]
        m = _mat_mul(field, _transvections(field, rng, rows, 4), d)
        m = _mat_mul(field, m, _transvections(field, rng, cols, 4))
        want = tuple(
            sum(1 for x in diag if not _vanishes(field, x, k)) for k in range(field.n_places)
        )
        assert tuple(map(len, numfield.exact_pivots(field, m))) == want


@SPLIT_FIELDS
def test_nonzero_places_follow_the_embedded_values(poly, factors):
    # products and sums of the factors of p, and of elements that vanish
    # nowhere, are nonzero exactly at the places where |sigma(x)| is not 0
    field = build_field(poly, 50)
    rng = random.Random(len(poly))
    pool = [field.element(e) for e in [[1], [0], [2, 1], [0, 1], *factors]]
    elems = pool + [field.mul(rng.choice(pool), rng.choice(pool)) for _ in range(8)]
    elems += [field.add(rng.choice(pool), rng.choice(pool)) for _ in range(8)]
    assert any(not x.is_zero() and any(_vanishes(field, x, k) for k in range(field.n_places))
               for x in elems) == bool(factors)
    for x in elems:
        want = tuple(not _vanishes(field, x, k) for k in range(field.n_places))
        assert numfield.nonzero_places(field, x) == want, x


def test_exact_ranks_take_one_resultant_per_matrix(monkeypatch):
    # over an irreducible p only the last pivot's unit test needs a
    # resultant, and none when the form of p shows it irreducible (Phi_5):
    # there every nonzero residue is a unit
    calls = []
    prs = numfield._subresultant_prs
    monkeypatch.setattr(numfield, "_subresultant_prs", lambda f, e: calls.append(1) or prs(f, e))
    for name, want in (("zeta5", 0), ("zsqrt2", 1)):
        field, _ = field_units(name)
        assert field.known_irreducible == (want == 0)
        rng = random.Random(5)
        m = _mat_mul(field, _transvections(field, rng, 4, 8), _transvections(field, rng, 4, 8))
        calls.clear()
        assert tuple(map(len, numfield.exact_pivots(field, m))) == (4, 4)
        assert len(calls) == want
        calls.clear()
        assert numfield.exact_pivots(field, [[field.zero()] * 3] * 2) == ((), ())
        assert numfield.exact_pivots(field, []) == ((), ())
        assert calls == []


def test_element_reduction_and_arithmetic():
    field, _ = field_units("zsqrt2")
    a = field.gen()
    sq = field.mul(a, a)
    assert sq.coeffs == (Fraction(2), Fraction(0))
    long_input = field.element([0, 0, 1])  # x^2 -> 2
    assert long_input.coeffs == (Fraction(2), Fraction(0))
    u = field.element([1, 1])
    v = field.element([-1, 1])
    assert field.mul(u, v).coeffs == (Fraction(1), Fraction(0))


def test_element_of_another_degree_is_refused():
    # an element of Z[zeta5] has four coefficients; Z[sqrt2] took it as it was
    field, _ = field_units("zsqrt2")
    other, _ = field_units("zeta5")
    x = other.element([3, 1, 1, 1])
    with pytest.raises(ValidationError, match="an element with 4 coefficients is not in a "
                       "field of degree 2"):
        field.element(x)
    assert other.element(x) is x
    y = field.element([1, 1])
    assert field.element(y) is y


def test_element_of_another_field_is_refused():
    # Q(sqrt3) and Z[sqrt2] share the degree, so only the polynomial an
    # element keeps tells them apart: unchecked, Z[sqrt2] took sqrt3 as it
    # was and embed read it as -sqrt2
    field = build_field((-2, 0, 1), 50)
    x = build_field((-3, 0, 1), 50).element([0, 1])
    for use in (field.element, lambda y: embed(field, y, 0), lambda y: norm(field, y),
                field.neg, lambda y: field.add(field.one(), y), lambda y: field.sub(y, y),
                lambda y: field.mul(field.one(), y)):
        with pytest.raises(ValidationError, match="the element belongs to another field"):
            use(x)
    # a bare record belongs to no field, and the field that reads it adopts it
    bare = FieldElement((Fraction(0), Fraction(1)))
    assert bare.poly is None
    assert field.element(bare) == field.gen() and field.element(bare).poly == (-2, 0, 1)
    assert norm(field, bare) == -2


def test_element_reads_strings_through_parse_rational():
    # a string coefficient meets parse_rational's digit limit before a power
    # of ten of two million digits is built; other inputs keep their values
    field = build_field([-2, 0, 1], 50)
    with pytest.raises(ValueError, match="limit"):
        field.element(["1e2000000"])
    cases = [("1/3", Fraction(1, 3)), ("0.25", Fraction(1, 4)), ("-2.5e3", Fraction(-2500)),
             (7, Fraction(7)), (Fraction(2, 9), Fraction(2, 9)), (0.1, Fraction(0.1))]
    for given_, want in cases:
        assert field.element([given_, given_]).coeffs == (want, want)
    assert field.element(["1/2", 0, "3"]).coeffs == (Fraction(13, 2), Fraction(0))


def test_element_reads_every_coefficient_as_to_exact_does():
    # an mpf is the dyadic rational it is; NaN, text that is no number and
    # a complex value raised a bare ValueError or TypeError
    field = build_field([-2, 0, 1], 50)
    third = mp.mpf(1) / 3
    assert field.element([third]).coeffs == (numfield.to_exact(third)[0], 0)
    assert field.element([third]).coeffs[0] != Fraction(1, 3)
    assert field.element([0.5, mp.pi]).coeffs == (Fraction(1, 2), numfield.to_exact(mp.pi)[0])
    for bad, message in ((float("nan"), "not a number"), (mp.mpf("nan"), "not a number"),
                         ("abc", "not a number"), (1j, "must be real"),
                         ([1, 0], "must be real"), (mp.mpc(1, 0), "must be real")):
        with pytest.raises(ValidationError, match=message):
            field.element([1, bad])


def test_element_refuses_a_boolean():
    # a boolean is no number, as in parse_rational, not the coefficient 1 or 0
    field = build_field([-2, 0, 1], 50)
    for coeffs in ([True, False], [1, False], [True]):
        with pytest.raises(ValidationError, match="not a number"):
            field.element(coeffs)


@given(
    a=st.lists(st.integers(-50, 50), max_size=8),
    b=st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda b: b[-1] not in (0, 1)),
)
@settings(max_examples=100, deadline=None)
def test_poly_divmod_stays_exact_for_non_monic_divisors(a, b):
    q, r = numfield.poly_divmod(a, b)
    assert not any(isinstance(c, float) for c in q + r)
    assert len(r) < len(b)
    qb = numfield.poly_mul(q, b)
    size = max(len(qb), len(r), len(a))
    total = [x + y for x, y in zip(qb + [0] * (size - len(qb)), r + [0] * (size - len(r)))]
    assert numfield.poly_trim(total) == numfield.poly_trim(list(a))


@given(a=small_coeffs, b=small_coeffs, c=small_coeffs)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    field, _ = field_units("zeta5")
    x, y, z = field.element(a), field.element(b), field.element(c)
    assert field.mul(x, y).coeffs == field.mul(y, x).coeffs
    assert field.mul(field.mul(x, y), z).coeffs == field.mul(x, field.mul(y, z)).coeffs
    lhs = field.mul(x, field.add(y, z))
    rhs = field.add(field.mul(x, y), field.mul(x, z))
    assert lhs.coeffs == rhs.coeffs


@given(a=small_coeffs, b=small_coeffs)
@settings(max_examples=30, deadline=None)
def test_embedding_is_multiplicative(a, b):
    field, _ = field_units("zsqrt2")
    x, y = field.element(a), field.element(b)
    with mp.workdps(60):
        for k in range(field.n_places):
            lhs = embed(field, field.mul(x, y), k)
            rhs = embed(field, x, k) * embed(field, y, k)
            assert abs(lhs - rhs) < mp.mpf(10) ** -40


@given(a=small_coeffs, b=small_coeffs)
@settings(max_examples=40, deadline=None)
def test_norm_is_multiplicative(a, b):
    field, _ = field_units("zeta5")
    x, y = field.element(a), field.element(b)
    assert norm(field, field.mul(x, y)) == norm(field, x) * norm(field, y)


def test_norm_matches_product_of_embeddings():
    field, _ = field_units("zeta5")
    x = field.element([3, -1, 2, 0])
    exact = norm(field, x)
    with mp.workdps(60):
        prod = mp.mpf(1)
        for z in embed_all(field, x):
            prod = prod * z
        assert abs(prod - mp.mpf(exact.numerator) / exact.denominator) < mp.mpf(10) ** -40


def test_norm_of_constants_and_generator():
    field, _ = field_units("zsqrt2")
    assert norm(field, field.element([5])) == 25
    assert norm(field, field.gen()) == -2
    assert norm(field, field.element([Fraction(1, 2)])) == Fraction(1, 4)


def test_verify_unit():
    field, _ = field_units("zsqrt2")
    assert verify_unit(field, field.element([1, 1]))
    assert verify_unit(field, field.element([-1]))
    assert verify_unit(field, field.element([3, 2]))  # (1+a)^2
    assert not verify_unit(field, field.element([2]))
    assert not verify_unit(field, field.gen())  # norm -2
    assert not verify_unit(field, field.element([Fraction(1, 2), Fraction(1, 2)]))
    cyc, _ = field_units("zeta5")
    assert verify_unit(cyc, cyc.gen())
    assert verify_unit(cyc, cyc.element([1, 1]))
    assert verify_unit(cyc, cyc.element([1, 1, 1, 0]))  # (gen^3 - 1)/(gen - 1)
    assert not verify_unit(cyc, cyc.element([1, -1, 0, 0]))  # norm 5


def test_dirichlet_rank():
    assert dirichlet_rank(field_units("zsqrt2")[0]) == 1
    assert dirichlet_rank(field_units("zeta5")[0]) == 1
    field = build_field([-1, -1, 0, 0, 0, 1], 50)
    assert dirichlet_rank(field) == 2  # 1 + 2 - 1


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(Fraction(7, 3)) == Fraction(7, 3)
    assert parse_rational("1e-30") == Fraction(1, 10**30)
    assert parse_rational("2.5e3") == Fraction(2500)


def test_parse_rational_bounds_decimal_exponents():
    # mantissa digits plus |exponent| may not pass the int-string limit, the
    # bound an integer literal of as many digits already meets
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational(f"0.5e-{limit - 2}") == Fraction(1, 2 * 10 ** (limit - 2))
    for text in (f"1e{limit}", f"1.5e-{limit - 1}", "1e-10000000", "1e4400"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_to_exact_is_what_to_mp_rounds():
    with mp.workdps(60):
        third = mp.mpf(1) / 3
        for x in ("0.1", "1/3", "-2.5e-7", 3, Fraction(2, 7), [1, "2/3"], third, 0.1, "1e-300"):
            re, im = numfield.to_exact(x)
            assert isinstance(re, Fraction) and isinstance(im, Fraction)
            assert mp.mpc(numfield.to_mp(re), numfield.to_mp(im)) == numfield.to_mp(x)
        assert numfield.to_exact([1, "2/3"]) == (1, Fraction(2, 3))
        man, exp = third.man_exp
        assert numfield.to_exact(third) == (Fraction(man, 2**-exp), 0)
        # a part that is a pair itself was read as re + i im by one and lost
        # its im by the other
        for bad, message in (("one", "not a number"), ([1, 2, 3], "pairs"),
                             ([[1, 2], "0.5"], "pairs"), ("inf", "not a number"),
                             (float("nan"), "not a number"), ([1, "-inf"], "not a number"),
                             (True, "not a number"), ([1, False], "not a number")):
            for read in (numfield.to_exact, numfield.to_mp):
                with pytest.raises(ValidationError, match=message):
                    read(bad)
        with pytest.raises(ValidationError, match="not a number"):
            numfield.parse_rational(True)


def test_to_mp_rounds_each_part_of_to_exact_once():
    # one reader under both: to_mp is quotient of each exact part, bit for
    # bit, an mpc exactly for a complex-typed input; to_mp gave 1 + 2i for
    # [mpc(1, 2), 3] where to_exact gave 1 + 5i, and returned a longer mpf
    # with all its bits
    with mp.workdps(200):
        long = mp.mpf(1) / 3
        table = [[mp.mpc(1, 2), 3], long, -long, mp.mpc(long, -long), [long, "1/7"],
                 "0.1", "1/3", "-2.5e-7", 3, Fraction(2, 7), 0.1, complex(0.5, -3), mp.pi,
                 Decimal("0.1"), [mp.mpc(0, 1), mp.mpc(0, 1)], "1e-300", [0, 0]]
    with mp.workdps(60):
        assert numfield.to_mp([mp.mpc(1, 2), 3]) == mp.mpc(1, 5)
        for x in table:
            re, im = numfield.to_exact(x)
            got = numfield.to_mp(x)
            complex_typed = isinstance(x, (list, complex, mp.mpc))
            assert isinstance(got, mp.mpc if complex_typed else mp.mpf), x
            parts = (got.real, got.imag) if complex_typed else (got,)
            for part, exact in zip(parts, (re, im)):
                assert raw_value(part) == raw_value(numfield.quotient(exact, 1)), x
                assert part.man.bit_length() <= mp.prec, x
            assert complex_typed or im == 0, x
        for bad in ("1e5000", ["1e5000", 0], mp.mpf("1e5000"), Decimal("nan"), object()):
            for read in (numfield.to_exact, numfield.to_mp):
                with pytest.raises(ValidationError):
                    read(bad)


@pytest.mark.parametrize("digits", (50, 300, 1000))
def test_to_mp_rounds_a_rational_once(digits):
    # mpf(numerator) / denominator rounds twice when the numerator is longer
    # than the precision, and was off by up to 1.4 ulp
    rng = random.Random(digits)
    with mp.workdps(digits):
        prec = mp.prec
        for _ in range(200):
            num = rng.getrandbits(rng.randint(prec + 1, 3 * prec)) | 1
            x = Fraction(rng.choice((1, -1)) * num, rng.getrandbits(rng.randint(2, 2 * prec)) | 1)
            assert ulps_off(numfield.to_mp(x), x, prec) <= Fraction(1, 2), x
        # short and halfway numerators, and exact quotients, which are exact
        for x in (Fraction(1, 3), Fraction(-2, 7), Fraction(2**prec + 1, 2), Fraction(-(2**prec + 3))):
            assert ulps_off(numfield.to_mp(x), x, prec) <= Fraction(1, 2), x
        for x in (Fraction(1), Fraction(-9, 3), Fraction(3, 2**2000), Fraction(-(2**prec - 1) * 2**900)):
            assert ulps_off(numfield.to_mp(x), x, prec) == 0, x
        assert numfield.to_mp(Fraction(0)) == 0


@pytest.mark.parametrize("digits", (50, 1000))
def test_quotient_and_sqrt_are_mpmaths_values(digits):
    # each rounds once, as mpf_div and mpf_sqrt do, so the values are the
    # same bits, exact ones included, which mpmath normalizes slowly
    rng = random.Random(digits)
    with mp.workdps(digits):
        prec = mp.prec

        def number():
            x = mp.mpf(rng.getrandbits(rng.randint(1, 2 * prec))) * mp.mpf(2) ** rng.randint(-99, 99)
            return x * x if rng.random() < 0.3 else x

        for _ in range(200):
            a, b = number() * rng.choice((1, -1)), number() + 1
            assert raw_value(numfield.quotient(a, b)) == raw_value(a / b)
            c = mp.mpf(rng.getrandbits(prec // 2) | 1)
            assert raw_value(numfield.quotient(c * 3, c)) == raw_value(mp.mpf(3))
            assert raw_value(numfield.sqrt(b)) == raw_value(mp.sqrt(b))
            n = rng.getrandbits(rng.randint(1, 3 * prec))
            for m in (n, n * n):
                assert raw_value(numfield.sqrt(m)) == raw_value(mp.sqrt(m))
        x = Fraction(rng.getrandbits(3 * prec), 3)
        assert ulps_off(numfield.quotient(x, Fraction(-7, 5)), x / Fraction(-7, 5), prec) <= Fraction(1, 2)
        assert numfield.quotient(0, 3) == 0 and numfield.sqrt(0) == 0 and numfield.sqrt(mp.mpf(0)) == 0
        assert raw_value(numfield.sqrt(mp.mpf(9) / 4)) == raw_value(mp.mpf(3) / 2)
        with pytest.raises(ZeroDivisionError):
            numfield.quotient(1, mp.mpf(0))
        for bad in (mp.mpf(-4), -1, Fraction(9, 4)):
            with pytest.raises(ValueError, match="int or an mpf >= 0"):
                numfield.sqrt(bad)


def test_torus_tolerance_is_a_double_precision_power():
    # at the working precision its fractional exponent cost a full exp and
    # log (2.6 ms at 1000 digits); a 53-bit value moves an is_zero decision
    # only within 2^-53 of the cut
    for digits in (30, 50, 301, 1000):
        with mp.workdps(digits + 10):
            tol = numfield.torus_tolerance(digits)
        assert tol.man.bit_length() <= 53
        with mp.workdps(2 * digits):
            assert abs(tol / mp.power(10, -mp.mpf(digits) / 3) - 1) <= mp.mpf(2) ** -53


def test_to_exact_bounds_the_exponent():
    # a decimal past parse_rational's bound is refused as text, and an mpf
    # read exactly would build a power of two of as many bits as its
    # exponent, so the exponent has the int-string bound in bits
    limit = sys.get_int_max_str_digits()
    bits = int(limit * 3.3219)
    assert numfield.to_exact(mp.ldexp(1, -bits))[0] == Fraction(1, 2**bits)
    assert numfield.to_exact(mp.ldexp(1, bits))[0] == 2**bits
    for x in ("1e-1000000000", "1e1000000000", "-1e-100000", mp.ldexp(1, -bits - 2),
              mp.ldexp(3, bits + 2), ["0", "1e-100000"]):
        with pytest.raises(ValidationError, match="exceeds the limit"):
            numfield.to_exact(x)


def test_parse_descriptor_and_digit_override():
    data = load_descriptor("zsqrt2")
    field, units = parse_descriptor(data)
    assert field.digits == 50
    assert len(units) == 2
    assert units[1].coeffs == (Fraction(1), Fraction(1))
    field80, _ = parse_descriptor(data, digits_override=80)
    assert field80.digits == 80
    with mp.workdps(100):
        assert abs(field80.sigma_star[1] - mp.sqrt(2)) < mp.mpf(10) ** -79


def test_parse_descriptor_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_descriptor({"digits": 50})
    with pytest.raises(ValidationError):
        parse_descriptor({"poly": [-2, 0, 1], "units": [["x"]]})
    with pytest.raises(ValidationError):
        parse_descriptor({"poly": [-2, 0, "q"]})
    for bad in (
        {"class_group": 5},
        {"class_group": {"orders": ["x"]}},
        {"class_group": {"orders": [0]}},
        {"class_group": {"orders": [True]}},
        {"digits": "x"},
        {"digits": 40.7},
        {"digits": True},
    ):
        with pytest.raises(ValidationError):
            parse_descriptor({"poly": [-2, 0, 1], **bad})


@pytest.mark.parametrize("digits", (50, 280, 300, 1000, 2000))
def test_ln_matches_mp_log(digits):
    # x = 1 +- 2^-k for k from 1 to past prec/2, on both sides of the switch
    # to t - t^2/2 at |x - 1| = 2^(-prec/2 - 4) and, at 280 digits, of the
    # switch from mp.log to the Newton lift where the cancellation k takes
    # prec + k + 10 past _LN_MP_LOG_BITS; far from 1 and at m 2^(+-10^6);
    # against mp.log 30 digits higher
    with mp.workdps(digits + numfield.GUARD):
        prec, half = mp.prec, mp.prec // 2
        cross = numfield._LN_MP_LOG_BITS - prec - 10
        ks = set(range(half - 8, half + 9)) | set(range(1, half, max(1, prec // 40)))
        ks |= {k for k in range(cross - 2, cross + 3) if 0 < k < half}
        xs = [1 + s * mp.ldexp(1, -k) for k in sorted(ks) for s in (1, -1)]
        xs += [mp.mpf(x) for x in ("1e-300", "0.5", "2", "3.25", "1e40")] + [+mp.pi]
        xs += [mp.ldexp(m, s * 10**6) for m in (1, mp.mpf("0.75"), mp.mpf(1.5)) for s in (1, -1)]
        got = [numfield.ln(x) for x in xs]
        assert numfield.ln(mp.mpf(1)) == 0
    with mp.workdps(digits + numfield.GUARD + 30):
        for x, y in zip(xs, got):
            want = mp.log(x)
            assert abs(y - want) <= abs(want) * mp.ldexp(1, 1 - prec), x


def test_ln_takes_no_mp_log_next_to_one(monkeypatch):
    # mp.log(1 + 10^-1005) at 1000 digits runs at twice the precision;
    # ln takes two terms of its series instead.  Farther from 1, ln takes
    # mp.log at 50 digits and lifts a double by Newton at 300 and 1000.
    calls = []
    log = mp.log
    monkeypatch.setattr(mp, "log", lambda x: calls.append(x) or log(x))
    with mp.workdps(1000 + numfield.GUARD):
        x = 1 + mp.mpf(10) ** -1005
        assert x != 1
        y = numfield.ln(x)
        assert calls == []
    for digits in (1000, 300, 50):
        with mp.workdps(digits + numfield.GUARD):
            numfield.ln(mp.mpf(2))
    assert calls == [2]
    with mp.workdps(1040):
        assert abs(y - log(x)) <= y * mp.mpf(10) ** -1009
