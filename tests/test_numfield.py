"""Number-ring construction, embeddings, norms, and unit verification.

Oracles: mpmath's sqrt and closed-form roots for embedding values, the
Aberth-Ehrlich iteration in support.aberth_roots for roots that build_field
takes from mp.polyroots or from the closed form, the product of embeddings
for the norm, and exact Fraction arithmetic for ring laws.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from regtor import (
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
from support import aberth_roots, coprime, field_units, load_descriptor, monic_gcd

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


@pytest.mark.parametrize("r, digits", [(r, 50) for r in range(2, 14)] + [(61, 50), (61, 300)])
def test_roots_of_unity_take_the_upper_half(monkeypatch, r, digits):
    # Only e^{2 pi i k/r} with 2k <= r is evaluated; the field stores what
    # the full list of r - 1 closed-form roots gives in the documented order:
    # real roots ascending, then the upper roots by real part, then their
    # conjugates.
    expjpi = mp.expjpi
    with mp.workdps(digits + 2 * numfield.GUARD):
        roots = [expjpi(mp.mpf(2 * k) / r) for k in range(1, r)]
        reals = sorted(z.real for z in roots if z.imag == 0)
        pos = sorted((z for z in roots if z.imag > 0), key=lambda z: z.real)
        lower = sorted((z for z in roots if z.imag < 0), key=lambda z: z.real)
    calls = []
    monkeypatch.setattr(mp, "expjpi", lambda x: calls.append(x) or expjpi(x))
    field = build_field((1,) * r, digits)
    assert len(calls) == r // 2
    want = tuple(reals) + tuple(pos)
    with mp.workdps(2 * digits):
        assert [repr(z) for z in field.sigma_star] == [repr(z) for z in want]
        assert [repr(z) for z in field.all_embeddings] == [
            repr(z) for z in want + tuple(mp.conj(z) for z in pos)
        ]
        # the stored conjugates are the closed forms with 2k > r to rounding
        for z, w in zip(field.all_embeddings[len(want):], lower):
            assert abs(z - w) < mp.mpf(10) ** -(digits + numfield.GUARD)


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


def test_all_ones_polynomial_skips_the_resultant(monkeypatch):
    # 1 + x + ... + x^{r-1} vanishes at the distinct r-th roots of unity other
    # than 1, so it is squarefree without a test.
    def refuse(*args):
        raise AssertionError("resultant computed for an all-ones polynomial")

    monkeypatch.setattr(numfield, "_resultant", refuse)
    for r in range(2, numfield.DEGREE_MAX + 2):
        assert build_field([1] * r, 30).degree == r - 1
    with pytest.raises(AssertionError):
        build_field([2, 1, 1], 30)


def test_subresultant_gcd_matches_euclid():
    # f = g h and e = g u share the roots of g; Euclid over Q is the oracle
    rng = random.Random(31)

    def poly(degree):
        return [rng.randint(-4, 4) for _ in range(degree)] + [1]

    for _ in range(30):
        g, h = poly(rng.randint(1, 3)), poly(rng.randint(1, 4))
        f = [int(c) for c in numfield.poly_mul(g, h)]
        # deg u < deg h keeps deg e below deg f
        u = [rng.randint(-3, 3) for _ in range(rng.randint(0, len(h) - 2))] + [rng.choice((-2, 1, 3))]
        e = [int(c) for c in numfield.poly_mul(g, u)]
        assert numfield._resultant(f, e) == 0
        assert numfield._subresultant_gcd(f, e) == monic_gcd(f, e)


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


@pytest.mark.parametrize(
    "poly, factors",
    [
        ([2, 0, 3, 0, 1], ([1, 0, 1], [2, 0, 1])),  # (x^2 + 1)(x^2 + 2)
        ([-6, 11, -6, 1], ([-1, 1], [-2, 1], [-3, 1], [2, -3, 1])),  # (x - 1)(x - 2)(x - 3)
        ([-2, 0, 1], ()),
        ([1, 1, 1, 1, 1], ()),
    ],
)
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
        with mp.workdps(60):
            want = tuple(
                sum(1 for x in diag if abs(embed(field, x, k)) > mp.mpf(10) ** -40)
                for k in range(field.n_places)
            )
        assert numfield.exact_ranks(field, m) == want


def test_exact_ranks_take_one_resultant_per_matrix(monkeypatch):
    # over an irreducible p only the last pivot's unit test needs a resultant
    field, _ = field_units("zeta5")
    calls = []
    resultant = numfield._resultant
    monkeypatch.setattr(numfield, "_resultant", lambda f, e: calls.append(1) or resultant(f, e))
    rng = random.Random(5)
    m = _mat_mul(field, _transvections(field, rng, 4, 8), _transvections(field, rng, 4, 8))
    assert numfield.exact_ranks(field, m) == (4, 4)
    assert len(calls) == 1
    calls.clear()
    assert numfield.exact_ranks(field, [[field.zero()] * 3] * 2) == (0, 0)
    assert numfield.exact_ranks(field, []) == (0, 0)
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
    for bad in ({"class_group": 5}, {"class_group": {"orders": ["x"]}}, {"digits": "x"}):
        with pytest.raises(ValidationError):
            parse_descriptor({"poly": [-2, 0, 1], **bad})
