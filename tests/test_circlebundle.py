"""Circle-bundle torsion constants over cyclotomic rings.

Oracles: the closed form -ln(2 sin(theta/2)) in degree zero, mpmath's own
polylog and zeta for the higher coefficients, the combinatorial torsion route
for the degree-zero comparison, hand-expanded normalization constants, and
Bernoulli-denominator arithmetic for the Hatcher constants.
"""

from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp

from regtor import (
    TrivialHolonomyAtJZero,
    ValidationError,
    beta_integral_check,
    borel_dims,
    build_field,
    build_lattice,
    cheeger_muller_check,
    convert,
    hatcher_constant,
    make_cyclotomic_setup,
    make_form,
    normalization_factors,
    point_class,
    regulator_identity_check,
    torsion_form_coeffs,
    trivial_holonomy_coeff,
    u_coeff,
    x_space_dim,
    zero_form,
)
from regtor import circlebundle, polylog, rtorsion
from regtor.circlebundle import BOREL_INDEX_MAX
from regtor.numfield import GUARD
from regtor.polylog import ORDER_MAX

TOL = mp.mpf(10) ** -40


def _prefactor(j):
    return mp.mpf(factorial(2 * j + 1)) / (
        (2 * mp.pi) ** j * mp.mpf(2) ** (2 * j) * mp.mpf(factorial(j)) ** 2
    )


def test_setup_orders_and_validation():
    with pytest.raises(ValidationError):
        make_cyclotomic_setup(4)
    with pytest.raises(ValidationError):
        make_cyclotomic_setup(2)
    s5 = make_cyclotomic_setup(5, 50)
    s7 = make_cyclotomic_setup(7, 50)
    with mp.workdps(60):
        assert abs(s5.thetas[0] - 4 * mp.pi / 5) < TOL
        assert abs(s5.thetas[1] - 2 * mp.pi / 5) < TOL
        for k, num in enumerate((6, 4, 2)):
            assert abs(s7.thetas[k] - num * mp.pi / 7) < TOL


@pytest.mark.parametrize("digits", (50, 300, 1000))
def test_setup_angles_are_the_arguments_of_the_embeddings(digits):
    # thetas are the closed forms 2 pi k / r, k = (r-1)/2 down to 1; they
    # must be the arguments of the embedded place representatives.
    for r in (3, 7, 31, 61):
        setup = make_cyclotomic_setup(r, digits)
        assert len(setup.thetas) == setup.field.n_places == (r - 1) // 2
        with mp.workdps(digits + GUARD):
            for th, z in zip(setup.thetas, setup.field.sigma_star):
                assert abs(th - mp.arg(z)) < mp.mpf(10) ** -(digits + 5), (r, th)


@pytest.mark.parametrize("jmax", (0, 3, 20))
def test_coefficients_take_one_polylog_pass_per_place(monkeypatch, jmax):
    # Li_1 at each angle is read through _li, once per setup, and the orders
    # 2..jmax+1 come from one call of the kernel, which the setup keeps.
    calls = []
    orders = polylog.polylog_orders

    def counting(lo, hi, theta, digits=50):
        calls.append((lo, hi))
        return orders(lo, hi, theta, digits)

    monkeypatch.setattr(polylog, "polylog_orders", counting)
    monkeypatch.setattr(circlebundle, "polylog_orders", counting)
    setup = make_cyclotomic_setup(11, 50)
    coeffs = torsion_form_coeffs(setup, jmax)
    assert len(coeffs) == setup.field.n_places * (jmax + 1)
    rest = [(2, jmax + 1)] if jmax else []
    assert calls == ([(1, 1)] + rest) * setup.field.n_places
    # a second call finds every order kept in the setup
    calls.clear()
    assert torsion_form_coeffs(setup, jmax) == coeffs
    assert calls == []


def _bits(rows):
    """The values of a result mapping as exact strings, one per mpf."""
    out = {}
    with mp.workdps(3000):
        for key, val in rows.items():
            out[key] = [repr(v) for v in (val if isinstance(val, tuple) else (val,))]
    return out


@pytest.mark.parametrize(
    "r, digits, jmax, j", [(31, 50, 2, 1), (11, 50, 4, 3), (3, 300, 4, 3), (7, 1000, 2, 2)]
)
def test_a_warm_setup_repeats_no_polylog_work(monkeypatch, r, digits, jmax, j):
    # After circle-torsion and u_j, the Cheeger-Mueller check and the
    # regulator identity read every polylogarithm they need from the setup,
    # and each value has the bits a fresh setup gives.
    calls = []
    orders = polylog.polylog_orders

    def counting(lo, hi, theta, digits=50):
        calls.append((lo, hi))
        return orders(lo, hi, theta, digits)

    monkeypatch.setattr(polylog, "polylog_orders", counting)
    monkeypatch.setattr(circlebundle, "polylog_orders", counting)
    warm = make_cyclotomic_setup(r, digits)
    t = torsion_form_coeffs(warm, jmax)
    u = u_coeff(warm, j)
    del calls[:]
    cm = cheeger_muller_check(warm)
    reg = regulator_identity_check(warm, j)
    assert calls == []
    # a second pass finds every order in the setup
    again = torsion_form_coeffs(warm, jmax)
    assert calls == []

    fresh = [make_cyclotomic_setup(r, digits) for _ in range(4)]
    assert _bits(cm) == _bits(cheeger_muller_check(fresh[0]))
    assert _bits(reg) == _bits(regulator_identity_check(fresh[1], j))
    assert _bits(t) == _bits(again) == _bits(torsion_form_coeffs(fresh[2], jmax))
    assert _bits(u) == _bits(u_coeff(fresh[3], j))


@pytest.mark.parametrize("digits", (50, 300))
def test_batches_and_single_orders_give_the_same_bits(digits):
    # Every part is correctly rounded, so at every place of Z[zeta_r],
    # r <= 61, a batched pass over 2..jmax+1 and each order alone agree bit
    # for bit: the value a setup keeps does not depend on the call that made it.
    for r in (p for p in range(3, 62, 2) if all(p % q for q in range(3, p, 2))):
        setup = make_cyclotomic_setup(r, digits)
        for k, th in enumerate(setup.thetas):
            single = [polylog.polylog_circle(n, th, digits) for n in range(2, 6)]
            for jmax in (2, 4):
                assert polylog.polylog_orders(2, jmax + 1, th, digits) == single[:jmax], (r, k, jmax)


@pytest.mark.parametrize("r, digits, jmax", [(31, 50, 2), (11, 50, 4), (3, 300, 4)])
def test_u_and_the_regulator_identity_read_the_torsion_pass(monkeypatch, r, digits, jmax):
    # After torsion_form_coeffs(setup, jmax), u_j and the regulator identity
    # for j <= jmax evaluate no polylogarithm, and give a fresh setup's bits.
    warm = make_cyclotomic_setup(r, digits)
    torsion_form_coeffs(warm, jmax)
    calls = []
    series = polylog._series_orders
    monkeypatch.setattr(polylog, "_series_orders", lambda *a: calls.append(a) or series(*a))
    u = [u_coeff(warm, j) for j in range(1, jmax + 1)]
    reg = [regulator_identity_check(warm, j) for j in range(1, jmax + 1)]
    assert calls == []
    for j in range(1, jmax + 1):
        assert _bits(u[j - 1]) == _bits(u_coeff(make_cyclotomic_setup(r, digits), j)), j
        assert _bits(reg[j - 1]) == _bits(regulator_identity_check(make_cyclotomic_setup(r, digits), j)), j


def test_degree_zero_is_log_of_cyclotomic_unit_norm():
    s5 = make_cyclotomic_setup(5, 50)
    t = torsion_form_coeffs(s5, 0)
    with mp.workdps(60):
        for k, th in enumerate(s5.thetas):
            assert abs(t[(k, 0)] + mp.log(2 * mp.sin(th / 2))) < TOL
        frozen = mp.mpf("-0.1617535655787233699013103765943627")
        assert abs(t[(1, 0)] - frozen) < mp.mpf("1e-33")


def test_coefficients_match_mpmath_polylog():
    s5 = make_cyclotomic_setup(5, 40)
    t = torsion_form_coeffs(s5, 4)
    with mp.workdps(55):
        for k, th in enumerate(s5.thetas):
            z = mp.polylog(1, mp.expj(th))
            for j in range(5):
                if j:
                    z = mp.polylog(j + 1, mp.expj(th))
                pref = _prefactor(j)
                if j % 2 == 0:
                    want = (-1) ** (j // 2) * pref * mp.re(z)
                else:
                    want = (-1) ** ((j - 1) // 2) * pref * mp.im(z)
                assert abs(t[(k, j)] - want) < mp.mpf(10) ** -35
        frozen = mp.mpf("0.10147985495086520602566741405179091")
        assert abs(t[(0, 1)] - frozen) < mp.mpf("1e-30")


def test_prefactor_is_computed_once_per_order(monkeypatch):
    calls = []
    prefactor = circlebundle._prefactor
    monkeypatch.setattr(circlebundle, "_prefactor", lambda j: calls.append(j) or prefactor(j))
    torsion_form_coeffs(make_cyclotomic_setup(7, 50), 2)
    assert calls == [0, 1, 2]


def test_u_and_trivial_holonomy_decompose_the_coefficients():
    # T_{k,j} = (-1)^floor(j/2) u_j(k) + (coefficient at holonomy 1, even j)
    s7 = make_cyclotomic_setup(7, 50)
    t = torsion_form_coeffs(s7, 4)
    with mp.workdps(60):
        for j in range(1, 5):
            u = u_coeff(s7, j)
            shift = trivial_holonomy_coeff(j, 50) if j % 2 == 0 else mp.mpf(0)
            for k in range(3):
                want = (-1) ** (j // 2) * u[k] + shift
                assert abs(t[(k, j)] - want) < TOL


def test_trivial_holonomy_values():
    with pytest.raises(TrivialHolonomyAtJZero):
        trivial_holonomy_coeff(0)
    with pytest.raises(ValidationError):
        trivial_holonomy_coeff(-2)
    assert trivial_holonomy_coeff(1) == 0
    assert trivial_holonomy_coeff(7) == 0
    with mp.workdps(60):
        for j in (2, 4, 6):
            want = (-1) ** (j // 2) * _prefactor(j) * mp.zeta(j + 1)
            assert abs(trivial_holonomy_coeff(j, 50) - want) < TOL


def test_scaling_identity_ratio_is_a_sign():
    s5 = make_cyclotomic_setup(5, 50)
    signs = {1: 1, 2: -1, 3: -1, 4: 1}
    with mp.workdps(60):
        for j, sign in signs.items():
            rows = regulator_identity_check(s5, j)
            for k, (lhs, rhs, ratio) in rows.items():
                assert abs(abs(lhs) - abs(rhs)) < TOL * max(1, abs(lhs))
                assert abs(ratio - sign) < TOL
    with pytest.raises(ValidationError):
        regulator_identity_check(s5, 0)


def test_degree_zero_cross_check_against_combinatorial_torsion():
    for r in (3, 5, 7):
        setup = make_cyclotomic_setup(r, 50)
        rows = cheeger_muller_check(setup)
        assert len(rows) == (r - 1) // 2
        with mp.workdps(60):
            for k, (t0_abs, lntau, resid) in rows.items():
                assert resid < TOL
                assert abs(abs(lntau) - t0_abs) < TOL
                # ln tau = -ln|1 - sigma(xi)| carries the sign of T_0 itself
                sign = 1 if setup.thetas[k] < mp.pi / 3 else -1
                assert lntau * sign > 0


@pytest.mark.parametrize("digits", (50, 1000))
@pytest.mark.parametrize("r", (3, 61))
def test_cheeger_muller_reads_the_exact_tau_over_its_own_ring(monkeypatch, r, digits):
    # 0 -> R --(1 - xi)--> R -> 0 is built over the setup's Z[zeta_r] and
    # read through its exact basis-chase tau: no place, no Laplacian route,
    # no eigenvalue, and ln tau = -ln|1 - sigma(xi)| to 10^-digits
    setup = make_cyclotomic_setup(r, digits)
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for mod, name in ((rtorsion, "at_place"), (rtorsion, "reidemeister"),
                      (rtorsion, "metrized_complex_at_place"), (mp, "eighe")):
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    rows = cheeger_muller_check(setup)
    assert calls == []
    assert sorted(rows) == list(range((r - 1) // 2))
    with mp.workdps(digits + 2 * GUARD):
        for k, (_, lntau, _) in rows.items():
            want = -mp.log(abs(1 - mp.expj(setup.thetas[k])))
            assert abs(lntau - want) < mp.mpf(10) ** -digits


def test_cheeger_muller_factors_its_one_gram_once(monkeypatch):
    # the complex passes the same [[1]] at every place and degree, so its
    # build reads and factors one Gram, not 2 n_places of them
    setup = make_cyclotomic_setup(31, 50)
    calls, ldl = [], rtorsion.gram_ldl

    def counting(rows, digits):
        calls.append(rows)
        return ldl(rows, digits)

    monkeypatch.setattr(rtorsion, "gram_ldl", counting)
    rows = cheeger_muller_check(setup)
    assert calls == [[[1]]]
    assert sorted(rows) == list(range(15))


def test_borel_dimension_tables():
    z = build_field([0, 1], 30)
    sq2 = build_field([-2, 0, 1], 30)
    c5 = build_field([1, 1, 1, 1, 1], 30)
    assert list(borel_dims(z, 13).values()) == [1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert list(borel_dims(sq2, 13).values()) == [1, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2]
    assert list(borel_dims(c5, 13).values()) == [1, 1, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2]
    with pytest.raises(ValidationError):
        borel_dims(z, -1)


def test_x_space_dimensions():
    z = build_field([0, 1], 30)
    sq2 = build_field([-2, 0, 1], 30)
    c5 = build_field([1, 1, 1, 1, 1], 30)
    assert [x_space_dim(z, j) for j in range(1, 5)] == [1, 0, 1, 0]
    assert [x_space_dim(sq2, j) for j in range(1, 5)] == [2, 0, 2, 0]
    assert [x_space_dim(c5, j) for j in range(1, 5)] == [2, 2, 2, 2]
    # beyond the unit degree the table and the X spaces agree
    for field in (z, sq2, c5):
        table = borel_dims(field, 13)
        for j in range(2, 7):
            assert x_space_dim(field, j) == table[2 * j - 1]
        assert x_space_dim(field, 1) == table[1] + 1
    with pytest.raises(ValidationError):
        x_space_dim(z, 0)


def test_normalization_constants():
    with mp.workdps(60):
        chern0, igusa0, (bmag0, bpow0) = normalization_factors(0, 50)
        assert abs(chern0 - mp.pi) < TOL
        assert igusa0 == 1
        assert bmag0 == 1 and bpow0 == 0
        chern1, igusa1, (bmag1, bpow1) = normalization_factors(1, 50)
        assert abs(chern1 + 3 * mp.pi / 2) < TOL
        assert abs(igusa1 - 3 / (4 * mp.pi)) < TOL
        assert abs(bmag1 + 3 / mp.pi) < TOL and bpow1 == 3
    with pytest.raises(ValidationError):
        normalization_factors(-1)


def test_conversion_round_trips():
    with mp.workdps(60):
        vals = [mp.mpf("0.25"), mp.mpf("-3.5"), mp.mpf(2)]
        for j in (0, 1, 2, 3):
            for name in ("chern", "igusa", "borel"):
                out = convert(vals, "bl", name, j, 50)
                back = convert(out, name, "bl", j, 50)
                for v, w in zip(vals, back):
                    assert abs(v - w) < TOL
        # standard -> chern at j = 0 divides by pi
        assert abs(convert(mp.pi, "bl", "chern", 0, 50) - 1) < TOL
        # borel at j = 1 is purely imaginary
        w = convert(1, "borel", "bl", 1, 50)
        assert abs(mp.re(w)) < TOL and abs(mp.im(w) - 3 / mp.pi) < TOL
    with pytest.raises(ValidationError):
        convert(1, "bl", "unknown", 1)


def test_convert_reads_values_like_every_number():
    # each value goes through numfield.to_mp, where mp.mpmathify read a
    # boolean as 1 and "nan" as a NaN
    for bad in (True, float("nan"), "nan", "abc", [1, False]):
        with pytest.raises(ValidationError, match="not a number"):
            convert(bad, "bl", "chern", 1, 50)
    assert convert("1/3", "bl", "bl", 1, 50) == convert(Fraction(1, 3), "bl", "bl", 1, 50)


def _integer_calls():
    """One call per integer argument of the library, each of one value."""
    setup = make_cyclotomic_setup(5, 20)
    field = build_field((-2, 0, 1), 20, class_orders=(4,))
    lattice = build_lattice(field, [field.element([1, 1])])
    form = make_form(field, 0, [1, -1])
    line = build_field((0, 1), 20)
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    reps = [[[x] for x in row] for row in eye]
    # Z[zeta_11] has five places, so place 3 is one of them
    places = build_field((1,) * 11, 20)
    free = rtorsion.CohomologySpec(1, ([[1]],), ([[1]],) * 5)
    point = rtorsion.build_complex_over_r(places, (1,), (), [[[[1]]] * 5], [free])
    return {
        "bernoulli": lambda v: polylog.bernoulli(v),
        "bernoulli_polynomial": lambda v: polylog.bernoulli_polynomial(v, Fraction(1, 3)),
        "zeta_int": lambda v: polylog.zeta_int(v, 20),
        "hatcher_constant": lambda v: hatcher_constant(v, 20),
        "borel_dims": lambda v: borel_dims(field, v),
        "make_cyclotomic_setup": lambda v: make_cyclotomic_setup(v, 20),
        "torsion_form_coeffs": lambda v: torsion_form_coeffs(setup, v),
        "trivial_holonomy_coeff": lambda v: trivial_holonomy_coeff(v, 20),
        "u_coeff": lambda v: u_coeff(setup, v),
        "regulator_identity_check": lambda v: regulator_identity_check(setup, v),
        "normalization_factors": lambda v: normalization_factors(v, 20),
        "convert": lambda v: convert(1, "bl", "chern", v, 20),
        "beta_integral_check": lambda v: beta_integral_check(v, 20),
        "complex lengths": lambda v: rtorsion.build_complex_over_r(
            line, (v,), (), [[eye]], [rtorsion.CohomologySpec(3, reps, (eye,))]
        ),
        "free rank": lambda v: rtorsion.build_complex_over_r(
            line, (3,), (), [[eye]], [rtorsion.CohomologySpec(v, reps, (eye,))]
        ),
        "place": lambda v: rtorsion.at_place(point, v),
        "point class rank": lambda v: point_class(lattice, v, (), form),
        "class exponent": lambda v: point_class(lattice, 1, (v,), form),
        "field digits": lambda v: build_field((-2, 0, 1), v),
        "x_space_dim": lambda v: x_space_dim(field, v),
        "make_form degree": lambda v: make_form(field, v, [1, -1]),
        "zero_form degree": lambda v: zero_form(field, v),
    }


INTEGER_ARGUMENTS = (
    "bernoulli", "bernoulli_polynomial", "zeta_int", "hatcher_constant", "borel_dims",
    "make_cyclotomic_setup", "torsion_form_coeffs", "trivial_holonomy_coeff", "u_coeff",
    "regulator_identity_check", "normalization_factors", "convert", "beta_integral_check",
    "complex lengths", "free rank", "place", "point class rank", "class exponent",
    "field digits", "x_space_dim", "make_form degree", "zero_form degree",
)


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_are_read_as_build_field_reads_them(name):
    # every integer argument goes through numfield._integers: 3.0 and
    # Fraction(3) are 3, bit for bit in every result, and 2.5, a boolean and
    # a string are refused, where bernoulli(2.5) gave B_2, zeta_int(3.5)
    # raised a bare TypeError, make_cyclotomic_setup(7.9) built Z[zeta_7],
    # build_field(p, 30.5) stored 30.5, x_space_dim(field, 2.5) was 0,
    # make_form stored a degree of 0.5 and at_place(c, True) built place 1
    call = _integer_calls()[name]
    want = repr(call(3))
    for v in (3.0, Fraction(3)):
        assert repr(call(v)) == want, v
    for v in (2.5, True, "3"):
        with pytest.raises(ValidationError):
            call(v)


def test_hatcher_constants():
    want = {1: 24, 2: 240, 3: 504, 4: 480}
    with mp.workdps(60):
        for k, a_want in want.items():
            a, kappa, value = hatcher_constant(k, 50)
            assert a == a_want
            assert kappa == (Fraction(1) if k % 2 else Fraction(1, 2))
            assert abs(value - a * kappa * mp.zeta(2 * k + 1)) < TOL
        one = hatcher_constant(1, 50)[2]
        assert abs(one - mp.mpf("28.8493656758302628495937158763")) < mp.mpf("1e-27")
    with pytest.raises(ValidationError):
        hatcher_constant(0)


def test_hatcher_a_k_is_the_bernoulli_denominator():
    # the closed form over primes p with (p - 1) | 2k against the denominator
    # of B_2k/(4k) read from mpmath's exact Bernoulli numbers
    for k in list(range(1, 301)) + [5000]:
        a = hatcher_constant(k, 15)[0]
        assert a == Fraction(polylog.bernoulli(2 * k), 4 * k).denominator, k
    assert hatcher_constant(5000, 15)[0] == 46764487750200000


def test_u_coeff_rejects_degree_zero():
    s5 = make_cyclotomic_setup(5, 40)
    with pytest.raises(ValidationError):
        u_coeff(s5, 0)
    with pytest.raises(ValidationError):
        torsion_form_coeffs(s5, -1)


def test_order_and_index_bounds():
    # j + 1 is a polylogarithm order, so every j is below ORDER_MAX; the
    # normalizations and the beta integral take the same degree index j.
    s3 = make_cyclotomic_setup(3, 30)
    for call in (
        lambda: torsion_form_coeffs(s3, ORDER_MAX),
        lambda: u_coeff(s3, ORDER_MAX),
        lambda: regulator_identity_check(s3, ORDER_MAX),
        lambda: trivial_holonomy_coeff(ORDER_MAX),
        lambda: normalization_factors(ORDER_MAX),
        lambda: convert(1, "bl", "bl", ORDER_MAX),
        lambda: beta_integral_check(ORDER_MAX),
        lambda: borel_dims(build_field([0, 1], 30), BOREL_INDEX_MAX + 1),
    ):
        with pytest.raises(ValidationError):
            call()
    table = borel_dims(build_field([0, 1], 30), BOREL_INDEX_MAX)
    assert len(table) == BOREL_INDEX_MAX + 1 and table[BOREL_INDEX_MAX] == 0
