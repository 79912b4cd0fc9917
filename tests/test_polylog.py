"""Bernoulli numbers, integer zeta values, and circle polylogarithms.

Oracles: the classical Bernoulli table, the exact Bernoulli recurrence and
Euler-Maclaurin zeta of tests/support.py (the library delegates both to
mpmath), the von Staudt-Clausen theorem, mpmath's polylog, the even-zeta
closed form, Li_n(-1) = -(1 - 2^(1-n)) zeta(n), the Bernoulli reflection
formula, -ln(1 - e^{i theta}) at extra precision for Li_1, and exact
Fraction integration for the beta integral.
"""

import random
from fractions import Fraction
from math import ceil, comb, factorial, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from regtor import (
    NoConvergence,
    ThetaOutOfRange,
    ValidationError,
    bernoulli,
    bernoulli_polynomial,
    beta_integral_check,
    hatcher_constant,
    polylog_circle,
    zeta_int,
)
from regtor import polylog
from regtor.numfield import GUARD
from regtor.polylog import BERNOULLI_MAX, ORDER_MAX, polylog_orders

from support import bernoulli_recurrence, zeta_euler_maclaurin

BERNOULLI_TABLE = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def _primes_up_to(n):
    sieve = [True] * (n + 1)
    sieve[0] = sieve[1] = False
    for p in range(2, n + 1):
        if sieve[p]:
            for q in range(p * p, n + 1, p):
                sieve[q] = False
    return [p for p, ok in enumerate(sieve) if ok]


def test_bernoulli_matches_classical_table():
    for m, want in BERNOULLI_TABLE.items():
        assert bernoulli(m) == want


def test_bernoulli_odd_vanish():
    for m in range(3, 41, 2):
        assert bernoulli(m) == 0


def test_bernoulli_von_staudt_clausen():
    # B_{2k} + sum over primes p with (p-1) | 2k of 1/p is an integer.
    for k in range(1, 31):
        total = bernoulli(2 * k)
        for p in _primes_up_to(2 * k + 1):
            if (2 * k) % (p - 1) == 0:
                total += Fraction(1, p)
        assert total.denominator == 1


def test_bernoulli_matches_recurrence():
    for m in range(201):
        assert bernoulli(m) == bernoulli_recurrence(m), m


def test_bernoulli_rejects_negative_index():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_index_bound():
    # The largest index served is exact: its denominator is the product of
    # the primes p with (p - 1) | m (von Staudt-Clausen).
    m = BERNOULLI_MAX
    den = 1
    for p in _primes_up_to(m + 1):
        if m % (p - 1) == 0:
            den *= p
    assert bernoulli(m).denominator == den
    with pytest.raises(ValidationError):
        bernoulli(m + 1)


@given(x=rationals, n=st.integers(min_value=0, max_value=12))
def test_bernoulli_polynomial_difference_equation(x, n):
    lhs = bernoulli_polynomial(n, x + 1) - bernoulli_polynomial(n, x)
    rhs = 0 if n == 0 else n * x ** (n - 1)
    assert lhs == rhs


@given(x=rationals, n=st.integers(min_value=0, max_value=12))
def test_bernoulli_polynomial_reflection(x, n):
    assert bernoulli_polynomial(n, 1 - x) == (-1) ** n * bernoulli_polynomial(n, x)


def test_bernoulli_polynomial_at_zero_is_bernoulli():
    for n in range(0, 16):
        assert bernoulli_polynomial(n, Fraction(0)) == bernoulli(n)


def test_zeta_int_against_euler_maclaurin_oracle():
    with mp.workdps(70):
        for s in range(2, 26):
            got = zeta_int(s, 60)
            assert abs(got - zeta_euler_maclaurin(s, 60)) < mp.mpf(10) ** -60, s


def test_zeta_int_even_closed_form():
    # zeta(2k) = (-1)^{k+1} B_{2k} (2 pi)^{2k} / (2 (2k)!)
    with mp.workdps(70):
        for k in range(1, 9):
            b = bernoulli_recurrence(2 * k)
            want = (
                (-1) ** (k + 1)
                * mp.mpf(b.numerator)
                / b.denominator
                * (2 * mp.pi) ** (2 * k)
                / (2 * mp.factorial(2 * k))
            )
            assert abs(zeta_int(2 * k, 60) - want) < mp.mpf(10) ** -58


def test_zeta_int_high_precision():
    with mp.workdps(210):
        for s in (3, 4, 7):
            assert abs(zeta_int(s, 200) - zeta_euler_maclaurin(s, 200)) < mp.mpf(10) ** -198, s


def test_zeta_int_rejects_small_arguments():
    with pytest.raises(ValueError):
        zeta_int(1)
    with pytest.raises(ValueError):
        zeta_int(0)


def test_polylog_circle_against_mpmath():
    # with the angles 2 pi k / r, r = 31, 23 and 11, of the 50-digit circle
    # ladders; each order alone and from a batch
    with mp.workdps(70):
        angles = [mp.mpf("0.7"), 2 * mp.pi / 3, mp.pi, mp.mpf("4.2"), mp.mpf("6.0")]
        angles += [2 * mp.pi * k / r for r in (31, 23, 11) for k in range(1, r)]
        for th in angles:
            batch = polylog_orders(1, 6, th, 50)
            for n in range(1, 7):
                want = mp.polylog(n, mp.expj(th))
                for got in (polylog_circle(n, th, 50), batch[n - 1]):
                    assert abs(got - want) < mp.mpf(10) ** -45, (n, th)


def test_polylog_circle_high_precision_against_mpmath():
    with mp.workdps(310):
        for th in (2 * mp.pi / 7, 2 * mp.pi / 3, mp.mpf("2.5"), mp.mpf("5.1")):
            batch = polylog_orders(2, 5, th, 300)
            for n in range(2, 6):
                want = mp.polylog(n, mp.expj(th))
                for got in (polylog_circle(n, th, 300), batch[n - 2]):
                    assert abs(got - want) < mp.mpf(10) ** -295, (n, th)


def test_polylog_circle_at_minus_one_thousand_digits():
    # theta = pi is x = 1/2, the longest fixed-point tail:
    # Li_n(-1) = -(1 - 2^(1-n)) zeta(n), a real number.
    with mp.workdps(1020):
        for n in range(2, 9):
            got = polylog_circle(n, mp.pi, 1000)
            want = -(1 - mp.mpf(2) ** (1 - n)) * mp.zeta(n)
            assert abs(got.real - want) < mp.mpf(10) ** -1000, n
            assert abs(got.imag) < mp.mpf(10) ** -1000, n


@pytest.mark.parametrize("digits", (50, 300))
def test_polylog_at_minus_one_is_real(digits):
    # Li_n(-1) = -(1 - 2^(1-n)) zeta(n): at theta = pi, as the CLI computes it
    # from theta / 2pi = 1/2, the imaginary part is exactly 0, not rounding
    # noise, for one order and for a batched pass
    with mp.workdps(digits + GUARD):
        th = 2 * mp.pi * 1 / 2
    batch = polylog_orders(1, 8, th, digits)
    with mp.workdps(digits + 20):
        for n in range(2, 9):
            want = -(1 - mp.mpf(2) ** (1 - n)) * mp.zeta(n)
            for got in (polylog_circle(n, th, digits), batch[n - 1]):
                assert abs(got.real - want) < mp.mpf(10) ** -digits, n
                assert got.imag == 0, n


def _table_prec(digits):
    """The wz bits at which a call at these digits reads the zeta(2m) table."""
    with mp.workdps(digits + GUARD):
        return mp.prec + polylog.ZIV_GUARD


def test_tangent_numbers():
    assert polylog._tangent_numbers(6) == [0, 1, 2, 16, 272, 7936, 353792]


@pytest.mark.parametrize("digits", (50, 300, 1000))
def test_even_zeta_table_against_mpmath(digits):
    # The entries 2m <= prec/6 come from exact tangent numbers; each is within
    # one unit of floor(2 zeta(2m) 2^prec), with mpmath's zeta(2m) 40 bits
    # beyond the table's precision as the oracle.
    prec = _table_prec(digits)
    values, shift = polylog._EvenZetaTable().read(prec // 12, prec)
    assert shift == 0 and len(values) == prec // 12 + 1
    with mp.workprec(prec + 40):
        for m in range(1, prec // 12 + 1):
            want = int(mp.floor(mp.ldexp(2 * mp.zeta(2 * m), prec)))
            assert abs(values[m] - want) <= 1, m


def test_even_zeta_table_fill_does_not_depend_on_its_reads():
    prec = _table_prec(1000)
    twice = polylog._EvenZetaTable()
    twice.read(10, prec)
    once = polylog._EvenZetaTable()
    assert twice.read(200, prec) == once.read(200, prec)


def test_even_zeta_table_fill_takes_no_bernoulli_numbers(monkeypatch):
    # mpmath's zeta below 2 reads its Bernoulli numbers, by a recurrence of
    # cost quadratic in the index; the table needs none of them.
    args = []
    zeta = mp.zeta

    def spy(s, *rest, **kwargs):
        args.append(s)
        return zeta(s, *rest, **kwargs)

    monkeypatch.setattr(mp, "zeta", spy)
    prec = _table_prec(1000)
    polylog._EvenZetaTable().read(prec // 2, prec)
    assert all(s >= 2 for s in args), min(args)


@pytest.mark.parametrize("digits", (50, 300, 1000))
def test_odd_zeta_table_against_mpmath(digits):
    # One Borwein pass fills zeta(3) .. zeta(ORDER_MAX - 1); each entry is
    # within one unit of floor(zeta(2m+1) 2^prec), with mpmath's zeta 40 bits
    # beyond the table's precision as the oracle.
    prec = _table_prec(digits)
    m_max = (ORDER_MAX - 1) // 2
    values, shift = polylog._OddZetaTable().read(m_max, prec)
    assert shift == 0 and len(values) == m_max + 1
    with mp.workprec(prec + 40):
        for m in range(1, m_max + 1):
            want = int(mp.floor(mp.ldexp(mp.zeta(2 * m + 1), prec)))
            assert abs(values[m] - want) <= 1, 2 * m + 1


def test_odd_zeta_table_against_euler_maclaurin():
    prec = _table_prec(200)
    values, _ = polylog._OddZetaTable().read(49, prec)
    with mp.workdps(210):
        for s in (3, 5, 7, 99):
            got = mp.ldexp(values[s // 2], -prec)
            assert abs(got - zeta_euler_maclaurin(s, 200)) < mp.mpf(10) ** -198, s


def test_odd_zeta_table_fill_does_not_depend_on_its_reads():
    # reading zeta(11) fills zeta(3) .. zeta(11); a later read runs the pass
    # again, keeps them and at least doubles the table: zeta(13) brings
    # zeta(13) .. zeta(21)
    prec = _table_prec(1000)
    twice = polylog._OddZetaTable()
    assert len(twice.read(5, prec)[0]) == 6
    assert len(twice.read(6, prec)[0]) == 11
    once = polylog._OddZetaTable()
    assert twice.read(49, prec) == once.read(49, prec)


def test_integer_zeta_up_to_order_max_takes_no_mpmath_zeta(monkeypatch):
    # zeta(2) .. zeta(ORDER_MAX) come from the module's tables: the head of a
    # polylogarithm, zeta_int and the Hatcher constants through it.  Above
    # ORDER_MAX zeta_int is mpmath's zeta.
    args = []
    zeta = mp.zeta

    def spy(s, *rest, **kwargs):
        args.append(s)
        return zeta(s, *rest, **kwargs)

    monkeypatch.setattr(polylog, "_EVEN_ZETA", polylog._EvenZetaTable())
    monkeypatch.setattr(polylog, "_ODD_ZETA", polylog._OddZetaTable())
    monkeypatch.setattr(mp, "zeta", spy)
    with mp.workdps(1010):
        th = 2 * mp.pi / 7
    polylog_orders(2, ORDER_MAX, th, 1000)
    for digits in (50, 1000):
        for s in range(2, ORDER_MAX + 1):
            zeta_int(s, digits)
    for k in range(1, ORDER_MAX // 2):
        hatcher_constant(k)
    assert args == []
    got = zeta_int(ORDER_MAX + 1, 300)
    assert args == [ORDER_MAX + 1]
    with mp.workdps(310):
        assert got == zeta(ORDER_MAX + 1)


def test_polylog_circle_precision_history(monkeypatch):
    # The zeta tables are shared by every call and kept at the highest
    # precision seen so far; lower precisions read them shifted right.
    # Values must not depend on which precisions came before.
    monkeypatch.setattr(polylog, "_EVEN_ZETA", polylog._EvenZetaTable())
    monkeypatch.setattr(polylog, "_ODD_ZETA", polylog._OddZetaTable())

    def check():
        for digits in (50, 300):
            with mp.workdps(digits + 20):
                for n in (2, 5):
                    for th in (2 * mp.pi / 7, mp.pi, mp.mpf("5.9")):
                        got = polylog_circle(n, th, digits)
                        want = mp.polylog(n, mp.expj(th))
                        assert abs(got - want) < mp.mpf(10) ** -(digits + 5), (digits, n, th)

    check()
    # A batched call near pi carries guard bits for theta^99 in its tail, but
    # reads the table at the precision a single order at these digits reads.
    single = polylog._EVEN_ZETA.prec
    assert polylog._ODD_ZETA.prec == single
    with mp.workdps(320):
        polylog_orders(1, ORDER_MAX, mp.pi - mp.mpf("1e-3"), 300)
    assert polylog._EVEN_ZETA.prec == polylog._ODD_ZETA.prec == single
    with mp.workdps(1010):
        polylog_circle(3, mp.pi, 1000)
        thousand = polylog._EVEN_ZETA.prec
        assert thousand > single and polylog._ODD_ZETA.prec == thousand
        polylog_orders(1, ORDER_MAX, mp.pi, 1000)
    assert polylog._EVEN_ZETA.prec == polylog._ODD_ZETA.prec == thousand
    check()


def _angles(digits):
    """theta near 0, near pi, at 2 pi / r and beyond pi, rounded to the
    working precision of a call at these digits."""
    with mp.workdps(digits + GUARD):
        return (mp.mpf("1e-3"), mp.pi - mp.mpf("1e-3"), 2 * mp.pi / 61, mp.mpf("5.9"))


@pytest.mark.parametrize("digits", (50, 300))
def test_polylog_orders_against_mpmath(digits):
    # mp.polylog takes 2-6 s for 100 orders at one angle at 300 digits, so
    # the angle beyond pi, the conjugate branch, is compared at 50 digits.
    for th in _angles(digits)[: 4 if digits == 50 else 3]:
        got = polylog_orders(1, ORDER_MAX, th, digits)
        assert len(got) == ORDER_MAX
        with mp.workdps(digits + 20):
            for n, li in enumerate(got, 1):
                want = mp.polylog(n, mp.expj(th))
                assert abs(li - want) < mp.mpf(10) ** -(digits + 5), (digits, th, n)


def test_polylog_orders_near_pi_at_thousand_digits():
    # The tail leaves theta^{n-1} (up to 3^99) outside the fixed point, so
    # it carries that many guard bits.  References: Li_n(-1) at theta = pi,
    # and at theta = 60 pi / 61 the Bernoulli reflection
    # Li_n(e^{i t}) + (-1)^n conj Li_n(e^{i t}) = -(2 pi i)^n B_n(t / 2 pi) / n!.
    digits = 1000
    tol = mp.mpf(10) ** -(digits + 5)
    with mp.workdps(digits + GUARD):
        th = 2 * mp.pi * 30 / 61
    at_pi = polylog_orders(1, ORDER_MAX, mp.pi, digits)
    near_pi = polylog_orders(1, ORDER_MAX, th, digits)
    with mp.workdps(digits + 20):
        assert abs(at_pi[0] + mp.log(2)) < tol
        for n in (2, 3, 50, 99, 100):
            want = -(1 - mp.mpf(2) ** (1 - n)) * mp.zeta(n)
            assert abs(at_pi[n - 1] - want) < tol, n
        for n in range(2, ORDER_MAX + 1):
            li = near_pi[n - 1]
            lhs = 2 * li.real if n % 2 == 0 else 2j * li.imag
            b = bernoulli_polynomial(n, Fraction(30, 61))
            rhs = -((2j * mp.pi) ** n) * mp.mpf(b.numerator) / b.denominator / mp.factorial(n)
            assert abs(lhs - rhs) < tol, n


@pytest.mark.parametrize("digits", (50, 300))
def test_polylog_orders_match_single_orders(digits):
    # Each entry of a batched call is polylog_circle's value for its order,
    # bit for bit: both are correctly rounded.
    for th in _angles(digits) + (mp.pi,):
        batch = polylog_orders(1, ORDER_MAX, th, digits)
        for n, li in enumerate(batch, 1):
            assert li == polylog_circle(n, th, digits), (th, n)
    with mp.workdps(digits + GUARD):
        th = mp.mpf("2.5")
        assert polylog_orders(4, 7, th, digits) == polylog_orders(1, 7, th, digits)[3:]


def _about_pi(digits):
    """theta from 2pi/3 on, where the series about pi runs: x = theta / 2pi
    = 1/3, 11/31, 2/5 and 15/31, pi - 10^-3, pi - 10^-(digits/2) and pi
    itself, rounded to the working precision of a call at these digits."""
    with mp.workdps(digits + GUARD):
        return tuple(2 * mp.pi * p / q for p, q in ((1, 3), (11, 31), (2, 5), (15, 31))) + (
            mp.pi - mp.mpf(10) ** -3,
            mp.pi - mp.mpf(10) ** -(digits // 2),
            +mp.pi,
        )


@pytest.mark.parametrize("digits", (50, 300))
def test_polylog_about_pi_against_mpmath(digits):
    # one order and a batch, each with the angle beyond pi, its conjugate
    for th in _about_pi(digits):
        with mp.workdps(digits + GUARD):
            beyond = 2 * mp.pi - th
        batch = polylog_orders(2, 5, th, digits)
        with mp.workdps(digits + 20):
            for n in (2, 3, 5):
                want = mp.polylog(n, mp.expj(th))
                for got in (polylog_circle(n, th, digits), batch[n - 2]):
                    assert abs(got - want) < mp.mpf(10) ** -(digits + 5), (th, n)
                if th < mp.pi:
                    got = polylog_circle(n, beyond, digits)
                    assert abs(got - mp.conj(want)) < mp.mpf(10) ** -(digits + 5), (th, n)


def test_polylog_about_pi_at_thousand_digits():
    # mp.polylog takes 1-12 s per value next to pi at 1000 digits, so it
    # checks one order at the three angles farthest from pi.  Closer to pi
    # the references are the duplication Li_n(-w) = 2^(1-n) Li_n(w^2) - Li_n(w)
    # at w = e^{-i phi}, phi = pi - theta, whose angles phi and 2 phi lie
    # below 2pi/3, where the series about 0 runs, and the Bernoulli
    # reflection; at pi it is Li_n(-1) = -(1 - 2^(1-n)) zeta(n).
    digits = 1000
    tol = mp.mpf(10) ** -(digits + 5)
    angles = _about_pi(digits)
    for th in angles[:3]:
        got = polylog_circle(3, th, digits)
        with mp.workdps(digits + 20):
            assert abs(got - mp.polylog(3, mp.expj(th))) < tol, th
    for th in angles[3:6]:
        with mp.workdps(digits + GUARD):
            phi = mp.pi - th
            phi2 = 2 * phi
        batch = polylog_orders(2, 6, th, digits)
        for n in range(2, 7):
            got = polylog_circle(n, th, digits)
            half = polylog_circle(n, phi, digits)
            double = polylog_circle(n, phi2, digits)
            with mp.workdps(digits + 20):
                want = mp.conj(double) / 2 ** (n - 1) - mp.conj(half)
                assert abs(got - want) < tol and abs(batch[n - 2] - want) < tol, (th, n)
                b = bernoulli_polynomial(n, Fraction(15, 31)) if th == angles[3] else None
                if b is not None:
                    lhs = 2 * got.real if n % 2 == 0 else 2j * got.imag
                    rhs = -((2j * mp.pi) ** n) * mp.mpf(b.numerator) / b.denominator / mp.factorial(n)
                    assert abs(lhs - rhs) < tol, n
    at_pi = polylog_orders(2, 9, angles[6], digits)
    with mp.workdps(digits + 20):
        for n, li in enumerate(at_pi, 2):
            assert abs(li.real + (1 - mp.mpf(2) ** (1 - n)) * mp.zeta(n)) < tol and li.imag == 0, n


@pytest.mark.parametrize("digits", (50, 300))
def test_polylog_is_continuous_across_two_pi_over_three(digits):
    # 2pi/3 is where the series about 0 hands over to the one about pi.
    # Next to it on either side, and beyond pi, each order matches mp.polylog,
    # and the symmetric difference across it is 2 i eps Li_{n-1}(e^{2 pi i/3})
    # up to eps^3 |Li_{n-3}| / 3, below eps^3 here.
    with mp.workdps(digits + GUARD):
        mid, eps = 2 * mp.pi / 3, mp.mpf(2) ** -40
        below, above = mid - eps, mid + eps
    tol = mp.mpf(10) ** -(digits + 5)
    for n in (2, 3, 4, 7):
        got = {th: polylog_circle(n, th, digits) for th in (below, above)}
        with mp.workdps(digits + GUARD):
            for th in (below, above):
                batch = polylog_orders(2, 7, th, digits)[n - 2]
                conj = polylog_circle(n, 2 * mp.pi - th, digits)
                with mp.workdps(digits + 20):
                    want = mp.polylog(n, mp.expj(th))
                    assert abs(got[th] - want) < tol and abs(batch - want) < tol, (th, n)
                    assert abs(conj - mp.conj(want)) < tol, (th, n)
            slope = 2j * eps * polylog_circle(n - 1, mid, digits)
            assert abs(got[above] - got[below] - slope) < eps ** 3, n


@pytest.mark.parametrize("digits", (50, 300, 1000))
def test_polylog_tail_takes_at_most_wp_over_2_log2_3_terms(monkeypatch, digits):
    # Expanding about the nearer of 0 and pi keeps u = x or 1 - 2x at most
    # 1/3, so the read of the zeta(2m) table, the tail's m_max, is at most
    # wp / (2 log2 3) + 2, with wp = wz + ceil((n-1) log2 (2pi/3)) above the
    # tail's precision on either side.  About 0 alone it would reach wp / 2
    # next to pi.  At pi the tail is empty: the table is read only for the
    # head's zeta(2) .. zeta(n).
    reads = []

    class Counting(polylog._EvenZetaTable):
        def read(self, m_max, wp):
            reads.append(m_max)
            return super().read(m_max, wp)

    monkeypatch.setattr(polylog, "_EVEN_ZETA", Counting())
    with mp.workdps(digits + GUARD):
        step = 61 if digits < 1000 else 13
        angles = [2 * mp.pi * k / step for k in range(1, step)]
        angles += [2 * mp.pi / 3 + s * mp.mpf(2) ** -40 for s in (-1, 1)]
        angles += [mp.pi - mp.mpf(10) ** -3, +mp.pi]
        wz = mp.prec + polylog.ZIV_GUARD
    for n in (2, 5):
        with mp.workdps(digits + GUARD):
            wp = wz + ceil((n - 1) * log2(float(2 * mp.pi / 3)))
        bound = wp / (2 * log2(3)) + 2
        for th in angles:
            for call in (lambda: polylog_circle(n, th, digits), lambda: polylog_orders(1, n, th, digits)):
                reads.clear()
                call()
                assert max(reads) <= bound, (n, th, max(reads), bound)
                if th == angles[-1]:
                    assert max(reads) == n // 2, n


@pytest.mark.parametrize("digits", (50, 300, 1000))
def test_single_orders_by_horner_match_batches(digits):
    # polylog_circle sums one order's tail by Horner's scheme, a batch from
    # its c_m list: both give the same bits, about 0, about pi, on either
    # side of 2pi/3 and beyond pi
    with mp.workdps(digits + GUARD):
        eps = mp.mpf(2) ** -40
        angles = [2 * mp.pi / 40, 2 * mp.pi / 3 - eps, 2 * mp.pi / 3 + eps]
        angles += [2 * mp.pi * 2 / 5, 2 * mp.pi * 15 / 31, mp.mpf("5.9")]
    hi = 24 if digits == 1000 else 40
    for th in angles:
        batch = polylog_orders(2, hi, th, digits)
        for n, li in enumerate(batch, 2):
            assert li == polylog_circle(n, th, digits), (th, n)


def test_polylog_reads_theta_and_orders_like_every_number():
    # theta goes through numfield.to_mp: a boolean or a complex value is no
    # angle, and a Fraction is rounded once; an mpf is rounded to the
    # working precision, as mpf(theta) rounds it.  A boolean is no order.
    for bad in (True, False, 1j, mp.mpc(1, 1), [1, 0], "x"):
        with pytest.raises(ValidationError):
            polylog_circle(2, bad, 20)
    for lo, hi in ((True, 2), (1, True), (2, 2.5)):
        with pytest.raises(ValidationError, match="polylog order must be an integer"):
            polylog_orders(lo, hi, 1.0, 50)
    with pytest.raises(ValidationError, match="polylog order must be an integer"):
        polylog_circle(True, 1.0, 50)
    with mp.workdps(50 + GUARD):
        third = mp.mpf(7) / 3
    assert polylog_circle(2, Fraction(7, 3), 50) == polylog_circle(2, third, 50)
    assert polylog_orders(1, 3, Fraction(7, 3), 50) == polylog_orders(1, 3, third, 50)
    with mp.workdps(200):
        fine = [mp.mpf(k) / 7 for k in range(1, 44, 3)]
    with mp.workdps(50 + GUARD):
        rounded = [+th for th in fine]
    for a, b in zip(fine, rounded):
        assert polylog_orders(1, 3, a, 50) == polylog_orders(1, 3, b, 50), a
        assert polylog_circle(2, a, 50) == polylog_circle(2, b, 50), a


@pytest.mark.parametrize("n", (-1, -7))
def test_bernoulli_polynomial_refuses_a_negative_degree(n):
    with pytest.raises(ValidationError, match="non-negative"):
        bernoulli_polynomial(n, Fraction(1, 2))


def test_polylog_orders_bounds():
    for lo, hi in ((0, 3), (2, ORDER_MAX + 1), (3, 2)):
        with pytest.raises(ValidationError):
            polylog_orders(lo, hi, 1.0, 50)
    for bad in (0, -1, 7):
        with pytest.raises(ThetaOutOfRange):
            polylog_orders(1, 3, bad, 50)


@pytest.mark.parametrize("digits", (50, 300, 1000))
def test_polylog_order_one_closed_form_at_the_extremes(digits):
    # -ln(2 sin(theta/2)) + i (pi - theta)/2 against -ln(1 - e^{i theta}) at
    # 60 more digits, which absorb the cancellation in 1 - e^{i theta} near
    # theta = 0 and 2 pi.  At pi/3 the real part is 0 and at pi the
    # imaginary part is exactly 0.
    with mp.workdps(digits + GUARD):
        tiny = mp.mpf(10) ** -30
        angles = (tiny, 2 * mp.pi - tiny, mp.pi / 3, +mp.pi)
    tol = mp.mpf(10) ** -(digits + 5)
    for th in angles:
        got = polylog_circle(1, th, digits)
        with mp.workdps(digits + 60):
            assert abs(got - -mp.log(1 - mp.expj(th))) < tol, th
    assert abs(polylog_circle(1, angles[2], digits).real) < tol
    assert polylog_circle(1, angles[3], digits).imag == 0
    with mp.workdps(digits + GUARD):
        for th in (mp.mpf("0.7"), angles[2], mp.mpf("2.5")):
            a = polylog_circle(1, th, digits)
            b = polylog_circle(1, 2 * mp.pi - th, digits)
            assert abs(a - mp.conj(b)) < tol, th


@pytest.mark.parametrize("digits", (50, 300))
def test_polylog_imaginary_part_next_to_zero_keeps_its_digits(digits):
    # Im Li_n(e^{i theta}), sum sin(k theta) / k^n, is of order theta: the
    # fixed point carries log2(1/theta) more bits, so at theta = 10^-40 each
    # order, alone and in a batch, keeps the working precision relative to
    # its imaginary part, as the real part keeps it.  mp.polylog loses about
    # 40 digits next to z = 1, so it runs at 60 more.
    with mp.workdps(digits + GUARD):
        th = mp.mpf(10) ** -40
    batch = polylog_orders(2, 5, th, digits)
    with mp.workdps(digits + 60):
        for n in range(2, 6):
            want = mp.polylog(n, mp.expj(th))
            for got in (polylog_circle(n, th, digits), batch[n - 2]):
                assert abs(got.imag - want.imag) < abs(want.imag) * mp.mpf(10) ** -(digits + 5), n
                assert abs(got.real - want.real) < mp.mpf(10) ** -(digits + 5), n


def _ulps_from(center, digits):
    """center and the angles within 8 units in its last place, at the
    working precision of a call at these digits."""
    with mp.workdps(digits + GUARD):
        center = +center
        ulp = mp.ldexp(1, mp.mag(center) - mp.prec)
        return [center + k * ulp for k in range(-8, 9)]


@pytest.mark.parametrize("digits", (50, 300))
def test_polylog_order_one_imaginary_part_next_to_pi(digits):
    # (pi - theta) / 2 is correctly rounded 8 ulps from pi, where pi at the
    # working precision alone left it 22 % off; at theta equal to pi at the
    # working precision it is exactly 0.
    for th in _ulps_from(mp.pi, digits):
        got = polylog_circle(1, th, digits).imag
        with mp.workdps(digits + GUARD):
            at_pi = th == mp.pi
        with mp.workdps(2 * digits + 40):
            want = 0 if at_pi else (mp.pi - th) / 2
        with mp.workdps(digits + GUARD):
            assert got == +want, th


def _correctly_rounded_parts(n, th, digits):
    """Re and Im Li_n(e^{i th}) by mp.polylog at 2 digits + 40, each rounded
    to the working precision of a call at these digits; th equal to pi at
    that precision is pi."""
    with mp.workdps(digits + GUARD):
        at_pi = th == mp.pi
    with mp.workdps(2 * digits + 40):
        z = mp.polylog(n, -1 if at_pi else mp.expj(th))
    with mp.workdps(digits + GUARD):
        return +mp.re(z), +mp.im(z)


@pytest.mark.parametrize("digits, count", ((50, 40), (300, 12)))
def test_every_part_is_correctly_rounded(digits, count):
    # Each part of Li_2 .. Li_6, one order alone or from a batch, is the
    # working-precision rounding of the exact value: at random angles, and
    # at 50 digits within 8 ulps of pi and of 2pi/3 (where the series about
    # 0 hands over to the one about pi), on both sides of the fold at pi; and
    # next to the zero of Re Li_2 at pi (1 - 1/sqrt 3), where that part is
    # far below its bound at the first guard and is decided by retries.
    # mp.polylog takes about 0.25 s per value at 640 digits.
    rng = random.Random(digits)
    with mp.workdps(digits + GUARD):
        cases = [(2, mp.pi * (1 - 1 / mp.sqrt(3)))]
    for _ in range(count):
        with mp.workdps(digits + GUARD):
            th = 2 * mp.pi * mp.mpf(rng.random())
        cases.append((rng.randint(2, 6), th))
    for center in (mp.pi, 2 * mp.pi / 3, 4 * mp.pi / 3) if digits == 50 else ():
        near = _ulps_from(center, digits)
        cases += [(rng.randint(2, 6), th) for th in near[:3] + near[7:10] + near[-3:]]
    for n, th in cases:
        want = _correctly_rounded_parts(n, th, digits)
        for got in (polylog_circle(n, th, digits), polylog_orders(2, 6, th, digits)[n - 2]):
            assert (got.real, got.imag) == want, (n, th)


def test_a_retry_gives_the_same_bits(monkeypatch):
    # A guard too narrow for Ziv's test retries each call at a wider guard,
    # at least twice the last, reading the zeta tables shifted from their
    # higher precision, and gives the bits of the default guard; a part
    # that never rounds raises NoConvergence.
    with mp.workdps(60):
        angles = [2 * mp.pi * k / 11 for k in range(1, 11)] + [+mp.pi]
    want = [polylog_orders(1, 5, th, 50) for th in angles]
    polylog_circle(2, 1, 300)
    prec = polylog._EVEN_ZETA.prec, polylog._ODD_ZETA.prec
    calls = []
    series = polylog._series_orders
    monkeypatch.setattr(polylog, "ZIV_GUARD", 1)
    monkeypatch.setattr(polylog, "_series_orders", lambda *a: calls.append(a[-1]) or series(*a))
    assert [polylog_orders(1, 5, th, 50) for th in angles] == want
    assert max(calls) > 2 and (polylog._EVEN_ZETA.prec, polylog._ODD_ZETA.prec) == prec

    def undecided(lo, hi, th, guard):
        calls.append(guard)
        raise polylog._Undecided(0)

    calls.clear()
    monkeypatch.setattr(polylog, "_series_orders", undecided)
    with pytest.raises(NoConvergence):
        polylog_circle(3, 1, 50)
    assert all(b >= 2 * a for a, b in zip(calls, calls[1:]))


@pytest.mark.parametrize("digits", (50, 300))
def test_a_retry_jumps_to_the_guard_the_part_needs(monkeypatch, digits):
    # Re Li_2 vanishes at pi (1 - 1/sqrt 3); next to it, the part falls
    # about mp.prec bits short of Ziv's test at the first guard and reports
    # it, so the second pass, at the guard it needs, gives the correctly
    # rounded bits, where doubling the guard took 4 passes at 50 digits and
    # 6 at 300
    with mp.workdps(digits + GUARD):
        th = mp.pi * (1 - 1 / mp.sqrt(3))
        prec = mp.prec
    guards = []
    series = polylog._series_orders
    monkeypatch.setattr(polylog, "_series_orders", lambda *a: guards.append(a[-1]) or series(*a))
    got = polylog_circle(2, th, digits)
    assert (got.real, got.imag) == _correctly_rounded_parts(2, th, digits)
    assert len(guards) == 2 and guards[0] == polylog.ZIV_GUARD and guards[1] > prec
    guards.clear()
    assert polylog_orders(2, 5, th, digits)[0] == got and len(guards) == 2


def test_polylog_circle_order_bound():
    with mp.workdps(60):
        th = mp.mpf("2.5")
        got = polylog_circle(ORDER_MAX, th, 50)
        assert abs(got - mp.polylog(ORDER_MAX, mp.expj(th))) < mp.mpf(10) ** -45
    with pytest.raises(ValidationError, match=str(ORDER_MAX)):
        polylog_circle(ORDER_MAX + 1, 1.0, 50)


def test_polylog_circle_order_one_closed_form():
    with mp.workdps(60):
        th = mp.mpf("2.1")
        want = -mp.log(1 - mp.expj(th))
        assert abs(polylog_circle(1, th, 50) - want) < mp.mpf(10) ** -50


def test_polylog_circle_conjugation():
    with mp.workdps(60):
        for n in (2, 3, 4):
            th = mp.mpf("1.3")
            a = polylog_circle(n, th, 50)
            b = polylog_circle(n, 2 * mp.pi - th, 50)
            assert abs(a - mp.conj(b)) < mp.mpf(10) ** -45


@given(
    n=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=23),
    r=st.integers(min_value=2, max_value=24),
)
@settings(max_examples=40, deadline=None)
def test_polylog_circle_bernoulli_reflection(n, k, r):
    # Li_n(e^{i t}) + (-1)^n Li_n(e^{-i t}) = -(2 pi i)^n B_n(t / 2 pi) / n!
    if k >= r:
        k = k % r
        if k == 0:
            k = 1
    with mp.workdps(60):
        th = 2 * mp.pi * k / r
        lhs = polylog_circle(n, th, 50) + (-1) ** n * polylog_circle(
            n, 2 * mp.pi - th, 50
        )
        b = bernoulli_polynomial(n, Fraction(k, r))
        rhs = (
            -((2j * mp.pi) ** n)
            * mp.mpf(b.numerator)
            / b.denominator
            / mp.factorial(n)
        )
        assert abs(lhs - rhs) < mp.mpf(10) ** -40


def test_polylog_circle_rejects_bad_theta():
    for bad in (0, "6.2832", -1, 7):
        with pytest.raises(ThetaOutOfRange):
            polylog_circle(2, bad, 50)


def test_polylog_circle_rejects_bad_order():
    with pytest.raises(ValueError):
        polylog_circle(0, 1.0, 50)


def _beta_exact_by_expansion(j):
    # int_0^1 (x^2 - x)^{j-1} dx expanded binomially, all in Fractions
    total = Fraction(0)
    for t in range(j):
        # (x^2 - x)^{j-1} = sum_t C(j-1, t) x^{2t} (-x)^{j-1-t}
        total += (
            comb(j - 1, t)
            * (-1) ** (j - 1 - t)
            * Fraction(1, (j - 1 - t) + 2 * t + 1)
        )
    return total


def test_beta_integral_exact_and_quadrature():
    for j in range(1, 7):
        numeric, exact = beta_integral_check(j, 50)
        assert exact == _beta_exact_by_expansion(j)
        assert exact == Fraction(
            (-1) ** (j - 1) * factorial(j - 1) ** 2, factorial(2 * j - 1)
        )
        with mp.workdps(60):
            err = abs(numeric - mp.mpf(exact.numerator) / exact.denominator)
            assert err < mp.mpf(10) ** -20


@pytest.mark.parametrize("digits", (30, 50))
@pytest.mark.parametrize("j", (50, 99))
def test_beta_integral_quadrature_is_relatively_accurate(j, digits):
    # the integrand peaks at 4^-(j-1), far below an absolute quadrature tolerance
    numeric, exact = beta_integral_check(j, digits)
    assert exact == _beta_exact_by_expansion(j)
    with mp.workdps(digits + 20):
        want = mp.mpf(exact.numerator) / exact.denominator
        assert abs(numeric - want) / abs(want) < mp.mpf(10) ** -digits


def test_beta_integral_rejects_bad_j():
    with pytest.raises(ValueError):
        beta_integral_check(0)
