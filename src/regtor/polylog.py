"""Exact Bernoulli numbers, integer zeta values, and polylogarithms on the unit circle.

Bernoulli numbers are exact rationals from mpmath's bernfrac, one index at a
time (convention B_1 = -1/2).  zeta_int is mpmath's zeta at the working
precision.  polylog_circle evaluates Li_n(e^{i theta}) for integer
1 <= n <= ORDER_MAX and theta in (0, 2pi).  Order 1 is the closed form
-ln(1 - e^{i theta}).  For n >= 2, theta is folded into (0, pi] and the
logarithmic series about mu = i theta is split in two.  Its head, k = 0..n,
is summed in complex mpmath arithmetic.  Its tail holds only the terms
k = n-1+2m, m >= 1, because zeta vanishes at the negative even integers.
The functional equation zeta(1-2m) = (-1)^m 2 (2m-1)! zeta(2m) / (2pi)^{2m}
makes each of them real up to the factor i^{n-1}:

    zeta(1-2m) mu^k / k! = mu^{n-1} 2 zeta(2m) x^{2m} / [(2m)(2m+1)...(2m+n-1)]

with x = theta / 2pi <= 1/2.  The tail is summed in fixed-point Python
integers at wp = mp.prec + 20 bits, with a running term and no factorial.
Since x <= 1/2, every term after the first wp / (2 log2(1/x)) is below
2^-wp, so the number of terms is known before the sum starts.

The coefficients 2 zeta(2m) depend on neither the angle nor the order.  One
table for the module holds them as integers 2 zeta(2m) 2^prec, at the
highest working precision requested so far.  A lower precision reads it
shifted right, a higher one rebuilds it, and a call extends it only as far
as its own terms need.  Below 2m = prec/6 an entry comes from mpmath's
zeta(1-2m), which reads mpmath's cached Bernoulli numbers.  Above it, an
entry is 1 + sum_{2 <= j <= 64} j^{-2m} in fixed point, and the neglected
part, below 65^{-2m} (1 + 65/(2m-1)), is a few units of 2^-prec at most.
The table has at most about prec/2 entries of prec bits each, about
prec^2/16 bytes: 0.7 MB at 1000 digits.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from mpmath import mp, mpc, mpf

from .errors import ThetaOutOfRange, ValidationError
from .numfield import GUARD

# Largest polylogarithm order served.  It also bounds the circle-bundle
# orders, jmax + 1 and j + 1, and the same j in normalize and beta-check
# (_check_j).  At 1000 digits on one core of a 2-core x86 machine with
# mpmath's pure-Python backend, a cold Li_100 at theta = pi takes 1.4 s,
# most of it zeta(2)..zeta(100) for the head, and circle-torsion --r 61
# --jmax 99 takes 33 s.
ORDER_MAX = 100

# Largest Bernoulli index served; mp.bernfrac(10_000) takes about 0.5 s on
# mpmath's pure-Python backend, and the cost grows faster than quadratically.
BERNOULLI_MAX = 10_000


def _check_j(j: int, lo: int, what: str) -> None:
    """lo <= j < ORDER_MAX for the degree index j of the circle-bundle forms
    (Li_{j+1} is a polylogarithm order), their normalizations and beta integrals."""
    if not lo <= j < ORDER_MAX:
        raise ValidationError(f"{what} in [{lo}, {ORDER_MAX - 1}]")


def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m with B_1 = -1/2, for 0 <= m <= BERNOULLI_MAX."""
    if m < 0:
        raise ValidationError("Bernoulli index must be non-negative")
    if m > BERNOULLI_MAX:
        raise ValidationError(f"Bernoulli index must be at most {BERNOULLI_MAX}")
    return Fraction(*mp.bernfrac(m))


def bernoulli_polynomial(n: int, x: Fraction) -> Fraction:
    """Exact value of the Bernoulli polynomial B_n(x) at a rational point."""
    if n < 0:
        raise ValidationError("Bernoulli polynomial degree must be non-negative")
    return sum(comb(n, k) * bernoulli(k) * x ** (n - k) for k in range(n + 1))


def zeta_int(s: int, digits: int = 50) -> mpf:
    """zeta(s) for integer s >= 2 at digits + GUARD."""
    if s < 2:
        raise ValidationError("zeta_int requires an integer s >= 2")
    with mp.workdps(digits + GUARD):
        return mp.zeta(s)


class _EvenZetaTable:
    """2 zeta(2m) 2^prec as integers for m = 1 .. len(values) - 1, at one precision."""

    def __init__(self):
        self.prec = 0
        self.values = [0]

    def read(self, m_max: int, wp: int) -> tuple[list, int]:
        """The entries through index m_max, and the right shift that reads them at wp bits."""
        if wp > self.prec:
            self.prec, self.values = wp, [0]
        if len(self.values) <= m_max:
            self._extend(m_max)
        return self.values, self.prec - wp

    def _extend(self, m_max: int) -> None:
        prec, values = self.prec, self.values
        # 2 zeta(2m) = zeta(1-2m) (-1)^m (4 pi^2)^m / (2m-1)!, with a running factor.
        low = min(m_max, prec // 12)
        first = len(values)
        if first <= low:
            with mp.workprec(prec + 10):
                step = -4 * mp.pi ** 2
                factor = step ** first / mp.factorial(2 * first - 1)
                for m in range(first, low + 1):
                    values.append(int(mp.ldexp(mp.zeta(1 - 2 * m) * factor, prec)))
                    factor *= step / (2 * m * (2 * m + 1))
        # 2m > prec/6: 2 (1 + sum_{2 <= j <= 64} j^{-2m}) from running powers.
        if len(values) <= m_max:
            one = 1 << prec
            two_m = 2 * len(values)
            powers = [(j * j, one // j ** two_m) for j in range(2, 65)]
            while len(values) <= m_max:
                values.append(2 * (one + sum(p for _, p in powers)))
                powers = [(jj, p // jj) for jj, p in powers if p >= jj]


_EVEN_ZETA = _EvenZetaTable()


def polylog_circle(n: int, theta, digits: int = 50) -> mpc:
    """Li_n(e^{i theta}) for integer 1 <= n <= ORDER_MAX and theta in (0, 2pi).

    n = 1 returns the principal branch of -ln(1 - e^{i theta}).  For n >= 2
    the series in mu = i theta with integer zeta coefficients is used, with
    the k = n-1 term carrying the harmonic number and -ln(-mu):

        Li_n(e^mu) = sum_{k >= 0, k != n-1} zeta(n-k) mu^k / k!
                     + mu^{n-1} / (n-1)! (H_{n-1} - ln(-mu)).

    Arguments above pi are folded to 2pi - theta and conjugated back, keeping
    x = theta / 2pi at most one half.  The head k = 0..n is summed in mpc.
    Beyond it only k = n-1+2m is nonzero, and

        zeta(1-2m) mu^k / k! = mu^{n-1} 2 zeta(2m) x^{2m} / [(2m)...(2m+n-1)].

    This real tail is summed in fixed-point integers at mp.prec + 20 bits over
    a known number of terms, with the running term
    t_m = theta^{n-1} x^{2m} (2m-1)! / (2m+n-1)! and the module's shared
    table of 2 zeta(2m) (at most about prec^2/16 bytes; 0.7 MB at 1000 digits).
    """
    if n < 1:
        raise ValidationError("polylog order must be a positive integer")
    if n > ORDER_MAX:
        raise ValidationError(f"polylog order must be at most {ORDER_MAX}")
    wdps = digits + GUARD
    with mp.workdps(wdps):
        th = mpf(theta)
        two_pi = 2 * mp.pi
        if not (0 < th < two_pi):
            raise ThetaOutOfRange(f"theta must lie strictly inside (0, 2pi), got {th}")
        conjugate = th > mp.pi
        if conjugate:
            th = two_pi - th
        if n == 1:
            value = -mp.log(1 - mp.expjpi(th / mp.pi))
            return mp.conj(value) if conjugate else +value

        mu = mpc(0, th)
        log_neg_mu = mp.log(th) - mpc(0, mp.pi / 2)
        harmonic = sum(mpf(1) / m for m in range(1, n))
        total = mpc(0)
        term = mpc(1)  # mu^k / k!
        for k in range(n + 1):
            if k == n - 1:
                total += term * (harmonic - log_neg_mu)
            else:
                total += mp.zeta(n - k) * term
            term = term * mu / (k + 1)

        wp = mp.prec + 20
        x = th / two_pi
        with mp.workprec(wp):
            x2 = int(mp.ldexp(x * x, wp))
            t = int(mp.ldexp(th ** (n - 1) * x * x / mp.factorial(n + 1), wp))
        with mp.workprec(53):
            # t_m <= x^{2m} 2^wp, so t_m vanishes once 2m log2(1/x) > wp.
            m_max = int(wp / (-2 * float(mp.log(x, 2)))) + 2
        zeta2, shift = _EVEN_ZETA.read(m_max, wp)
        acc = 0
        for m in range(1, m_max + 1):
            if not t:
                break
            acc += (zeta2[m] >> shift) * t
            t = ((t * x2) >> wp) * (2 * m * (2 * m + 1)) // ((2 * m + n) * (2 * m + n + 1))
        total += (1, 1j, -1, -1j)[(n - 1) % 4] * mp.ldexp(mpf(acc), -2 * wp)
        return mp.conj(total) if conjugate else +total


def beta_integral_check(j: int, digits: int = 50) -> tuple[mpf, Fraction]:
    """Quadrature and exact value of int_0^1 (x^2 - x)^{j-1} dx.

    The exact value is (-1)^{j-1} ((j-1)!)^2 / (2j-1)!, the signed beta
    integral B(j, j); 1 <= j < ORDER_MAX.  The quadrature runs on
    (4 (x - x^2))^{j-1}, whose peak at x = 1/2 is 1, and scales the result
    exactly by (-1)^{j-1} 4^{-(j-1)}: the integrand itself falls to about
    4^{-(j-1)}, below mp.quad's absolute tolerance, and the quadrature would
    stop too early.
    """
    _check_j(j, 1, "the beta integral is checked for j")
    exact = Fraction((-1) ** (j - 1) * factorial(j - 1) ** 2, factorial(2 * j - 1))
    with mp.workdps(digits + GUARD):
        scaled = mp.quad(lambda x: (4 * (x - x * x)) ** (j - 1), [0, 1])
        numeric = mp.ldexp(scaled, -2 * (j - 1))
        return +(numeric if j % 2 else -numeric), exact
