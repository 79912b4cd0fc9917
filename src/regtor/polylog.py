"""Exact Bernoulli numbers, integer zeta values, and polylogarithms on the unit circle.

Bernoulli numbers are exact rationals from mpmath's bernfrac, one index at a
time (convention B_1 = -1/2).  zeta_int is mpmath's zeta at the working
precision.  polylog_circle evaluates Li_n(e^{i theta}) for integer n >= 1 and
theta in (0, 2pi) through the logarithmic series expansion about mu = i theta,
whose coefficients are floating zeta values at integers; it converges
geometrically once theta is folded into (0, pi].
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from mpmath import mp, mpc, mpf

from .errors import NoConvergence, ThetaOutOfRange, ValidationError
from .numfield import GUARD

_SERIES_CAP = 10_000

# Largest Bernoulli index served; mp.bernfrac(10_000) takes about 0.5 s on
# mpmath's pure-Python backend, and the cost grows faster than quadratically.
BERNOULLI_MAX = 10_000


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


def polylog_circle(n: int, theta, digits: int = 50) -> mpc:
    """Li_n(e^{i theta}) for integer n >= 1 and theta in (0, 2pi).

    n = 1 returns the principal branch of -ln(1 - e^{i theta}).  For n >= 2
    the series in mu = i theta with integer zeta coefficients is used, with
    the k = n-1 term carrying the harmonic number and -ln(-mu):

        Li_n(e^mu) = sum_{k >= 0, k != n-1} zeta(n-k) mu^k / k!
                     + mu^{n-1} / (n-1)! (H_{n-1} - ln(-mu)).

    Arguments above pi are folded to 2pi - theta and conjugated back, keeping
    |mu| / 2pi at most one half.
    """
    if n < 1:
        raise ValidationError("polylog order must be a positive integer")
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
        threshold = mpf(10) ** (-(digits + 5))
        total = mpc(0)
        mu_pow = mpc(1)
        for k in range(_SERIES_CAP + 1):
            zk = n - k
            if k == n - 1:
                total += mu_pow / mp.factorial(k) * (harmonic - log_neg_mu)
            elif zk >= 0 or zk % 2 != 0:
                # zeta vanishes at negative even integers; those terms are
                # skipped, so they never end the series early.
                term = mp.zeta(zk) * mu_pow / mp.factorial(k)
                total += term
                if k > n + 4 and abs(term) < threshold:
                    break
            mu_pow *= mu
        else:
            raise NoConvergence("polylog series did not reach the target")
        return mp.conj(total) if conjugate else +total


def beta_integral_check(j: int, digits: int = 50) -> tuple[mpf, Fraction]:
    """Quadrature and exact value of int_0^1 (x^2 - x)^{j-1} dx.

    The exact value is (-1)^{j-1} ((j-1)!)^2 / (2j-1)!, the signed beta
    integral B(j, j).
    """
    if j < 1:
        raise ValidationError("beta integral requires j >= 1")
    from math import factorial

    exact = Fraction((-1) ** (j - 1) * factorial(j - 1) ** 2, factorial(2 * j - 1))
    with mp.workdps(digits + GUARD):
        numeric = mp.quad(lambda x: (x * x - x) ** (j - 1), [0, 1])
        return +numeric, exact
