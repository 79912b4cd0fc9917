"""Exact Bernoulli numbers, integer zeta values, and polylogarithms on the unit circle.

Bernoulli numbers are exact rationals from mpmath's bernfrac, one index at a
time (convention B_1 = -1/2).  zeta_int reads zeta(2) .. zeta(ORDER_MAX) from
the module's zeta tables below, and above ORDER_MAX it is mpmath's zeta.
polylog_orders evaluates Li_lo(e^{i theta}) .. Li_hi(e^{i theta})
for integers 1 <= lo <= hi <= ORDER_MAX and theta in (0, 2pi) in one pass;
polylog_circle is its single-order case lo = hi = n, so every order goes
through one code path.

Order 1 is the real closed form
Li_1(e^{i theta}) = -ln(2 sin(theta/2)) + i (pi - theta)/2 on (0, 2pi): one
real sine and one real logarithm, exact at theta = pi and accurate to the
last digit near theta = 0 and 2pi, where 1 - e^{i theta} cancels.

For n >= 2, theta is folded into (0, pi] and expanded about the nearer of 0
and pi (L. Lewin, Polylogarithms and Associated Functions, 1981, ch. 7;
R. E. Crandall, "Note on fast polylogarithm computation", 2006).  Below
2pi/3 it is the logarithmic series about mu = i theta, and from 2pi/3 on the
series about pi in w = -i phi, phi = pi - theta, which Li_n(-e^w) =
-sum_k eta(n-k) w^k / k! makes analytic there.  Each is split in two.  The
head, k = 0..n, is real up to powers of i; it is summed in the tail's fixed
point (below) from t^k / k! (t = theta or phi) and zeta(2) .. zeta(hi), all
computed once per call.  About 0 it also takes ln theta and the harmonic
number H_{n-1}; about pi the coefficients are
eta(s) = (1 - 2^(1-s)) zeta(s), one shift-subtract on each table value,
eta(1) = ln 2 and eta(0) = 1/2, and it takes no logarithm.  The tail holds
only the terms k = n-1+2m, m >= 1, because zeta vanishes at the negative
even integers.  The functional equation
zeta(1-2m) = (-1)^m 2 (2m-1)! zeta(2m) / (2pi)^{2m} makes each of them real
up to the factor i^{n-1} or (-i)^{n-1}:

    zeta(1-2m) mu^k / k! = mu^{n-1} 2 zeta(2m) u^{2m} / [(2m)(2m+1)...(2m+n-1)]
    -eta(1-2m) w^k / k! = w^{n-1} 2 lambda(2m) u^{2m} / [(2m)(2m+1)...(2m+n-1)]

with u = x = theta / 2pi about 0, u = 1 - 2x = phi / pi about pi, and
2 lambda(2m) = 2 (1 - 4^-m) zeta(2m), again one shift-subtract on a table
entry.  The two u meet at x = 1/3, theta = 2pi/3, so u <= 1/3 at every
angle: every term after the first wp / (2 log2(1/u)) <= wp / (2 log2 3)
is below 2^-wp, and the number of terms m_max is known before the sum
starts.  About 0 alone u would reach 1/2 next to pi, and m_max wp / 2.

The tail is summed in fixed-point Python integers at wp bits.  A batch
builds c_m = 2 zeta(2m) u^{2m} (2m-1)! / (2m+lo-1)! (2 lambda(2m) about pi)
once, with a running term and no factorial, and each later order divides
every c_m by the small integer 2m+n-1, so no order after the first takes a
product of two long integers.  A call evaluates no order below lo.  A
single order n, every polylog_circle call, sums
sum_m a_m y^m, a_m = 2 zeta(2m) / P(m) and P(m) = (2m)(2m+1)...(2m+n-1),
by Horner's scheme in y = u^2 from m_max down:
acc_m = a_m + y acc_{m+1}, and the tail is y acc_1.  P(m) is updated by
small factors from one m to the next.  Since y^m multiplies acc_m, acc_m
is kept to p_m = top - floor(m log2(1/y)) bits only, top = wp + guard, so
each step takes one long product, y cut to p_m bits times acc_{m+1}, of
length falling with m; the batch takes two per term, the table entry and
u^2 times the running term.  The guard: at step m the table entry cut to
p_m bits, the division by P(m) and the shift of the product floor once
each (an entry read above wz bits is shifted left, exactly), and cutting
y to p_m bits errs by less than 2^-p_m times acc_{m+1} < 1
(a_m <= 2 zeta(2) / 6 and y <= 1/9), so acc_m gains less than 4 units of
2^-p_m, which y^m turns into less than 4 units of 2^-top.  Over m_max
steps, and the last product by y, that is less than 4 m_max + 1 units of
2^-top, below one unit of 2^-wp with guard = bitlength(m_max) + 2.  The
floors of m log2(1/y) are decided in floats; an error there can lower a
p_m by one bit and double that step's share, still far inside the 20 bits
by which wz exceeds the working precision.

The factor t^{n-1} stays outside the tail's sum and multiplies it per
order.  About 0 it reaches (2pi/3)^99, about 2^106, while the tail terms of
high orders are tiny, so the fixed point carries ceil((hi-1) log2 t) guard
bits above wz = mp.prec + 20: wp = wz + guard; about pi, t <= pi/3 needs
at most 7.  Below t = 1 the guard is ceil(log2(1/t)) instead, so that the
imaginary part, of order t, keeps wz bits of its own.  Both are decided in
floats.  Without the first guard, with the series about 0 alone, Li_2 ..
Li_100 at theta = pi and 1000 digits were off by up to 1.2e-965, 45 digits
short of the working precision.

The head is summed in the same fixed point, with no mpf arithmetic but the
reads of ln t, ln 2 and pi / 2 at the working precision, each shifted to
wp bits (R. P. Brent and P. Zimmermann, Modern Computer Arithmetic, 2010,
section 4.4).  T = floor(t 2^wp) is taken once.  t^k 2^wp is a running
power, one long product by T and one floor per k, and t^k / k! 2^wp is that
power floored once by k!.  zeta(s) is its table entry read at wz bits and
shifted left, and eta(s) one shift-subtract more; H_{n-1} is an exact
Fraction, floored once at wp bits.  Each order's four quarters, the real
coefficients of 1, i, -1 and -i, are exact sums of products of two wp-bit
integers, t^{n-1} times the tail's sum among them, and its real and
imaginary parts are each rounded once to the working precision.  The
error, in units of 2^-wp: T errs by less than one unit, so the running
power errs by e_k <= t e_{k-1} + t^{k-1} + 1, less than
2k max(1, t)^{k-1}, and with t <= 2pi/3 the division by k! leaves t^k / k!
within 2 t^{k-1} / (k-1)! + 1 < 6 units.  An order's head takes n - 1 of
these times zeta or eta values below 2, the last two times factors below 7
(|H_{n-1} - ln t|, pi/2, ln 2 or 1/2, where t >= 1/2), and one floor for
each eta and for H_{n-1}: less than 12n + 100 units in all, below 2^11 at
n = 100, far inside the 20 bits by which wz exceeds the working precision.
Where t > 1 the power t^{n-1} errs by less than 2(n-1) 2^guard units,
which the tail's sum, below 1/10, turns into less than n units of 2^-wz.
Below t = 1 every one of these errors is absolute, against an imaginary
part of order t, and the guard of ceil(log2(1/t)) bits keeps it relative
to that part.

The coefficients 2 zeta(2m) depend on neither the angle nor the order.  One
table for the module holds them as integers 2 zeta(2m) 2^prec, at the
highest working precision requested so far.  Every call reads it at wz bits,
whatever its guard, so a batched call raises the table's precision no more
than a single order at the same digits.  A lower precision reads it shifted
right, a higher one rebuilds it, and a call extends it only as far as its
own terms need.  The even values zeta(2) .. zeta(hi) of the head, and
zeta_int, read the same table through one integer reader, _table_zeta.
Up to 2m = prec/6 an entry comes from the exact tangent numbers T_m
(tan x = sum T_m x^{2m-1} / (2m-1)!) through

    2 zeta(2m) = T_m pi^{2m} / ((4^m - 1) (2m-1)!).

T_1 .. T_M come from Brent and Harvey's in-place recurrence
T_j <- (j-k) T_{j-1} + (j-k+2) T_j, M^2/2 products of a long and a small
integer (R. P. Brent and D. Harvey, "Fast computation of Bernoulli, tangent
and secant numbers", 2011, arXiv:1108.0286), and pi^{2m} is a running
fixed-point power, one product of two long integers per entry.  The
multiplier T_m / ((4^m - 1)(2m-1)!) = 2 zeta(2m) / pi^{2m} is at most 1/3,
so the m truncations of the power err by at most about m/3 units, and
bitlength(prec/12) + 2 guard bits keep every entry within one unit of
floor(2 zeta(2m) 2^prec).  Above 2m = prec/6, an entry is
1 + sum_{2 <= j <= 64} j^{-2m} in fixed point, and the neglected part, below
65^{-2m} (1 + 65/(2m-1)), is a few units of 2^-prec at most.  The table has
at most about prec/2 entries of prec bits each, about prec^2/16 bytes:
0.7 MB at 1000 digits.

A second table, under the same rules, holds the odd values zeta(2m+1) 2^prec
for 3 <= 2m+1 <= ORDER_MAX; the odd zeta(3) .. zeta(hi) of the head come from
it.  A fill runs up to the largest value it is asked for, and a fill that
extends the table at least doubles it, all in one pass of P. Borwein's
Algorithm 2 ("An efficient algorithm for the Riemann zeta function", CMS
Conf. Proc. 27, 2000), the sum mpmath's zeta takes at an integer s that is
small against the precision, with mpmath's term count
n = floor(wp / 2.54) + 5 at wp = prec + 20 bits:

    zeta(s) = 2^(s-1) / (2^(s-1) - 1) sum_{k<n} (-1)^k (d_n - d_k) / ((k+1)^s d_n)

with the exact integers d_k = sum_{i<=k} n (n+i-1)! 4^i / ((n-i)! (2i)!), of
which d_n = ((3+sqrt 8)^n + (3-sqrt 8)^n) / 2.  The integers
c_k = floor((d_n - d_k) / (k+1)^s) are taken once for s = 1, and each odd s
in turn divides every c_k in place by (k+1)^2, below 2^30 up to about
25000 digits, so each step is a division of a long integer by one machine
digit.  Nested floors are exact, floor(floor(x / a) / b) = floor(x / (ab)),
so every c_k is within one unit of its quotient for every s, however many
steps it took.  Per s, the alternating sum is shifted left by wp bits and
divided once by d_n, which exceeds 2^(wp+9), and once by 1 - 2^(1-s).  The
n floors thus err by at most n 2^-(wp+9) and truncating the sum after n
terms by at most 3 / (3+sqrt 8)^n, below 2^-(wp+8): a few units of 2^-wp,
so every entry is within one unit of floor(zeta(s) 2^prec).  Only the
entries are kept: the d_k and the c_k are dropped after the fill.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, factorial, log2, prod

from mpmath import mp, mpc, mpf

from .errors import ThetaOutOfRange, ValidationError
from .numfield import DEFAULT_DIGITS, GUARD, _integers, ln, to_mp

# Largest polylogarithm order served.  It also bounds the circle-bundle
# orders, jmax + 1 and j + 1, and the same j in normalize and beta-check
# (_check_j).  At 1000 digits on one core of a 2-core x86 machine with
# mpmath's pure-Python backend, a cold Li_100 at theta = pi takes 0.07 s
# in process (0.18-0.20 s as a CLI process), nearly all of it the one pass
# that fills the odd zeta(3)..zeta(99) of the head: at pi the series about
# pi has no tail, and the zeta(2m) table is filled to m = 50 in about 1 ms.
# circle-torsion --r 61 --jmax 99 takes 3.6-4.4 s as a CLI process.
ORDER_MAX = 100

# Largest Bernoulli index served; mp.bernfrac(10_000) takes about 0.5 s on
# mpmath's pure-Python backend, and the cost grows faster than quadratically.
BERNOULLI_MAX = 10_000


def _check_j(j: int, lo: int, what: str) -> int:
    """The degree index j of the circle-bundle forms (Li_{j+1} is a
    polylogarithm order), their normalizations and beta integrals, read as
    an integer (numfield._integers) with lo <= j < ORDER_MAX."""
    (j,) = _integers([j], f"{what} in [{lo}, {ORDER_MAX - 1}]")
    if not lo <= j < ORDER_MAX:
        raise ValidationError(f"{what} in [{lo}, {ORDER_MAX - 1}]")
    return j


def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m with B_1 = -1/2, for an integer
    0 <= m <= BERNOULLI_MAX (numfield._integers)."""
    (m,) = _integers([m], "Bernoulli index must be an integer")
    if m < 0:
        raise ValidationError("Bernoulli index must be non-negative")
    if m > BERNOULLI_MAX:
        raise ValidationError(f"Bernoulli index must be at most {BERNOULLI_MAX}")
    return Fraction(*mp.bernfrac(m))


def bernoulli_polynomial(n: int, x: Fraction) -> Fraction:
    """Exact value of the Bernoulli polynomial B_n(x) at a rational point,
    for an integer n >= 0 (numfield._integers)."""
    (n,) = _integers([n], "Bernoulli polynomial degree must be an integer")
    if n < 0:
        raise ValidationError("Bernoulli polynomial degree must be non-negative")
    return sum(comb(n, k) * bernoulli(k) * x ** (n - k) for k in range(n + 1))


def zeta_int(s: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """zeta(s) for an integer s >= 2 (numfield._integers) at digits + GUARD.

    Up to s = ORDER_MAX it is read from the module's zeta tables at the
    precision a polylogarithm at these digits reads them: an even s from the
    tangent-number table, an odd s from the one Borwein pass, which also
    fills every odd value below s.  Above ORDER_MAX it is mpmath's zeta,
    which turns to a short Euler product or the first few powers once s is
    large against the working precision.
    """
    (s,) = _integers([s], "zeta_int requires an integer s >= 2")
    if s < 2:
        raise ValidationError("zeta_int requires an integer s >= 2")
    with mp.workdps(digits + GUARD):
        if s > ORDER_MAX:
            return mp.zeta(s)
        wz = mp.prec + 20
        return mpf((_table_zeta(s, wz, wz + 1), -wz - 1))


def _tangent_numbers(n: int) -> list:
    """[0, T_1, ..., T_n]: the tangent numbers, tan x = sum T_k x^{2k-1} / (2k-1)!
    (OEIS A000182), exactly, by Brent and Harvey's in-place recurrence."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


class _ZetaTable:
    """Integers values[m] for m = 1 .. len(values) - 1 at one precision, the
    highest read so far; a subclass's _extend fills them up to a given m."""

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


class _EvenZetaTable(_ZetaTable):
    """2 zeta(2m) 2^prec."""

    def _extend(self, m_max: int) -> None:
        prec, values = self.prec, self.values
        # 2 zeta(2m) = T_m pi^{2m} / ((4^m - 1)(2m-1)!) for 2m <= prec/6, with
        # pi^{2m} a running power at wp bits.  The guard depends on prec
        # alone, and the power always starts at m = 1, so an entry does not
        # depend on how far earlier fills went.
        low = min(m_max, prec // 12)
        first = len(values)
        if first <= low:
            guard = (prec // 12).bit_length() + 2
            wp = prec + guard
            with mp.workprec(wp + 10):
                pi2 = int(mp.ldexp(mp.pi ** 2, wp))
            tangent = _tangent_numbers(low)
            power, fact = pi2, 1
            for m in range(1, low + 1):
                if m > 1:
                    power = power * pi2 >> wp
                    fact *= (2 * m - 2) * (2 * m - 1)
                if m >= first:
                    values.append(tangent[m] * power // ((4 ** m - 1) * fact << guard))
        # 2m > prec/6: 2 (1 + sum_{2 <= j <= 64} j^{-2m}) from running powers.
        if len(values) <= m_max:
            one = 1 << prec
            two_m = 2 * len(values)
            powers = [(j * j, one // j ** two_m) for j in range(2, 65)]
            while len(values) <= m_max:
                values.append(2 * (one + sum(p for _, p in powers)))
                powers = [(jj, p // jj) for jj, p in powers if p >= jj]


class _OddZetaTable(_ZetaTable):
    """zeta(2m+1) 2^prec, all from one Borwein pass."""

    def _extend(self, m_max: int) -> None:
        prec, values = self.prec, self.values
        wp = prec + 20
        n = int(wp / 2.54) + 5
        # d_0 .. d_n, the partial sums of n (n+i-1)! 4^i / ((n-i)! (2i)!).
        d, term = [1], 1
        for i in range(1, n + 1):
            term = term * (4 * (n + i - 1) * (n - i + 1)) // (2 * i * (2 * i - 1))
            d.append(d[-1] + term)
        dn = d.pop()
        # c_k = floor((d_n - d_k) / (k+1)^s), kept from one odd s to the next.
        chain = [(dn - dk) // (k + 1) for k, dk in enumerate(d)]
        del d
        squares = [(k + 1) ** 2 for k in range(n)]
        first = len(values)
        # A pass that extends the table at least doubles it, up to
        # zeta(ORDER_MAX), so reads of ascending s run a few passes, not one each.
        m_max = max(m_max, min(2 * (first - 1), (ORDER_MAX - 1) // 2))
        for m in range(1, m_max + 1):
            for k, q in enumerate(squares):
                chain[k] //= q
            if m >= first:
                # eta(s) 2^wp, then zeta(s) = eta(s) 2^(s-1) / (2^(s-1) - 1).
                eta = ((sum(chain[::2]) - sum(chain[1::2])) << wp) // dn
                values.append((eta << 2 * m) // ((1 << 2 * m) - 1) >> 20)


_EVEN_ZETA = _EvenZetaTable()
_ODD_ZETA = _OddZetaTable()


def _table_zeta(s: int, wz: int, bits: int) -> int:
    """zeta(s) 2^bits for 2 <= s <= ORDER_MAX and bits >= wz: the table of
    its parity read at wz bits and shifted left, exactly, but for the halving
    of an even entry 2 zeta(s), which floors once when bits = wz."""
    table = _ODD_ZETA if s % 2 else _EVEN_ZETA
    values, shift = table.read(s // 2, wz)
    return values[s // 2] >> shift << bits - wz >> 1 - s % 2


def _log2(v) -> float:
    """log2 of a positive mpf, in floats at any exponent."""
    man, exp = mp.frexp(v)
    return log2(float(man)) + exp


def _series_orders(lo: int, hi: int, th) -> list:
    """Li_lo .. Li_hi at e^{i th} for 2 <= lo <= hi and th in (0, pi], at the
    working precision: the series about 0 below th = 2pi/3, the series about
    pi from there on.  Head and tail are summed in one fixed point of wp
    bits, and each order's real and imaginary parts are rounded once; the
    module docstring derives the guard bits and the error."""
    # t = th about 0, t = phi = pi - th about pi (exact: th >= pi/2); the tail
    # runs in u = x = th / 2pi or u = 1 - 2x = phi / pi, at most 1/3 either way.
    near_pi = 3 * th >= 2 * mp.pi
    t = mp.pi - th if near_pi else th
    u = t / mp.pi if near_pi else th / (2 * mp.pi)
    # Fixed point at wp bits, whose guard bits absorb the factor t^{n-1}
    # multiplied back per order, or below t = 1 keep the imaginary part, of
    # order t, to wz bits.  The zeta tables are read at wz bits, whatever the guard.
    wz = mp.prec + 20
    log2_t = _log2(t) if t else 0
    wp = wz + ceil((hi - 1) * log2_t if log2_t > 0 else -log2_t)
    # Term m is below u^{2m} 2^wp, so it vanishes once 2m log2(1/u) > wp; at
    # th = pi, u = 0 leaves no tail.
    m_max = int(wp / (-2 * _log2(u))) + 2 if u else 0
    zeta2, shift = _EVEN_ZETA.read(max(m_max, hi // 2), wz)
    # c holds the tail at wp bits: its one sum for a single order, its c_m for a batch.
    c = []
    if m_max and lo == hi:
        # One order: Horner in y = u^2 from m = m_max down, acc_m = a_m + y acc_{m+1}
        # with a_m = 2 zeta(2m) / P(m) (or 2 lambda(2m) / P(m)) and
        # P(m) = (2m)(2m+1)...(2m+lo-1), kept to the top - floor(m log2(1/y))
        # bits that y^m leaves significant.
        guard = m_max.bit_length() + 2
        top = wp + guard
        log_y = -2 * _log2(u)
        with mp.workprec(top):
            y = int(mp.ldexp(u * u, top))
        den = prod(range(2 * m_max, 2 * m_max + lo))
        acc = bits = 0
        for m in range(m_max, 0, -1):
            p = top - int(m * log_y)
            if p > 0:
                s = shift + wz - p
                a = zeta2[m] >> s if s >= 0 else zeta2[m] << -s
                if near_pi:
                    a -= a >> 2 * m
                acc = a // den + ((y >> (top - p)) * acc >> bits)
                bits = p
            den = den * ((2 * m - 2) * (2 * m - 1)) // ((2 * m + lo - 2) * (2 * m + lo - 1))
        c = [y * acc >> (bits + guard)]
    elif m_max:
        # Batch: c_m = 2 zeta(2m) u^{2m} (2m-1)! / (2m+lo-1)! (or 2 lambda(2m)),
        # from a running term t_m = u^{2m} (2m-1)! / (2m+lo-1)!.
        with mp.workprec(wp):
            y = int(mp.ldexp(u * u, wz))
            term = int(mp.ldexp(u * u / mp.factorial(lo + 1), wp))
        for m in range(1, m_max + 1):
            if not term:
                break
            # The table entry and y, both at wz bits, are cut to the length of
            # the term first: their lower bits do not reach the floor of the product.
            cut = max(0, wz - 8 - term.bit_length())
            a = zeta2[m] >> (shift + cut)
            if near_pi:
                a -= a >> 2 * m
            c.append(a * term >> (wz - cut))
            term = (y >> cut) * term >> (wz - cut)
            term = term * (2 * m * (2 * m + 1)) // ((2 * m + lo) * (2 * m + lo + 1))

    # Head, in the same fixed point: tp[k] = t^k 2^wp by one long product per
    # k from tt = floor(t 2^wp), and pk[k] = t^k / k! 2^wp by one division of it.
    # The first read of the odd table fills zeta(3) .. zeta(hi) in one
    # Borwein pass; about pi, -eta(s) = (2^(1-s) - 1) zeta(s).
    tt = int(mp.ldexp(t, wp))
    tp, pk, fact = [1 << wp], [1 << wp], 1
    for k in range(1, hi + 1):
        fact *= k
        tp.append(tp[-1] * tt >> wp)
        pk.append(tp[-1] // fact)
    _ODD_ZETA.read((hi - 1) // 2, wz)
    zetas = [_table_zeta(s, wz, wp) for s in range(2, hi + 1)]
    head = [0, 0] + ([(v >> s - 1) - v for s, v in enumerate(zetas, 2)] if near_pi else zetas)
    if near_pi:
        ln2 = int(mp.ldexp(mp.ln2, wp))
    else:
        log_t = int(mp.ldexp(ln(t), wp))
        half_pi = int(mp.ldexp(mp.pi, wp - 1))
        harmonic = sum(Fraction(1, m) for m in range(1, lo - 1))

    out = []
    for n in range(lo, hi + 1):
        if n > lo:
            c = [cm // (2 * m + n - 1) for m, cm in enumerate(c, 1)]
        # quarter[q] collects the real coefficients of i^q at 2wp bits.
        terms = [head[n - k] * pk[k] for k in range(n - 1)]
        quarter = [sum(terms[q::4]) for q in range(4)]
        quarter[(n - 1) % 4] += tp[n - 1] * sum(c)
        if near_pi:
            # -eta(1) = -ln 2 at k = n-1 and -eta(0) = -1/2 at k = n.
            quarter[(n - 1) % 4] -= pk[n - 1] * ln2
            quarter[n % 4] -= pk[n] << wp - 1
        else:
            harmonic += Fraction(1, n - 1)
            h = (harmonic.numerator << wp) // harmonic.denominator
            quarter[(n - 1) % 4] += pk[n - 1] * (h - log_t)
            quarter[n % 4] += pk[n - 1] * half_pi - (pk[n] << wp - 1)
        re, im = quarter[0] - quarter[2], quarter[1] - quarter[3]
        # About pi the sum is Li_n(-e^{i phi}), the conjugate of Li_n(e^{i th}).
        out.append(mpc(mpf((re, -2 * wp)), mpf((-im if near_pi else im, -2 * wp))))
    return out


def polylog_orders(lo: int, hi: int, theta, digits: int = DEFAULT_DIGITS) -> list:
    """[Li_lo(e^{i theta}), ..., Li_hi(e^{i theta})] in one pass, for integer
    1 <= lo <= hi <= ORDER_MAX and theta in (0, 2pi).

    Order 1 is the closed form -ln(2 sin(theta/2)) + i (pi - theta)/2.  For
    n >= 2, arguments above pi are folded to 2pi - theta and conjugated
    back, keeping x = theta / 2pi at most one half.  Below 2pi/3 the series
    in mu = i theta with integer zeta coefficients is used, with the
    k = n-1 term carrying the harmonic number and -ln(-mu):

        Li_n(e^mu) = sum_{k >= 0, k != n-1} zeta(n-k) mu^k / k!
                     + mu^{n-1} / (n-1)! (H_{n-1} - ln(-mu)).

    From 2pi/3 on it is the series about pi, in w = -i phi with phi = pi - theta:

        Li_n(-e^w) = -sum_{k >= 0} eta(n-k) w^k / k!,

    with eta(s) = (1 - 2^(1-s)) zeta(s), eta(1) = ln 2 and eta(0) = 1/2; it
    takes no logarithm and no harmonic number.  The head k = 0..n shares
    the powers of the angle and zeta(2) .. zeta(hi) across orders.  Beyond
    it only k = n-1+2m is nonzero, and with u = x about 0, u = 1 - 2x about pi,

        zeta(1-2m) mu^k / k! = mu^{n-1} 2 zeta(2m) u^{2m} / [(2m)...(2m+n-1)],
        -eta(1-2m) w^k / k! = w^{n-1} 2 lambda(2m) u^{2m} / [(2m)...(2m+n-1)],

    lambda(2m) = (1 - 4^-m) zeta(2m).  This real tail is summed in
    fixed-point integers over a known number of terms, by Horner's scheme
    for a single order, and for a batch from c_m = 2 zeta(2m) u^{2m}
    (2m-1)! / (2m+lo-1)!, built once, which each later order divides by the
    small integer 2m+n-1.  No order lower than lo is evaluated.  At theta =
    pi to the working precision every order is the real
    Li_n(-1) = -eta(n), and its imaginary part is exactly 0.

    theta is read as any other number and rounded once to the working
    precision (numfield.to_mp); a complex-typed theta is refused.  lo and
    hi are integers (numfield._integers).
    """
    lo, hi = _integers((lo, hi), "polylog order must be an integer")
    if lo < 1:
        raise ValidationError("polylog order must be a positive integer")
    if hi > ORDER_MAX:
        raise ValidationError(f"polylog order must be at most {ORDER_MAX}")
    if hi < lo:
        raise ValidationError("polylog orders must satisfy lo <= hi")
    with mp.workdps(digits + GUARD):
        th = to_mp(theta)
        if isinstance(th, mpc):
            raise ValidationError(f"theta must be a real number, got {theta!r}")
        two_pi = 2 * mp.pi
        if not (0 < th < two_pi):
            raise ThetaOutOfRange(f"theta must lie strictly inside (0, 2pi), got {th}")
        out = []
        if lo == 1:
            half = th / 2
            out.append(mpc(-ln(2 * mp.sin(half)), mp.pi / 2 - half))
            lo = 2
        if lo <= hi:
            if th > mp.pi:
                out += [mp.conj(li) for li in _series_orders(lo, hi, two_pi - th)]
            else:
                out += _series_orders(lo, hi, th)
        return out


def polylog_circle(n: int, theta, digits: int = DEFAULT_DIGITS) -> mpc:
    """Li_n(e^{i theta}) for integer 1 <= n <= ORDER_MAX and theta in (0, 2pi):
    the single order n of polylog_orders.  n = 1 is the principal branch of
    -ln(1 - e^{i theta})."""
    return polylog_orders(n, n, theta, digits)[0]


def beta_integral_check(j: int, digits: int = DEFAULT_DIGITS) -> tuple[mpf, Fraction]:
    """Quadrature and exact value of int_0^1 (x^2 - x)^{j-1} dx.

    The exact value is (-1)^{j-1} ((j-1)!)^2 / (2j-1)!, the signed beta
    integral B(j, j); 1 <= j < ORDER_MAX.  The quadrature runs on
    (4 (x - x^2))^{j-1}, whose peak at x = 1/2 is 1, and scales the result
    exactly by (-1)^{j-1} 4^{-(j-1)}: the integrand itself falls to about
    4^{-(j-1)}, below mp.quad's absolute tolerance, and the quadrature would
    stop too early.
    """
    j = _check_j(j, 1, "the beta integral is checked for j")
    exact = Fraction((-1) ** (j - 1) * factorial(j - 1) ** 2, factorial(2 * j - 1))
    with mp.workdps(digits + GUARD):
        scaled = mp.quad(lambda x: (4 * (x - x * x)) ** (j - 1), [0, 1])
        numeric = mp.ldexp(scaled, -2 * (j - 1))
        return +(numeric if j % 2 else -numeric), exact
