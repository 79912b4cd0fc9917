"""Exact Bernoulli numbers, integer zeta values, and polylogarithms on the unit circle.

Bernoulli numbers are exact rationals from mpmath's bernfrac, one index at a
time (convention B_1 = -1/2).  zeta_int reads zeta(2) .. zeta(ORDER_MAX) from
the module's zeta tables below, and above ORDER_MAX it is mpmath's zeta.
polylog_orders evaluates Li_lo(e^{i theta}) .. Li_hi(e^{i theta})
for integers 1 <= lo <= hi <= ORDER_MAX and theta in (0, 2pi) in one pass;
polylog_circle is its single-order case lo = hi = n, so every order goes
through one code path.  Each real and imaginary part of an order >= 2, and
the imaginary part of order 1, is correctly rounded to the working
precision: it is a function of (n, theta, digits) alone, whether a batch
or a single order computed it, and whatever precision the zeta tables had
reached (below).

Order 1 is the closed form
Li_1(e^{i theta}) = -ln(2 sin(theta/2)) + i (pi - theta)/2 on (0, 2pi): one
real sine and one real logarithm, exact at theta = pi and accurate to the
last digit near theta = 0 and 2pi, where 1 - e^{i theta} cancels.  Its
imaginary part is the reduced angle of the series below, halved, and
correctly rounded; its real part is rounded after the sine and the
logarithm, each at the working precision, and is not certified: near
theta = pi/3, where it vanishes, its last digits can be wrong.

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

The argument is reduced once, in integers.  With phi = min(theta,
2pi - theta), conjugated back when theta > pi, t = phi about 0 and
t = pi - phi about pi, so t = j pi + s theta with j in {0, 2, 1, -1} and
s = +-1.  T = j Pi + s floor(theta 2^wp) is t 2^wp, with Pi = pi 2^wp read
from mpmath's fixed-point pi at wp + 2 bits, within 1.5 units; theta 2^wp
is an integer whenever j != 0 (theta >= 2pi/3), so T is within 3 units of
2^-wp, and close to pi it keeps t to wz bits of its own.  The branch is
decided from T at wz bits, with 2^(4 - prec) to spare on the side of the
series about pi, which takes no logarithm: either series converges there.
theta equal to pi at the working precision is pi: T = 0, every imaginary
part is exactly 0 and the real part is -eta(n).  u = t / 2pi or t / pi is
floor(T 2^wp / D), D = 2 Pi or Pi, within 2.2 units.

The tail is summed in fixed-point Python integers at top = wp + extra
bits.  A batch builds c_m = 2 zeta(2m) u^{2m} (2m-1)! / (2m+lo-1)!
(2 lambda(2m) about pi) once, with a running term and no factorial, and
each later order divides every c_m by the small integer 2m+n-1, so no order
after the first takes a product of two long integers.  A call evaluates no
order below lo.  A single order n, every polylog_circle call, sums
sum_m a_m y^m, a_m = 2 zeta(2m) / P(m) and P(m) = (2m)(2m+1)...(2m+n-1),
by Horner's scheme in y = u^2 from m_max down:
acc_m = a_m + y acc_{m+1}, and the tail is y acc_1.  P(m) is updated by
small factors from one m to the next.  Since y^m multiplies acc_m, acc_m
is kept to p_m = top - floor(m log2(1/y)) bits only, so each step takes
one long product, y cut to p_m bits times acc_{m+1}, of length falling
with m; the batch takes two per term, the table entry and u^2 times the
running term.  The floors: in Horner's scheme, the table entry cut to p_m
bits, the division by P(m) and the shift of the product floor once each
(an entry read above wz bits is shifted left, exactly), and cutting y to
p_m bits errs by less than 2^-p_m times acc_{m+1} < 1 (a_m <= 2 zeta(2) / 6
and y <= 1/9), so acc_m gains less than 4 units of 2^-p_m, which y^m turns
into less than 4 units of 2^-top; the floors of m log2(1/y) are decided in
floats, and an error there can lower a p_m by one bit and double that
step's share.  In the batch, the running term errs by less than 2.3 units
of 2^-top (one floor per step, shrinking by y), each c_m by less than 9,
and a division by 2m+n-1 >= 3 takes an error e to less than e/3 + 1, so no
c_m errs by more than 9 at any order.  Either way the floors stay below
9 (m_max + 1) units of 2^-top, and extra = bitlength(9 m_max + 9) bits
make that less than one unit of 2^-wp.

The factor t^{n-1} stays outside the tail's sum and multiplies it per
order.  About 0 it reaches (2pi/3)^99, about 2^106, while the tail terms of
high orders are tiny, so the fixed point carries g = ceil((hi-1) log2 t)
guard bits above wz = mp.prec + guard: wp = wz + g; about pi, t <= pi/3
needs at most 7.  Below t = 1, g = ceil(log2(1/t)) instead, so that the
imaginary part, of order t, keeps wz bits of its own.  Both are decided in
floats, from t at wz bits.  Without the first guard, with the series about
0 alone, Li_2 .. Li_100 at theta = pi and 1000 digits were off by up to
1.2e-965, 45 digits short of the working precision.  The guard is
ZIV_GUARD bits and doubles at each retry (below).

The head is summed in the same fixed point, with no mpf arithmetic but
ln t (R. P. Brent and P. Zimmermann, Modern Computer Arithmetic, 2010,
section 4.4).  t^k 2^wp is a running power, one long product by T and one
floor per k, and t^k / k! 2^wp is that power floored once by k!.  zeta(s)
is its table entry read at wz bits and shifted left, and eta(s) one
shift-subtract more; H_{n-1} is an exact Fraction, floored once at wp bits;
ln 2 is mpmath's fixed-point ln 2 at wp + 2 bits, pi/2 is Pi halved, and
ln t is taken at wz + 8 bits from T.  Each order's four quarters, the real
coefficients of 1, i, -1 and -i, are exact sums of products of two wp-bit
integers, t^{n-1} times the tail's sum among them.

Each order's error is bounded in units of 2^-wp, t <= 2pi/3 throughout.
T errs by less than 3, so the running power errs by less than
4k max(1, t)^{k-1} and t^k / k! by less than 10.  A zeta table entry is
within 2 units of 2^-wz at any precision the table holds (below), so a
zeta(s) or eta(s) of the head errs by less than 4 units of 2^-wz,
2^(g+2) units.  The bound B_n of a part adds
  18 n for the head's n-1 products, zeta or eta below 1.65 times the error
      of t^k / k!, plus one unit for each product's own rounding;
  4 (sum_k t^k/k! 2^g + 1) over the even k for the real part, the odd k for
      the imaginary part: the table errors times t^k / k!; below t = 1 the
      odd k sum to less than 2t, and 2^g < 2/t, so this stays a few units;
  10 L + 40 for the terms k = n-1 and n, L = ceil|H_{n-1} - ln t| + 1 about
      0 and 1 about pi: t^{n-1}/(n-1)! errs by less than 10, H by 1, ln t by
      3/t + 1 from T and truncation, pi/2 by 1.75 and ln 2 by 1.5;
  (t^{n-1} / (n-1)! 2^g + 1)(|ln t| + 2) about 0, for the relative error
      of ln t at wz + 8 bits, at most 2^-(wz+6) (|ln t| + 1);
  5 (t^{n-1} + 2) for the tail: less than one unit of floors, one for the
      shift from top to wp bits, one for the terms past m_max or past the
      batch's last nonzero term, and about one for the error of y, which
      S'(y) < 4.2 / (n+1)! carries into the sum S;
  10 (t^{n-1} 2^g / (n+1)! + 1) for the tail's errors relative to 2^-wz:
      the table entries, and in the batch y at wz bits (2 units of 2^-wz),
      against S < 0.41 / (n+1)! and S'(y).
The powers t^{n-1} and the sums of t^k / k! are read from the integers
themselves, so every term is an integer known before the rounding.

A part v, at 2wp bits, is returned when v - B_n and v + B_n round to the
same mpf at the working precision (Ziv's test: A. Ziv, "Fast evaluation of
elementary mathematical functions with correctly rounded last bit", ACM
TOMS 17, 1991): the exact value lies between them, so it rounds to that
mpf too.  Otherwise the whole call is recomputed with twice the guard; a
table filled at a higher precision is read shifted, not rebuilt.  The
imaginary part at theta = pi is exactly 0 and takes no test.  A part is
retried when a rounding boundary falls within its bound: with B_n below
about 2^11 units of 2^-wz and ZIV_GUARD = 40, that is below 2^-28 for a
part of order 1 (2^-(28 - k) for a part near 2^-k).  Over every
polylogarithm of the circle-ladder and cli-cold benchmark ops the bound
stays below 2^-29.5 of an ulp, 2^-34 in the median, and no call retries.
Past a guard of 4 mp.prec bits the call raises NoConvergence.

The coefficients 2 zeta(2m) depend on neither the angle nor the order.  One
table for the module holds them as integers 2 zeta(2m) 2^prec, at the
highest working precision requested so far.  Every call reads it at wz bits,
whatever its guard g, so a batched call raises the table's precision no more
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
from mpmath.libmp import from_man_exp, ln2_fixed, mpf_pi, pi_fixed, round_nearest

from .errors import NoConvergence, ThetaOutOfRange, ValidationError
from .numfield import DEFAULT_DIGITS, GUARD, _integers, ln, to_mp

# Largest polylogarithm order served.  It also bounds the circle-bundle
# orders, jmax + 1 and j + 1, and the same j in normalize and beta-check
# (_check_j).  At 1000 digits on one core of a 2-core x86 machine with
# mpmath's pure-Python backend, a cold Li_100 at theta = pi takes
# 0.07-0.09 s in process (0.22-0.24 s as a CLI process), nearly all of it
# the one pass that fills the odd zeta(3)..zeta(99) of the head: at pi the
# series about pi has no tail, and the zeta(2m) table is filled to m = 50
# in about 1 ms.  circle-torsion --r 61 --jmax 99 takes 3.7-3.9 s as a CLI
# process.
ORDER_MAX = 100

# Bits by which the polylogarithm's fixed point, and the zeta tables it reads,
# exceed the working precision, wz = mp.prec + ZIV_GUARD.  A call whose error
# bound leaves a part undecided by Ziv's test is recomputed with twice the
# guard; at 40 bits that happens to fewer than 2^-28 of the parts of order 1
# (module docstring), and to none of the benchmark's.
ZIV_GUARD = 40

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
        wz = mp.prec + ZIV_GUARD
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


def _fixed(v, bits: int) -> int:
    """v 2^bits truncated toward 0, for an mpf v."""
    sign, man, exp, _ = v._mpf_
    man = man << exp + bits if exp + bits >= 0 else man >> -exp - bits
    return -man if sign else man


def _log2(v) -> float:
    """log2 of a positive mpf, in floats at any exponent."""
    man, exp = mp.frexp(v)
    return log2(float(man)) + exp


def _correctly_rounded(v: int, err: int, exp: int):
    """v 2^exp rounded to the working precision, when every value within
    err 2^exp of it rounds to the same mpf (Ziv's test); None otherwise.
    Integers of n bits round to the multiples of 2^s, s = n - mp.prec, so
    the test asks that |v| - err and |v| + err have one length and no
    midpoint between two such multiples lies between them."""
    low, high = abs(v) - err, abs(v) + err
    s = high.bit_length() - mp.prec
    if low <= 0 or s <= 0 or low.bit_length() != high.bit_length():
        return None
    half = 1 << s - 1
    if low + half - 1 >> s != high + half >> s:
        return None
    return mp.make_mpf(from_man_exp(v, exp, mp.prec, round_nearest))


def _series_orders(lo: int, hi: int, th, guard: int):
    """Li_lo .. Li_hi at e^{i th} for 1 <= lo <= hi and th in (0, 2pi), each
    real and imaginary part correctly rounded to the working precision, or
    None when Ziv's test leaves a part undecided at this guard.  Order 1 is
    the closed form, from 2 on the series about the nearer of 0 and pi; head
    and tail are summed in one fixed point of wp = mp.prec + guard + g bits.
    The module docstring derives g and each order's error bound."""
    # th folds to phi = min(th, 2pi - th), conjugated back when th > pi, and
    # t = phi about 0, t = pi - phi about pi: t = j pi + sign th, exact up to
    # the error of pi.  th equal to pi at the working precision is pi, t = 0.
    # The branch and the guard bits g are decided from t at wz bits; within
    # 2^(4 - mp.prec) of 3 th = 2pi or 4pi, as at 2pi/3 rounded to the working
    # precision, the series about pi runs, which takes no logarithm.
    wz = mp.prec + guard
    pi_z, th_z = pi_fixed(wz + 2) >> 2, _fixed(th, wz)
    at_pi = th._mpf_ == mpf_pi(mp.prec, round_nearest)
    conj = th_z > pi_z
    slack = 1 << wz - mp.prec + 4
    near_pi = 2 * pi_z - slack <= 3 * th_z <= 4 * pi_z + slack
    if near_pi:
        j, sign = (-1, 1) if conj else (1, -1)
    else:
        j, sign = (2, -1) if conj else (0, 1)
    log2_t = 0 if at_pi else log2(j * pi_z + sign * th_z) - wz if j else _log2(th)
    # g absorbs the factor t^{n-1} multiplied back per order, or below t = 1
    # keeps the imaginary part, of order t, to wz bits.  The zeta tables are
    # read at wz bits, whatever g.
    wp = wz + ceil((hi - 1) * log2_t if log2_t > 0 else -log2_t)
    pi_w = pi_fixed(wp + 2) >> 2
    tt = 0 if at_pi else j * pi_w + sign * _fixed(th, wp)
    out = []
    # The imaginary part's sign: about pi the sum is Li_n(-e^{i phi}), the
    # conjugate of Li_n(e^{i phi}), and th > pi conjugates once more.
    flip = -1 if near_pi != conj else 1
    if lo == 1:
        # (pi - th) / 2 = +-t / 2 about pi, +-(pi - t) / 2 about 0.
        half = _correctly_rounded(tt if near_pi else pi_w - tt, 3, -wp - 1) if tt else mpf(0)
        if half is None:
            return None
        out.append(mpc(-ln(2 * mp.sin(th / 2)), -half if conj else half))
        lo = 2
    if lo > hi:
        return out

    # The tail runs in u = t / 2pi about 0, u = t / pi about pi, at most 1/3
    # either way, taken at wp bits as tt / d.  Term m is below u^{2m} 2^wp,
    # so it vanishes once 2m log2(1/u) > wp; at th = pi, u = 0 leaves no tail.
    d = pi_w if near_pi else pi_w << 1
    u = (tt << wp) // d
    log_u = log2(u) - wp if u else 0
    m_max = int(wp / (-2 * log_u)) + 2 if u else 0
    zeta2, shift = _EVEN_ZETA.read(max(m_max, hi // 2), wz)
    # c holds the tail at top bits, its one sum for a single order, its c_m
    # for a batch.  The extra bits keep the floors of either path, less than
    # 9 (m_max + 1) units of 2^-top, below one unit of 2^-wp.
    extra = (9 * m_max + 9).bit_length()
    top = wp + extra
    c = []
    if m_max and lo == hi:
        # One order: Horner in y = u^2 from m = m_max down, acc_m = a_m + y acc_{m+1}
        # with a_m = 2 zeta(2m) / P(m) (or 2 lambda(2m) / P(m)) and
        # P(m) = (2m)(2m+1)...(2m+lo-1), kept to the top - floor(m log2(1/y))
        # bits that y^m leaves significant.
        log_y = -2 * log_u
        y = u * u >> 2 * wp - top
        den = prod(range(2 * m_max, 2 * m_max + lo))
        acc = bits = 0
        for m in range(m_max, 0, -1):
            p = top - int(m * log_y)
            if p > 0:
                sh = shift + wz - p
                a = zeta2[m] >> sh if sh >= 0 else zeta2[m] << -sh
                if near_pi:
                    a -= a >> 2 * m
                acc = a // den + ((y >> (top - p)) * acc >> bits)
                bits = p
            den = den * ((2 * m - 2) * (2 * m - 1)) // ((2 * m + lo - 2) * (2 * m + lo - 1))
        c = [y * acc >> bits]
    elif m_max:
        # Batch: c_m = 2 zeta(2m) u^{2m} (2m-1)! / (2m+lo-1)! (or 2 lambda(2m)),
        # from a running term t_m = u^{2m} (2m-1)! / (2m+lo-1)!, with y at wz bits.
        y = u * u >> 2 * wp - wz
        term = (u * u >> 2 * wp - top) // factorial(lo + 1)
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
    # k from tt, and pk[k] = t^k / k! 2^wp by one division of it.
    # The first read of the odd table fills zeta(3) .. zeta(hi) in one
    # Borwein pass; about pi, -eta(s) = (2^(1-s) - 1) zeta(s).
    tp, pk, fact = [1 << wp], [1 << wp], 1
    for k in range(1, hi + 1):
        fact *= k
        tp.append(tp[-1] * tt >> wp)
        pk.append(tp[-1] // fact)
    _ODD_ZETA.read((hi - 1) // 2, wz)
    zetas = [_table_zeta(s, wz, wp) for s in range(2, hi + 1)]
    head = [0, 0] + ([(v >> s - 1) - v for s, v in enumerate(zetas, 2)] if near_pi else zetas)
    if near_pi:
        ln2 = ln2_fixed(wp + 2) >> 2
    else:
        with mp.workprec(wz + 8):
            log_t = _fixed(ln(mpf((tt, -wp))), wp)
        ln_size = (abs(log_t) >> wp) + 2
        harmonic = sum(Fraction(1, m) for m in range(1, lo - 1))
    # Error of the zeta and eta reads, 4 units of 2^-wz, times sum t^k / k!
    # over the even k (real part) and the odd k (imaginary part).
    zeta_err = [4 * ((sum(pk[q::2]) >> wz) + 1) for q in (0, 1)]

    for n in range(lo, hi + 1):
        if n > lo:
            c = [cm // (2 * m + n - 1) for m, cm in enumerate(c, 1)]
        # quarter[q] collects the real coefficients of i^q at 2wp bits.
        terms = [head[n - k] * pk[k] for k in range(n - 1)]
        quarter = [sum(terms[q::4]) for q in range(4)]
        quarter[(n - 1) % 4] += tp[n - 1] * (sum(c) >> extra)
        if near_pi:
            # -eta(1) = -ln 2 at k = n-1 and -eta(0) = -1/2 at k = n.
            quarter[(n - 1) % 4] -= pk[n - 1] * ln2
            quarter[n % 4] -= pk[n] << wp - 1
            h_size, ln_err = 1, 0
        else:
            harmonic += Fraction(1, n - 1)
            h = (harmonic.numerator << wp) // harmonic.denominator - log_t
            quarter[(n - 1) % 4] += pk[n - 1] * h
            quarter[n % 4] += pk[n - 1] * (pi_w >> 1) - (pk[n] << wp - 1)
            h_size = (abs(h) >> wp) + 1
            ln_err = ((pk[n - 1] >> wz) + 1) * ln_size
        # The bound in units of 2^-wp: the head's terms, the terms k = n-1
        # and n, the tail's floors times t^{n-1}, and its errors relative to
        # 2^-wz times t^{n-1} / (n+1)!.
        err = 18 * n + 10 * h_size + ln_err + 40 + 5 * ((tp[n - 1] >> wp) + 2)
        err += 10 * ((tp[n - 1] >> wz) // factorial(n + 1) + 1)
        re = _correctly_rounded(quarter[0] - quarter[2], err + zeta_err[0] << wp, -2 * wp)
        im = quarter[1] - quarter[3]
        im = _correctly_rounded(im, err + zeta_err[1] << wp, -2 * wp) if tt else mpf(0)
        if re is None or im is None:
            return None
        out.append(mpc(re, flip * im))
    return out


def polylog_orders(lo: int, hi: int, theta, digits: int = DEFAULT_DIGITS) -> list:
    """[Li_lo(e^{i theta}), ..., Li_hi(e^{i theta})] in one pass, for integer
    1 <= lo <= hi <= ORDER_MAX and theta in (0, 2pi).

    Order 1 is the closed form -ln(2 sin(theta/2)) + i (pi - theta)/2, its
    real part not certified near theta = pi/3, where it vanishes.  For
    n >= 2, arguments above pi are folded to 2pi - theta and conjugated
    back, exactly, keeping x = theta / 2pi at most one half.  Below 2pi/3 the series
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

    Each part of every order, but the real part of Li_1, is correctly
    rounded to the working precision: a batch and a single order give the
    same bits.  Each order carries an error bound, and a call whose bound
    leaves a part's rounding undecided is recomputed with a wider guard
    (Ziv's test; module docstring).

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
        if not (0 < th < 2 * mp.pi):
            raise ThetaOutOfRange(f"theta must lie strictly inside (0, 2pi), got {th}")
        guard = ZIV_GUARD
        while (out := _series_orders(lo, hi, th, guard)) is None:
            if guard > 4 * mp.prec:
                raise NoConvergence(f"Li_{lo}..Li_{hi} at theta = {th} did not round at this precision")
            guard *= 2
        return out


def polylog_circle(n: int, theta, digits: int = DEFAULT_DIGITS) -> mpc:
    """Li_n(e^{i theta}) for integer 1 <= n <= ORDER_MAX and theta in (0, 2pi):
    the single order n of polylog_orders, with the same bits.  n = 1 is the
    principal branch of -ln(1 - e^{i theta}), its real part not certified
    near theta = pi/3."""
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
