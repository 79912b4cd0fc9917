"""Circle-bundle torsion constants over cyclotomic rings and related tables.

For a prime r >= 3 and the ring Z[xi]/(1 + xi + ... + xi^{r-1}), the
holonomy of the flat line bundle at the place sigma is sigma(xi) = e^{i
theta_sigma}, a root of unity taken in closed form; the fiberwise analytic
torsion forms reduce to explicit polylogarithm values at these roots of
unity.  This module packages those coefficients, the u_j constants, the
psi-scaling regulator identity, the degree-zero Cheeger-Mueller cross-check
against the combinatorial torsion of 0 -> C --(1-sigma(xi))--> C -> 0, the
four-periodic dimension table, the X-space dimensions, conversion between
the competing normalizations of the Kamber-Tondeur forms, and the Hatcher
constants a_k kappa_k zeta(2k+1).

The coefficients, u_j, the regulator identity and the Cheeger-Mueller check
read the same values Li_n(sigma(xi)); a CyclotomicSetup keeps those whose
bits do not depend on the call that made them, so each is evaluated once per
setup.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from mpmath import mp, mpc, mpf

from . import rtorsion
from .errors import TrivialHolonomyAtJZero, ValidationError
from .numfield import GUARD, NumberField, Record, build_field
from .polylog import (
    BERNOULLI_MAX,
    _check_j,
    bernoulli,
    polylog_circle,
    polylog_orders,
    zeta_int,
)

# hatcher_constant needs B_{2k}, so k is bounded by the Bernoulli index bound.
HATCHER_K_MAX = BERNOULLI_MAX // 2

# Largest i of the Borel dimension table.  The table is four-periodic from
# i = 2; borel-dims --imax 10000 prints 220 kB in 0.17 s at any precision,
# and the time and output grow linearly beyond it.
BOREL_INDEX_MAX = 10_000


def _is_prime(r: int) -> bool:
    if r < 2:
        return False
    d = 2
    while d * d <= r:
        if r % d == 0:
            return False
        d += 1
    return True


class CyclotomicSetup(Record):
    """The cyclotomic ring of prime order r with embedded holonomies.

    thetas[k] is the argument of the k-th place representative of xi, the
    closed form 2 pi ((r-1)/2 - k) / r; since representatives carry positive
    imaginary part, the arguments land in (0, pi).

    _memo, a fresh dict per object outside the constructor, repr and
    equality, maps (k, n) to Li_n at the k-th place with the bits of
    polylog_circle(n, thetas[k], digits), so a session that reads several
    invariants of one setup evaluates each value once: at most ORDER_MAX
    values per place.  Li_1 of a batched polylog_orders pass is that same
    closed form and is kept.  Its orders >= 2 are not, because their guard
    bits depend on the highest order of the pass, and a value read back
    would then depend on which call ran first.
    """

    _fields = ("r", "field", "thetas")
    __slots__ = _fields + ("_memo",)


def make_cyclotomic_setup(r: int, digits: int = 50) -> CyclotomicSetup:
    """The ring of prime order r >= 3 with its places and holonomy angles.

    The field is build_field((1,) * r, digits), so r - 1 is bounded by
    numfield.DEGREE_MAX and the embeddings are the closed-form roots of unity
    e^{2 pi i k/r}; the place representatives are k = 1..(r-1)/2, ordered by
    ascending real part, so thetas run from 2 pi (r-1)/(2r) down to 2 pi/r.
    The angles are these closed forms, not arguments taken of the embeddings.
    """
    r = int(r)
    if r < 3 or not _is_prime(r):
        raise ValidationError("the cyclotomic order must be a prime >= 3")
    field = build_field((1,) * r, digits)
    with mp.workdps(digits + GUARD):
        turn = 2 * mp.pi / r
        thetas = tuple(k * turn for k in range((r - 1) // 2, 0, -1))
    return CyclotomicSetup(r=r, field=field, thetas=thetas)


def _prefactor(j: int):
    """(2j+1)! / ((2 pi)^j 2^(2j) (j!)^2) at the current working precision."""
    num = mpf(factorial(2 * j + 1))
    den = (2 * mp.pi) ** j * mpf(2) ** (2 * j) * mpf(factorial(j)) ** 2
    return num / den


def _li(setup: CyclotomicSetup, k: int, n: int):
    """polylog_circle(n, thetas[k]) at the setup's digits, evaluated once per setup."""
    key = (k, n)
    if key not in setup._memo:
        setup._memo[key] = polylog_circle(n, setup.thetas[k], setup.field.digits)
    return setup._memo[key]


def torsion_form_coeffs(setup: CyclotomicSetup, jmax: int) -> dict:
    """T_{sigma, j} for all places and 0 <= j <= jmax.

    Even j uses (-1)^(j/2) Re Li_{j+1}, odd j uses (-1)^((j-1)/2) Im Li_{j+1},
    both times the prefactor; at j = 0 this reduces to -ln|1 - sigma(xi)|.
    Li_1 .. Li_{jmax+1} come from one polylog_orders pass per place.  Li_1
    is kept in the setup, and once it is there the pass starts at Li_2.
    0 <= jmax < ORDER_MAX.
    """
    _check_j(jmax, 0, "jmax must lie")
    digits = setup.field.digits
    memo = setup._memo
    out = {}
    with mp.workdps(digits + GUARD):
        prefs = [_prefactor(j) for j in range(jmax + 1)]
        for k, th in enumerate(setup.thetas):
            if (k, 1) in memo:
                lis = [memo[(k, 1)]] + (polylog_orders(2, jmax + 1, th, digits) if jmax else [])
            else:
                lis = polylog_orders(1, jmax + 1, th, digits)
                memo[(k, 1)] = lis[0]
            for j, (pref, li) in enumerate(zip(prefs, lis)):
                if j % 2 == 0:
                    val = (-1) ** (j // 2) * pref * li.real
                else:
                    val = (-1) ** ((j - 1) // 2) * pref * li.imag
                out[(k, j)] = +val
    return out


def trivial_holonomy_coeff(j: int, digits: int = 50):
    """The torsion-form coefficient at holonomy 1.

    Odd j vanishes (Im Li_{j+1}(1) = 0); even j >= 2 is (-1)^(j/2) times the
    prefactor times zeta(j+1).  j = 0 would need the divergent zeta(1), which
    the formal sum over even j includes; the request is refused.  Like every
    degree index, j is bounded, 1 <= j < ORDER_MAX: the cost of the
    prefactor's (2j+1)! grows without bound.
    """
    if j == 0:
        raise TrivialHolonomyAtJZero("Li_1(1) diverges; no degree-zero coefficient")
    _check_j(j, 1, "j must lie")
    with mp.workdps(digits + GUARD):
        if j % 2 == 1:
            return mpf(0)
        return +((-1) ** (j // 2) * _prefactor(j) * zeta_int(j + 1, digits))


def _u_value(j: int, pref, li, zv):
    """u_j at one place from li = Li_{j+1}(sigma(xi)) and zv = zeta(j+1)."""
    if j % 2 == 1:
        return +(pref * li.imag)
    return +(pref * (li.real - zv))


def u_coeff(setup: CyclotomicSetup, j: int) -> dict:
    """The constants u_j(sigma): prefactor times Im Li_{j+1}(sigma(xi)) for
    odd j, prefactor times (Re Li_{j+1}(sigma(xi)) - zeta(j+1)) for even j,
    for 1 <= j < ORDER_MAX.  Li_{j+1} is the single-order value, evaluated
    once per place and setup and shared with regulator_identity_check."""
    _check_j(j, 1, "u_j is defined for j")
    digits = setup.field.digits
    out = {}
    with mp.workdps(digits + GUARD):
        pref = _prefactor(j)
        zv = zeta_int(j + 1, digits) if j % 2 == 0 else None
        for k in range(len(setup.thetas)):
            out[k] = _u_value(j, pref, _li(setup, k, j + 1), zv)
    return out


def regulator_identity_check(setup: CyclotomicSetup, j: int) -> dict:
    """Both sides of the psi-scaling identity per place: (lhs, rhs, ratio).

    lhs projects Li_{j+1}(sigma(xi)) - zeta(j+1) onto the R(j)-line (real
    part for even j, i times imaginary part for odd j), scales by
    (-1)^j (2j+1)!/j!, and divides by (2pi i)^j; rhs is
    (-1)^j j! 2^(2j) u_j(sigma).  The ratio is the sign left over after the
    prefactors cancel.  Both sides come from one evaluation of Li_{j+1} per
    place, the single-order value shared with u_coeff through the setup;
    1 <= j < ORDER_MAX.
    """
    _check_j(j, 1, "the identity is checked for j")
    digits = setup.field.digits
    out = {}
    with mp.workdps(digits + GUARD):
        pref = _prefactor(j)
        amp = mpf(factorial(2 * j + 1)) / factorial(j)
        zv = zeta_int(j + 1, digits)
        for k in range(len(setup.thetas)):
            li = _li(setup, k, j + 1)
            z = li - zv
            if j % 2 == 0:
                lhs = (-1) ** (j // 2) * amp * z.real / (2 * mp.pi) ** j
            else:
                lhs = -((-1) ** ((j - 1) // 2)) * amp * z.imag / (2 * mp.pi) ** j
            rhs = (-1) ** j * factorial(j) * mpf(2) ** (2 * j) * _u_value(j, pref, li, zv)
            ratio = lhs / rhs if rhs != 0 else mp.nan
            out[k] = (+lhs, +rhs, +ratio)
    return out


def cheeger_muller_check(setup: CyclotomicSetup) -> dict:
    """|T_{sigma,0}| against ln tau of 0 -> C --(1 - sigma(xi))--> C -> 0.

    The combinatorial torsion comes from the independent metrized-complex
    route; returns (|T_{sigma,0}|, ln tau_sigma, absolute residual) per place.
    T_{sigma,0} reads Li_1 from the setup when an earlier torsion_form_coeffs
    call left it there, and then takes no sine or logarithm of its own.
    """
    digits = setup.field.digits
    t0 = torsion_form_coeffs(setup, 0)
    out = {}
    with mp.workdps(digits + GUARD):
        for k in range(setup.field.n_places):
            z = 1 - setup.field.sigma_star[k]
            cplx = rtorsion.metrized_complex_at_place(
                digits, [1, 1], [[[z]]], [[[1]], [[1]]], [(), ()], [(), ()]
            )
            lntau = mp.log(rtorsion.reidemeister(cplx))
            resid = abs(abs(t0[(k, 0)]) - abs(lntau))
            out[k] = (abs(t0[(k, 0)]), +lntau, +resid)
    return out


def borel_dims(field: NumberField, imax: int) -> dict:
    """Dimensions of A^(-i) for 0 <= i <= imax: 1, r_R + r_C - 1, then the
    four-periodic pattern 0, r_C, 0, r_R + r_C for i = 2, 3, 4, 5 mod 4,
    for 0 <= imax <= BOREL_INDEX_MAX."""
    if not 0 <= imax <= BOREL_INDEX_MAX:
        raise ValidationError(f"imax must lie in [0, {BOREL_INDEX_MAX}]")
    rr, rc = field.r_real, field.r_complex
    table = {}
    for i in range(imax + 1):
        if i == 0:
            table[i] = 1
        elif i == 1:
            table[i] = rr + rc - 1
        else:
            table[i] = {2: 0, 3: rc, 0: 0, 1: rr + rc}[i % 4]
    return table


def x_space_dim(field: NumberField, j: int) -> int:
    """Dimension of the weight-j regulator target X_{2j-1}.

    Complex places always contribute; a real place contributes exactly when
    conjugation fixes the R(j-1)-line, i.e. for odd j.
    """
    if j < 1:
        raise ValidationError("the X spaces are indexed by j >= 1")
    return field.r_complex + (field.r_real if j % 2 == 1 else 0)


_NORMALIZATION_NAMES = ("bl", "chern", "igusa", "borel")


def normalization_factors(j: int, digits: int = 50):
    """The degree-(2j+1) normalization constants relative to the standard one.

    Returns (N_Chern, N_Igusa, (N_Borel signed magnitude, i-power)): the
    Borel factor is (-1)^j (2j+1)!/((2 pi i)^j j!), reported as the real
    number (-1)^j (2j+1)!/((2 pi)^j j!) together with the power of i (mod 4)
    multiplying it; 0 <= j < ORDER_MAX.
    """
    _check_j(j, 0, "j must lie")
    with mp.workdps(digits + GUARD):
        chern = (
            (-1) ** j * 2 * mp.pi * mpf(factorial(2 * j + 1))
            / (mpf(2) ** (2 * j + 1) * factorial(j))
        )
        igusa = mpf(factorial(2 * j + 1)) / ((2 * mp.pi) ** j * mpf(2) ** (2 * j))
        borel_signed = (
            (-1) ** j * mpf(factorial(2 * j + 1))
            / ((2 * mp.pi) ** j * factorial(j))
        )
        return +chern, +igusa, (+borel_signed, (-j) % 4)


def _factor_complex(name: str, j: int):
    if name == "bl":
        return mpc(1)
    chern, igusa, (bmag, bpow) = normalization_factors(j, mp.dps)
    if name == "chern":
        return mpc(chern)
    if name == "igusa":
        return mpc(igusa)
    if name == "borel":
        return mpc(bmag) * mpc(0, 1) ** bpow
    raise ValidationError(f"unknown normalization {name!r}")


def convert(values, frm: str, to: str, j: int, digits: int = 50):
    """Re-express Kamber-Tondeur values between normalizations.

    A value v in normalization X satisfies v = v_standard / N_X, so the
    conversion multiplies by N_frm and divides by N_to.  Accepts a scalar or
    a sequence; Borel conversions may be complex.  0 <= j < ORDER_MAX.
    """
    _check_j(j, 0, "j must lie")
    if frm not in _NORMALIZATION_NAMES or to not in _NORMALIZATION_NAMES:
        raise ValidationError(f"normalizations are named {_NORMALIZATION_NAMES}")
    single = not isinstance(values, (list, tuple))
    vals = [values] if single else list(values)
    with mp.workdps(digits + GUARD):
        fac = _factor_complex(frm, j) / _factor_complex(to, j)
        out = []
        for v in vals:
            w = mp.mpmathify(v) * fac
            if mp.im(w) == 0:
                w = mp.re(w)
            out.append(+w)
    return out[0] if single else out


def hatcher_constant(k: int, digits: int = 50):
    """(a_k, kappa_k, a_k kappa_k zeta(2k+1)) for 1 <= k <= HATCHER_K_MAX.

    a_k is the denominator of B_{2k}/(4k) in lowest terms (the order of the
    image of the J-homomorphism in degree 4k-1); kappa_k is 1 for odd k and
    1/2 for even k.
    """
    if not 1 <= k <= HATCHER_K_MAX:
        raise ValidationError(f"k must lie in [1, {HATCHER_K_MAX}]")
    a_k = Fraction(bernoulli(2 * k), 4 * k).denominator
    kappa = Fraction(1) if k % 2 == 1 else Fraction(1, 2)
    with mp.workdps(digits + GUARD):
        value = +(mpf(a_k) * kappa.numerator / kappa.denominator * zeta_int(2 * k + 1, digits))
    return a_k, kappa, value
