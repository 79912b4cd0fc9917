"""Reidemeister torsion of finite metrized cochain complexes.

tau is the positive real comparing the metric on the determinant line of a
complex with the metric induced on the determinant line of its cohomology
(with respect to chosen cohomology bases and metrics).

Every complex has a K.  A complex over R is decided in full when
build_complex_over_r builds it, in one pass over its data: each count and
shape is checked once and the size of each Gram at every place, every
exact fact is decided in K, a basis determinant that vanishes at any place
is refused, and every Gram at every place is factored, once, exactly
(flatmodel.gram_ldl).  A complex given by its numbers at one place
(metrized_complex_at_place) is read exactly, by numfield.to_exact, and
built over Q = Z[x]/(x) when every entry is real, over Q(i) = Z[x]/(x^2 + 1)
otherwise.  A place is its complex and the index of its place
representative, and nothing else: at_place checks the index, and every
number either route reads at a place comes from its complex.  The
Laplacian route embeds the differentials and representatives in
orthonormal coordinates itself (_orthonormal_rows), afresh on each call.
Two independent algorithms read the result:

  reidemeister         Laplacian route: the Ray-Singer product of
                       pseudo-determinants of the combinatorial Laplacians,
                       telescoped to one pivoted LDL^H of a Gram per
                       nonzero differential, corrected by the Gram
                       determinants of the harmonically projected
                       cohomology representatives against the chosen
                       cohomology Grams.  It computes no eigenvector: the
                       determinant lemma gives each correction.

  torsion_by_contraction
                       Basis-chase route: complete the image and
                       representative columns of each degree by the unit
                       vectors on pivot columns of its differential, and
                       alternate the determinants of these bases.  They are
                       exact: build_complex_over_r takes each delta_i in K
                       once per complex, and tau^2 is the alternating
                       product of |sigma(delta_i)|^2 det G_i / det H_i
                       (_exact_tau, read from the place's complex).  It
                       takes no logarithm.

The sign convention is frozen so that the acyclic complex 0 -> C --z--> C -> 0
with standard metrics has tau = 1/|z|; both routes reproduce it.  Every
result reads the exact basis-chase tau straight from the complex, with no
place built: exact_torsion reads it through _exact_tau, which embeds each
delta_i and reads the kept Gram determinants, for rtorsion_form, the
rtorsion command and circlebundle.cheeger_muller_check, and
verify_euler_identity, where the Gram determinants cancel, embeds the
delta_i alone.  The Laplacian route only verifies it, on the places
at_place builds.

Every per-place matrix is the list of its rows, and each entry of a
product is one mp.fdot of a row and a column (_product), the sum mpmath's
matrix product takes, rounded once.  The Hermitian A^H A and A A^H are
formed as the rows of their lower triangles, one mp.fdot per entry
(_gram): the values mpmath's matrix product gives there, with no conjugate
transpose copied and no upper triangle formed, in the one shape the factor
(_ldl) reads.  The orthonormal coordinates come from the exact
G = L D L^H of each Gram: U = D^(1/2) L^H, with one square root per
pivot, and a product by U^-1 is taken as a division on the right by U,
one back substitution per row (_divide_upper).

Rank decisions.  Every exact decision is numfield's, taken once, in K, by
build_complex_over_r: the rank and pivot columns of each differential at
each place (numfield.exact_pivots); the basis determinants delta_i
(numfield.exact_det), which vanish at no place of a complex that builds
(numfield.nonzero_places); and d after d = 0 and the cocycle conditions
(numfield.product_is_zero), so a d after d that vanishes only to rounding
is refused.  No rank is kept: build_complex_over_r matches each free rank
against the exact kernel dimension at every place, so the free ranks of a
complex are its exact kernel dimensions at each place.  The basis-chase
embeds each exact delta_i at the place, so it takes no singular value,
pivot or minor.  The Laplacian route stays numeric, so that the two routes
stay independent: with c = numfield.rank_cutoff (10^(-digits/2)) and G_i
the smaller of d_i^* d_i and d_i d_i^*, an eigenvalue of G_i counts as zero
when it is at most c^2 |G_i|_F, so a zero matrix has rank 0, and each is
judged on its own differential, so that differentials of very different
scale do not swallow each other's small values.  A value within a factor
10^3 of its cut, or a kernel dimension that differs from the exact one,
raises RankAmbiguous: more digits would help.  No eigenvalue is computed:
one LDL^H of G_i with diagonal pivoting decides the rule (_rank_and_det),
the trace of the Schur complement it leaves bounding the values counted as
zero and 1/|G11^-1|_F of its pivoted block the values kept, and a rank is
returned only where both bounds clear the band.  The determinant of a Gram is
prod D_k of its exact factor, a Fraction, and the Gram determinants a route
combines are multiplied exactly and rounded once.  The one Gram not given
is that of the harmonic projections in reidemeister: its determinant comes
from the lengths that classical Gram-Schmidt, run twice, leaves of the
representatives, and the pivots of one LDL^H (_ldl, the same factor) of
a square matrix, with no square root, which does not square their
conditioning.

Neither route takes a logarithm: each multiplies determinants and
pivots into one quotient (_alternating), the factors of exponent +1
over those of exponent -1, and ends in one square root.  Logarithms are
taken only where a form needs one, each by numfield.ln: exact_torsion
takes ln tau once per place, and verify_euler_identity puts each place's
|sigma(det T_i)|^2 of its torsion presentations and |sigma(delta_i)|^2
into one such quotient and takes one logarithm of it: one per place in
all.  That quotient, and every square root here, is numfield's quotient
and sqrt, each rounded once, and no int is divided by an mpf: on mpmath's
pure-Python backend an int over an mpf (mpf_rdiv_int) and mp.sqrt shed the
trailing zero bits of an exact result a byte at a time, and the exact
values of a complex (delta_i = 1, det' = 1 where a differential is zero,
the radicands of an identity Gram) are common.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from mpmath import mp, mpf

from .errors import RankAmbiguous, ValidationError
from .flatmodel import (
    FormElement,
    PointClass,
    RegulatorLattice,
    _cholesky_upper,
    _cycl_from_lndets,
    gram_ldl,
    make_form,
)
from .numfield import (
    GUARD,
    NumberField,
    Record,
    _abs2,
    _check_field,
    _integers,
    build_field,
    embed,
    exact_det,
    exact_pivots,
    ln,
    nonzero_places,
    product_is_zero,
    quotient,
    rank_cutoff,
    sqrt,
    to_exact,
)

_AMBIGUITY_FACTOR = 1000
# Largest number of degrees, and largest rank of each cochain module, of a
# complex over R.  A 12-degree complex of rank 12 in every degree costs
# 10 * 12^2 packed integer dot products for its d after d check.  Over
# Z[zeta_61] at 50 digits, with each d_i of rank 6 (12 x 12 blocks mixed by
# 30 or 60 random shears by +-1, +-x and 1 + x, so that 1156 or 1537 of the
# 1584 entries are nonzero), d after d took 0.05 / 0.08 s, the exact pivots
# of all 11 differentials 0.12 / 0.28 s and the whole build 0.18 / 0.34 s,
# on one core of a 2-core x86 machine with mpmath's pure-Python backend.
# Entry by entry through FieldElement products, d after d took 2.4 / 7.0 s.
COMPLEX_SIZE_MAX = 12


def _gram(a, adjoint_first):
    """The Hermitian Gram A^H A of a matrix A, given as its rows, when
    adjoint_first, else A A^H, as the rows of its lower triangle, diagonal
    included: the one shape _ldl reads.  Each entry is one
    mp.fdot(..., conjugate=True) over two columns (A^H A, read through zip)
    or two rows (A A^H), the rounding of mpmath's A.H * A and A * A.H, with
    no conjugate transpose copied and no upper triangle formed.
    """
    vecs = list(zip(*a)) if adjoint_first else a
    return [[mp.fdot(*((v, u) if adjoint_first else (u, v)), True) for v in vecs[: i + 1]]
            for i, u in enumerate(vecs)]


def _frobenius2(low):
    """|M|_F^2 of a Hermitian matrix M given as the rows of its lower
    triangle: the entries below the diagonal count twice."""
    off = mp.fsum((x for row in low for x in row[:-1]), absolute=True, squared=True)
    return 2 * off + mp.fsum((row[-1] for row in low), absolute=True, squared=True)


class MetrizedComplexAtPlace(Record):
    """A finite cochain complex at one place: a view of its complex.

    complex is the MetrizedComplexOverR the place belongs to and place the
    index of its place representative, and that is all the place keeps.
    Every fact of the place is read from complex: the digits of its field,
    its lengths, its free ranks (the exact kernel dimensions), its basis
    determinants and its Gram determinants, and, for the Laplacian route
    alone, the orthonormal coordinates _orthonormal_rows embeds from it.
    So no number that its complex did not produce reaches either route.
    at_place builds every place, metrized_complex_at_place's too.
    """

    __slots__ = _fields = ("complex", "place")


def metrized_complex_at_place(
    digits, lengths, diffs, cochain_grams, cohomology_grams, cohomology_maps
) -> MetrizedComplexAtPlace:
    """The place of a complex given by its numbers at one place.

    diffs[i] maps degree i to degree i+1 and has shape lengths[i+1] by
    lengths[i]; cohomology_maps[i] has one column per chosen cohomology
    class, each column a cocycle in degree i; cohomology_grams[i] is the
    chosen metric on those classes.  Each differential and representative
    entry is read exactly by numfield.to_exact, at digits + GUARD, as
    gram_ldl reads each Gram.  The complex is built over
    Q = Z[x]/(x) when every entry is real, and over Q(i) = Z[x]/(x^2 + 1)
    otherwise, each with one place, by build_complex_over_r, which decides
    everything there exactly and refuses what it refuses: a d after d or a
    cocycle condition that holds only to rounding, a count of classes that
    is not the kernel dimension, and representatives that do not complete
    the image.  It returns at_place's place 0 of that complex, so the
    place's complex is the one over Q or Q(i).
    """
    if len(cohomology_maps) != len(cohomology_grams):
        raise ValidationError("degree counts of the complex data disagree")
    with mp.workdps(digits + GUARD):
        dd = [[[to_exact(x) for x in row] for row in m] for m in diffs]
        kk = [[[to_exact(x) for x in row] for row in k] for k in cohomology_maps]
    gaussian = any(im for m in dd + kk for row in m for _, im in row)
    field = build_field((1, 0, 1) if gaussian else (0, 1), digits)

    def ring(rows):
        return [[field.element(z if gaussian else z[:1]) for z in row] for row in rows]

    specs = [
        CohomologySpec(len(h), ring(k), (h,) if len(h) else ())
        for k, h in zip(kk, cohomology_grams)
    ]
    grams = [[g] for g in cochain_grams]
    return at_place(build_complex_over_r(field, lengths, [ring(m) for m in dd], grams, specs), 0)


def _kernel_dims(lengths, ranks):
    """n_i - r_i - r_{i-1} per degree, for the ranks r_i of the differentials."""
    r = (0, *ranks, 0)
    return tuple(n - r[i] - r[i + 1] for i, n in enumerate(lengths))


def _orthonormalize(cols):
    """(Q, |prod R_jj|) of K = QR for the columns of K, by classical
    Gram-Schmidt run twice (CGS2: Giraud, Langou, Rozloznik and van den
    Eshof, Numer. Math. 101, 2005): each column loses its components along
    the Q columns before it, twice, and R_jj is the length left, so Q is
    orthonormal to working precision however close the columns lie.
    Returns (None, 0) at the first column with nothing left, such as a zero
    one.  Q is given as its rows, with one entry per column of K.
    """
    q = []
    r = mpf(1)
    for v in cols:
        for _ in range(2 if q else 0):
            c = [mp.fdot(v, u, True) for u in q]
            v = [x - mp.fdot([u[t] for u in q], c) for t, x in enumerate(v)]
        length = sqrt(mp.fsum(v, absolute=True, squared=True))
        if not length:
            return None, 0
        r *= length
        q.append([x / length for x in v])
    return [list(row) for row in zip(*q)], r


def _ldl(low, floor2):
    """The LDL^H of a Hermitian matrix M, given as the rows of its lower
    triangle, with diagonal pivoting: (pivots, order, l).

    Step k takes the largest diagonal entry of the Schur complement S left
    by the steps before it as the pivot d_k, at index order[k] of M, while
    trace S > 0 and (trace S)^2 > floor2; then the steps stop.  l[q] is the
    row of the n by r unit trapezoidal factor L at index q: for each k,
    a_qk = l_qk d_k = m_q,order[k] - sum_j a_qj conj(l_order[k],j), over the
    steps j < k, and the entry 1 closes the row of order[k].  Each diagonal
    entry of S is Re(m_qq - sum_j a_qj conj(l_qj)), one mp.fdot, so no
    square root is taken, and no threshold relative to |M| applies.  With
    floor2 = 0 every step is taken exactly when M is positive definite, in
    exact arithmetic: trace S <= 0 leaves an S, and so an M, with an
    eigenvalue <= 0, and every pivot taken is > 0.
    """
    left, a, l = list(range(len(low))), [[] for _ in low], [[] for _ in low]
    pivots, order = [], []
    while left:
        diag = [mp.re(low[q][q] - mp.fdot(a[q], l[q], True)) for q in left]
        t = mp.fsum(diag)
        if t <= 0 or t * t <= floor2:
            break
        d = max(diag)
        p = left.pop(diag.index(d))
        for q in left:
            x = (low[q][p] if p < q else mp.conj(low[p][q])) - mp.fdot(a[q], l[p], True)
            a[q].append(x)
            l[q].append(x / d)
        l[p].append(1)
        pivots.append(d)
        order.append(p)
    return pivots, order, l


def _inverse_frobenius2(pivots, order, l):
    """|G11^-1|_F^2 for the leading r by r block G11 = L11 D L11^H, in pivot
    order, of an _ldl factor: with M = L11^-1, by forward substitution, and
    P = M M^H, G11^-1 = M^H D^-1 M has |G11^-1|_F^2 = sum_jk |P_jk|^2 / (d_j d_k).
    """
    m = []
    for j, p in enumerate(order):
        m.append([-mp.fdot(l[p][k:j], [row[k] for row in m[k:]]) for k in range(j)] + [1])
    w = [quotient(1, d) for d in pivots]
    return mp.fsum((2 - (j == k)) * w[j] * w[k] * _abs2(mp.fdot(m[j], m[k], True))
                   for j in range(len(m)) for k in range(j + 1))


def _rank_and_det(g, cut4, name):
    """(r, det'(G)) of a Hermitian positive semidefinite Gram G, given as
    the rows of its lower triangle, by one _ldl, for the eigenvalue rule:
    with cut = c^2 |G|_F and cut4 = c^4, an eigenvalue at most cut counts as
    zero, and one within a factor 10^3 of cut raises RankAmbiguous, naming
    the decision by name and giving the smallest pivot, the one nearest the
    cut.

    The factor stops once trace S <= cut/10^3, after r steps.  Kernel side:
    each of the n - r smallest eigenvalues of G is at most the matching one
    of S (take x = [-G11^-1 G12 y; y] in Courant-Fischer), and so at most
    trace S: the rule counts them all, none in its band.  Kept side: each of
    the r largest is at least lambda_min(G11) >= 1/|G11^-1|_F (Cauchy
    interlacing), for the leading r by r block G11 of the factor in pivot
    order (_inverse_frobenius2).  That bound is at most the smallest pivot
    and equals it when r = 1, so a smallest pivot below 10^3 cut refutes it
    at once and r = 1 needs no more; r is returned only when the bound is
    at least 10^3 cut, so the rule keeps them all, none in its band.  So a rank returned here is the
    one the eigenvalue rule gives, and RankAmbiguous is raised wherever that
    rule raises it, and where the bounds are too loose to decide (as on a
    Kahan matrix, whose pivots lie far above its smallest eigenvalue).  The
    nonzero eigenvalues of the rank-r part L D L^H multiply to
    det'(G) = prod d_k det(L^H L), with det(L^H L) = 1 when r = n and one
    more _ldl when r < n.  Every bound is compared squared, so no square
    root is taken; a zero G has r = 0 and det' = 1.
    """
    band2 = cut4 * _frobenius2(g) * _AMBIGUITY_FACTOR**2
    pivots, order, l = _ldl(g, band2 / _AMBIGUITY_FACTOR**4)
    r = len(pivots)
    smallest = min(pivots, default=0)
    if smallest**2 < band2 or r > 1 and _inverse_frobenius2(pivots, order, l) * band2 > 1:
        raise RankAmbiguous(
            f"{name}: an eigenvalue may sit at the cutoff (smallest pivot {mp.nstr(smallest, 8)})"
        )
    det = mp.fprod(pivots)
    if r < len(g):
        # det(L^H L), the L^H L of the padded rows of L, by one more _ldl
        cols = list(zip(*(row + [0] * (r - len(row)) for row in l)))
        ltl = [[mp.fdot(cols[k], c, True) for k in range(j + 1)] for j, c in enumerate(cols)]
        det *= mp.fprod(_ldl(ltl, 0)[0])
    return r, det


def _lemma_det(terms, q):
    """(det(Lap + c^2 Q Q^*), c^2) for the Laplacian Lap, the sum of the
    Hermitian Grams in terms, the rows of Q, whose columns are orthonormal,
    and c^2 = |Lap|_F (1 when Lap = 0).  Q Q^* is a _gram product, every
    matrix is the rows of its lower triangle, and each entry is summed
    once; the determinant is the product of _ldl's pivots, and 0 where the
    factor stops short of n steps: a matrix that is not positive definite.
    """
    lap = [[sum(t[a][b] for t in terms) for b in range(a + 1)] for a in range(len(q))]
    c2 = sqrt(_frobenius2(lap)) or mpf(1)
    pivots = _ldl([[x + c2 * y for x, y in zip(u, v)] for u, v in zip(lap, _gram(q, False))], 0)[0]
    return (mp.fprod(pivots) if len(pivots) == len(q) else 0), c2


def _product(a, b):
    """The rows of A B for matrices given as their rows: each entry one
    mp.fdot of a row of A and a column of B, read through zip, which is the
    product mpmath's matrix multiply takes."""
    cols = list(zip(*b))
    return [[mp.fdot(row, col) for col in cols] for row in a]


def _divide_upper(a, up):
    """A U^-1 for an upper-triangular U with a real diagonal, each matrix
    given as its rows: x U = a, row by row, by back substitution in place,
    x_j = (a_j - sum_(k<j) x_k U_kj) / U_jj, the sum one mp.fdot (which
    reads x through zip, up to its entry j) and U_jj its real part."""
    cols = [[-u[j] for u in up[:j]] + [mp.one] for j in range(len(up))]
    for x in a:
        for j, col in enumerate(cols):
            x[j] = mp.fdot(x, col) / up[j][j].real
    return a


def _orthonormal_rows(cplx: MetrizedComplexAtPlace):
    """(diffs, reps): the differentials and representatives of a place in
    orthonormal coordinates, for reidemeister alone, each a matrix given as
    its rows, at the field's digits + GUARD.

    With the cochain Grams G_i = U_i^* U_i, U_i the upper Cholesky factor
    that flatmodel._cholesky_upper reads off the exact factor the complex
    keeps, diffs[i] = U_{i+1} d_i U_i^-1, the product U_{i+1} d_i divided
    on the right by U_i (_divide_upper), and reps[i] = U_i K_i for the
    representative columns K_i, each ring element embedded once.  diffs[i]
    has lengths[i+1] rows of lengths[i] entries and reps[i] lengths[i] rows
    of free_rank entries, so a row is empty where a degree or a cohomology
    is zero.  Nothing is kept: each call embeds and multiplies afresh.
    """
    whole, place = cplx.complex, cplx.place
    field = whole.field

    def rows(m):
        return [[embed(field, x, place) for x in row] for row in m]

    with mp.workdps(field.digits + GUARD):
        ups = [_cholesky_upper(factor) for _, factor in whole.factors[place][0]]
        diffs = [
            _divide_upper(_product(ups[i + 1], rows(d)), ups[i])
            for i, d in enumerate(whole.diffs)
        ]
        # U_i K_i has a row of no entries per row of U_i where K_i has no column
        reps = [_product(up, rows(s.free_reps)) for up, s in zip(ups, whole.cohomology)]
        return diffs, reps


def reidemeister(cplx: MetrizedComplexAtPlace):
    """tau by the Laplacian formula with the cohomology base-change correction.

    The Ray-Singer product prod_i det'(Lap_i)^(i (-1)^i) (Ray and Singer,
    Adv. Math. 7, 1971) telescopes: d after d = 0 makes the nonzero
    spectrum of Lap_i the union of those of d_i^* d_i and
    d_{i-1}^* d_{i-1}, so with G_i the smaller of d_i^* d_i and d_i d_i^*,
    which share their nonzero spectrum,

      tau^2 = prod_i det'(G_i)^((-1)^(i+1)) * prod_i [ det W_i / det H_i ]^((-1)^i)

    where W_i is the Gram of the harmonic projections of the representative
    columns K_i and H_i the chosen cohomology Gram.  Each nonzero d_i takes
    one LDL^H of G_i with diagonal pivoting (_rank_and_det), which decides
    the eigenvalue rule with no eigenvalue computed: the eigenvalues at
    most rank_cutoff^2 |G_i|_F count toward its kernel, which gives the
    rank r_i, and det'(G_i) multiplies the others, prod d_k det(L^H L) from
    the factor.  The kernel dimension in degree i is n_i - r_i - r_{i-1}.

    det W_i needs no eigenvector.  With K_i = Q R, Q orthonormal, and
    c^2 = |Lap_i|_F (1 when Lap_i = 0), the determinant lemma in the
    eigenbasis of Lap_i gives

      det W_i = |prod R_jj|^2 det(Lap_i + c^2 Q Q^*) / (c^(2 h_i) det'(Lap_i))

    with det'(Lap_i) = det'(G_i) det'(G_{i-1}), once the kernel has as many
    dimensions as the complex lists classes.  Q and R come from
    _orthonormalize, at 10 more digits, and the determinant on the right
    from the pivots of an LDL^H (_ldl), with no square root.  Taking
    the lemma on Q, not on K_i, keeps the conditioning of K_i out of the
    determinant, where it would enter squared.  Each Gram d_i^* d_i or
    d_i d_i^* is one _gram product, its lower triangle formed once per call
    at the precision of the orthonormal entries: the rank of d_i and the
    Laplacians on either side of it read the same one.  The Laplacian is
    built only in the degrees that list cohomology, and Lap_i + c^2 Q Q^*
    in one pass over the entries on and below the diagonal (_lemma_det),
    with Q Q^* a _gram product too.  A differential with no nonzero entry is
    a zero one, read exactly.  The product, times the exact alternating
    product of the det H_i rounded once, and one square root give tau; no
    logarithm is taken.  tau is computed at the complex's digits + GUARD,
    the corrections and the product at GUARD more.

    The route stays numeric, so that it checks the basis-chase
    independently.  Its matrices are the orthonormal rows _orthonormal_rows
    embeds from the place's complex, and besides them only the digits, the
    lengths, the free ranks and the det H_i are read from it.  The exact
    kernel dimension in degree i is the free rank build_complex_over_r
    matched against K; a kernel dimension that differs from it raises
    RankAmbiguous: the cutoff misjudged an eigenvalue, and more digits
    would help.  So does a rank that the factor cannot certify, and
    representatives whose harmonic projections leave det W_i = 0: a
    complex that builds has delta_i != 0 exactly, so its representatives
    complete the image to the kernel, and only rounding can lose them.
    """
    whole = cplx.complex
    digits = whole.field.digits
    n = whole.lengths
    dt, reps = _orthonormal_rows(cplx)
    grams = {}

    def gram(i, adjoint_first):
        # d_i^* d_i or d_i d_i^*, formed once per call
        if (i, adjoint_first) not in grams:
            grams[i, adjoint_first] = _gram(dt[i], adjoint_first)
        return grams[i, adjoint_first]

    with mp.workdps(digits + GUARD):
        cut4 = rank_cutoff(digits) ** 4
        # (r_i, det'(G_i)) of each differential, a zero one read exactly
        steps = [
            _rank_and_det(gram(i, n[i] <= n[i + 1]), cut4, f"d{i} out of degree {i}")
            if any(x for row in d for x in row) else (0, mpf(1))
            for i, d in enumerate(dt)
        ]
        ranks = [r for r, _ in steps]
        # det'(G_i), with det'(G_{-1}) = det'(G_{nd-1}) = 1 around them
        dets = [mpf(1), *(det for _, det in steps), mpf(1)]
        dims = _kernel_dims(whole.lengths, ranks)
        # tau^2 = prod_i (num_i / den_i)^((-1)^i), one quotient, over the
        # chosen cohomology Grams' prod_i det H_i^((-1)^i), exact until then:
        # a degree with no classes has det H_i = 1
        nums, dens = [], []
        # the factors combine at GUARD more digits, so that tau rounds once
        with mp.extradps(GUARD):
            for i, (h, spec) in enumerate(zip(dims, whole.cohomology)):
                # the free rank is the exact kernel dimension
                if h != spec.free_rank:
                    raise RankAmbiguous(
                        f"Laplacian in degree {i}: {h} eigenvalues fall below the cutoff "
                        f"but the exact kernel has dimension {spec.free_rank}"
                    )
                # det'(G_i), at dets[i + 1], enters with the opposite exponent
                num, den = 1, dets[i + 1]
                if h:
                    with mp.extradps(10):
                        q, r = _orthonormalize(zip(*reps[i]))
                    # Lap_i from the Grams of the nonzero differentials beside it
                    terms = [gram(j, j == i) for j in (i - 1, i) if 0 <= j < len(dt) and ranks[j]]
                    w, c2 = (0, 1) if q is None else _lemma_det(terms, q)
                    if not w:
                        raise RankAmbiguous(
                            f"degree-{i} representatives do not project onto a cohomology basis"
                        )
                    num, den = r**2 * w, c2**h * dets[i] * den**2
                nums.append(num)
                dens.append(den)
            tau2 = quotient(_alternating(nums, dens), _alternating(whole.factors[cplx.place][1]))
        return sqrt(tau2)


def torsion_by_contraction(cplx: MetrizedComplexAtPlace):
    """tau by the basis-chase: alternate determinants of per-degree bases.

    With P_i a set of columns whose unit vectors E_{P_i} complete ker d_i,
    as many as the rank of d_i, the square matrix
    M_i = [ d_{i-1}[:, P_{i-1}] | K_i | E_{P_i} ] expresses a combined
    image/cohomology/complement basis, with the raw representative columns
    K_i standing in for their harmonic parts (column operations against the
    image block cancel the difference).  Any complement of ker d_i gives
    the same tau, because a change of it scales det M_i and det M_{i+1}
    alike and its kernel components cancel against the image and
    representative columns (Milnor, "Whitehead torsion", Bull. AMS 72, 1966,
    section 3).  In orthonormal coordinates |det M_i|^2 gains the factor
    det G_i, so

      tau^2 = prod_i ( |det M_i|^2 det G_i / det H_i )^((-1)^i).

    The place's complex keeps the exact delta_i = det M_i in K and the Gram
    determinants, and tau is read from them at the place (_exact_tau, as
    exact_torsion reads it), with no numeric rank, pivot or minor:
    build_complex_over_r has decided the ranks and pivots in K and refused
    a delta_i that vanishes.  The place's matrices are not read.  No
    logarithm is taken.
    """
    with mp.workdps(cplx.complex.field.digits + GUARD):
        return _exact_tau(cplx.complex, cplx.place)


def _alternating(factors, divisors=()):
    """prod_i (f_i / g_i)^((-1)^i), each g_i 1 where no divisors are given,
    at the working precision: the f_i of even i and the g_i of odd i over
    the others, as one numfield.quotient, so that Fractions multiply
    exactly and round once, and an exact quotient of mpf, such as 1/1 or
    9/9, costs what any other does."""
    f, g = list(factors), list(divisors)
    return quotient(prod(f[::2] + g[1::2]), prod(f[1::2] + g[::2]))


def _exact_tau(cplx: MetrizedComplexOverR, k):
    """The exact basis-chase tau of a complex over R at place k, the square
    root of prod_i (|sigma(delta_i)|^2 det G_i / det H_i)^((-1)^i), at the
    working precision, from the basis and Gram determinants the complex
    keeps: the Gram determinants alternate exactly and round once."""
    cochain, det_h = cplx.factors[k]
    grams = _alternating((g for g, _ in cochain), det_h)
    return sqrt(_alternating(_delta_sq(cplx, k)) * grams)


class CohomologySpec(Record):
    """Cohomology of one degree of an R-module complex.

    free_reps is a lengths[i] by free_rank matrix of ring elements whose
    columns represent a basis of the free part; free_grams gives one
    free_rank-sized Gram per place representative; torsion, when present, is
    a square presentation of the torsion part (invisible at every place).
    free_reps and free_grams default to () and torsion to None, which with
    free_rank 0 is a zero cohomology.
    """

    __slots__ = _fields = ("free_rank", "free_reps", "free_grams", "torsion")
    _defaults = {"free_reps": (), "free_grams": (), "torsion": None}


class MetrizedComplexOverR(Record):
    """Complex of free R-modules with one Gram per place and degree.

    diffs[i] is a lengths[i+1] by lengths[i] matrix of ring elements with
    exact d d = 0; grams[i][k] is the Gram at degree i, place k.  Conjugate
    places carry the conjugated data by construction, so only the
    representatives in Sigma* are stored.  deltas[k][i] is the basis
    determinant delta_i = det [ d_{i-1}[:, P_{i-1}] | K_i | E_{P_i} ] in K
    for the exact pivot columns P of the differentials at place k and the
    free representatives K_i, nonzero at place k.  The rank of each d_i is
    the same at every place, since each free rank fixes it degree by
    degree, but when p factors the pivot columns behind deltas can differ.
    No rank is stored: the free ranks say all the places need.
    factors[k] is (cochain, det_h) of the Grams at place k, each factored
    once, exactly, when the complex is built: cochain[i] is the
    (det G_i, factor) of flatmodel.gram_ldl, which the Laplacian route
    reads, and det_h[i] is det H_i of the free cohomology Gram, 1 where the
    free rank is 0.  Nothing is cached: every field is set by
    build_complex_over_r.
    """

    __slots__ = _fields = ("field", "lengths", "diffs", "grams", "cohomology", "deltas", "factors")


def _basis_determinants(field, lengths, dd, specs, pivots):
    """deltas of MetrizedComplexOverR, from the pivot columns at each place.

    Expanding M_i along its unit columns leaves the minor of
    [ d_{i-1}[:, P_{i-1}] | K_i ] on the rows outside P_i, whose exact_det
    is delta_i up to sign.  Each minor is taken once, however many places
    share its pivots, and numfield.nonzero_places tells the places where it
    vanishes.  A delta_i that vanishes at some place, where the
    representatives of degree i do not complete its image to the kernel,
    raises ValidationError at the first such place and degree.
    """
    nd = len(lengths)
    seen = {}
    out = []
    for piv in pivots:
        row = []
        for i, spec in enumerate(specs):
            below = piv[i - 1] if i > 0 else ()
            own = piv[i] if i < nd - 1 else ()
            if (i, below, own) not in seen:
                reps = spec.free_reps if spec.free_rank else ((),) * lengths[i]
                minor = [
                    [dd[i - 1][r][c] for c in below] + list(reps[r])
                    for r in range(lengths[i])
                    if r not in own
                ]
                delta = exact_det(field, minor) if minor else field.one()
                seen[i, below, own] = (delta, nonzero_places(field, delta))
            delta, nonzero = seen[i, below, own]
            if not nonzero[len(out)]:
                raise ValidationError(
                    f"degree {i}: the image, cohomology and coimage columns are dependent"
                )
            row.append(delta)
        out.append(tuple(row))
    return tuple(out)


def build_complex_over_r(field, lengths, diffs, grams, cohomology) -> MetrizedComplexOverR:
    """Check a complex of free R-modules exactly and store it.

    At most COMPLEX_SIZE_MAX degrees, each of rank at most COMPLEX_SIZE_MAX;
    the bound is checked before any ring element is built.  Each length and
    each free rank is an integer (numfield._integers).  Then one pass
    over the data, in the order it is read, checks every count and shape
    either route will read: the differentials, each once, and degree by degree
    the size of its cochain Gram at every place, its representatives, once,
    against its free rank h_i (n_i by h_i in a nonzero degree when h_i > 0,
    no column when h_i = 0), and the size h_i of its free cohomology Gram
    at every place; a spec of free rank 0 lists no Gram.  A torsion
    presentation belongs to this field.
    Everything exact is decided in K: d after d = 0, the pivot columns and
    so the rank r_i of each d_i at each place (numfield.exact_pivots), that
    each free representative is a cocycle, and that each free rank is the
    dimension n_i - r_i - r_{i-1} of the cohomology at every place; the
    ranks are not stored, since the free ranks now say the same.  Then the
    basis determinants delta_i of the basis-chase are taken exactly in K,
    once per complex, and a delta_i that vanishes at any place is refused.
    Last, place by place, every cochain and then every free cohomology Gram
    is factored once, exactly, by flatmodel.gram_ldl, which refuses one
    that is not square, Hermitian and positive definite; one Gram object
    given at several places or degrees is read and factored once.  Each
    Gram is kept as given, with its rows and [re, im] pairs as tuples, so
    that the complex hashes however its Grams were given.  So a complex
    that builds has every place well defined, and its exact tau at each
    place is read from deltas and factors with no place built.
    """
    lengths = _integers(lengths, "the lengths of a complex must be integers")
    nd = len(lengths)
    if nd > COMPLEX_SIZE_MAX or any(not 0 <= n <= COMPLEX_SIZE_MAX for n in lengths):
        raise ValidationError(
            f"a complex has at most {COMPLEX_SIZE_MAX} degrees, "
            f"each of length 0..{COMPLEX_SIZE_MAX}"
        )
    cohomology = tuple(cohomology)
    if len(cohomology) != nd:
        raise ValidationError("expected one cohomology description per degree")
    gg = tuple(tuple(per_degree) for per_degree in grams)
    if len(gg) != nd or any(len(per) != field.n_places for per in gg):
        raise ValidationError("expected one Gram per degree and place representative")
    dd = tuple(tuple(tuple(field.element(x) for x in row) for row in m) for m in diffs)
    if len(dd) != nd - 1:
        raise ValidationError("degree counts of the complex data disagree")
    for i, m in enumerate(dd):
        if len(m) != lengths[i + 1] or any(len(r) != lengths[i] for r in m):
            raise ValidationError(f"differential {i} has the wrong shape")
    specs = []
    for i, (n, spec) in enumerate(zip(lengths, cohomology)):
        if any(len(g) != n for g in gg[i]):
            raise ValidationError(f"cochain Gram {i} has the wrong size")
        (h,) = _integers([spec.free_rank], f"the free rank at degree {i} must be an integer")
        if h < 0:
            raise ValidationError(f"the free rank at degree {i} is negative: {h}")
        if h and len(spec.free_grams) != field.n_places:
            raise ValidationError(f"free cohomology at degree {i} needs a Gram per place")
        if spec.torsion is not None:
            _check_field(field, spec.torsion.field, f"the torsion presentation at degree {i}")
        reps = tuple(tuple(field.element(x) for x in row) for row in spec.free_reps)
        if h > 0:
            if len(reps) != n:
                raise ValidationError(f"cohomology representatives {i} have the wrong height")
            if any(len(r) != h for r in reps):
                raise ValidationError(
                    f"cohomology representatives {i} disagree with the free rank"
                )
            if n == 0:
                raise ValidationError(f"degree {i} is zero but lists cohomology")
        elif any(len(r) for r in reps):
            raise ValidationError(f"degree {i} provides representatives but no cohomology Gram")
        if any(len(g) != h for g in spec.free_grams):
            raise ValidationError(f"a free cohomology Gram at degree {i} is not of its free rank")
        specs.append(CohomologySpec(h, reps, tuple(spec.free_grams), spec.torsion))
    for i in range(nd - 2):
        if not product_is_zero(field, dd[i + 1], dd[i]):
            raise ValidationError(f"d{i + 1} after d{i} is not zero over R")
    for i, spec in enumerate(specs[:-1]):
        if spec.free_rank and not product_is_zero(field, dd[i], spec.free_reps):
            raise ValidationError(f"a degree-{i} representative is not a cocycle")
    per_diff = [exact_pivots(field, m) for m in dd]
    pivots = tuple(tuple(p[k] for p in per_diff) for k in range(field.n_places))
    for piv in pivots:
        for i, (spec, h) in enumerate(zip(specs, _kernel_dims(lengths, map(len, piv)))):
            if spec.free_rank != h:
                raise ValidationError(
                    f"degree {i} supplies {spec.free_rank} cohomology classes "
                    f"but the kernel has dimension {h}"
                )
    deltas = _basis_determinants(field, lengths, dd, specs, pivots)
    # keyed by identity, so that no Gram is read twice to make its key
    memo = {}

    def factor(g):
        if id(g) not in memo:
            memo[id(g)] = gram_ldl(g, field.digits)
        return memo[id(g)]

    factors = []
    for k in range(field.n_places):
        # the cochain Grams, then the free ones; det H_i = 1 where the free rank is 0
        cochain = tuple(factor(g[k]) for g in gg)
        free = [factor(s.free_grams[k])[0] if s.free_rank else Fraction(1) for s in specs]
        factors.append((cochain, tuple(free)))

    def frozen(grams):
        # each Gram, read and factored above, with its rows and pairs as tuples
        return tuple(
            tuple(tuple(tuple(x) if isinstance(x, list) else x for x in row) for row in g)
            for g in grams
        )

    specs = tuple(CohomologySpec(s.free_rank, s.free_reps, frozen(s.free_grams), s.torsion)
                  for s in specs)
    return MetrizedComplexOverR(
        field, lengths, dd, tuple(map(frozen, gg)), specs, deltas, tuple(factors)
    )


def at_place(cplx: MetrizedComplexOverR, place: int) -> MetrizedComplexAtPlace:
    """The metrized complex at one place representative: the complex and
    the index, which both routes read.

    build_complex_over_r has decided everything exact: every count and
    shape, d after d = 0 and the cocycles in K, the basis determinants, and
    the factor of every Gram.  So this checks only the index, which must
    be an integer (numfield._integers) in range, and embeds nothing: the
    Laplacian route embeds the place's orthonormal coordinates itself
    (_orthonormal_rows), and the basis-chase reads the exact tau from the
    complex.  metrized_complex_at_place builds its one place here too.
    """
    message = f"place {place!r} is not in 0..{cplx.field.n_places - 1}"
    (place,) = _integers([place], message)
    if not 0 <= place < cplx.field.n_places:
        raise ValidationError(message)
    return MetrizedComplexAtPlace(cplx, place)


def _delta_sq(cplx: MetrizedComplexOverR, place):
    """|sigma(delta_i)|^2 of each basis determinant of a complex over R at
    one place, at the working precision."""
    return [_abs2(embed(cplx.field, d, place)) for d in cplx.deltas[place]]


def exact_torsion(cplx: MetrizedComplexOverR):
    """(taus, ln_taus): the exact basis-chase tau at each place of a complex
    over R (_exact_tau, the one per-place reader, which
    torsion_by_contraction reads too) and its logarithm, each taken once per
    place at the field's digits + GUARD.  It reads the basis determinants
    and Gram determinants build_complex_over_r kept, and builds no place."""
    with mp.workdps(cplx.field.digits + GUARD):
        taus = tuple(_exact_tau(cplx, k) for k in range(cplx.field.n_places))
        return taus, tuple(ln(tau) for tau in taus)


def rtorsion_form(field: NumberField, cplx: MetrizedComplexOverR) -> FormElement:
    """The degree-1 vector of per-place ln tau, in quotient coordinates, with
    tau the exact basis-chase's (exact_torsion); cplx must be a complex over
    field.  It builds no place."""
    _check_field(field, cplx.field, "the complex")
    return make_form(field, 0, exact_torsion(cplx)[1])


def verify_euler_identity(
    field: NumberField, lattice: RegulatorLattice, cplx: MetrizedComplexOverR
) -> PointClass:
    """Residual of the point-level Euler-characteristic identity.

    residual = sum (-1)^i cycl(V^i) - sum (-1)^i [ cycl(free H^i) + Z(tors H^i) ]
               - a((1/2) ln tau form).
    The identity holds exactly when the residual is the zero class.  The
    torsion-form coefficient is 1/2, the unique value compatible with the
    quarter-log-determinant normalization of the cycle map under metric
    scaling; see the scaling lemma.

    Every term is a rank and a vector of quarter log-determinants, the
    torsion classes too: Z(tors H^i) has coefficient
    -(1/2) ln|sigma(det T_i)| = (1/4) ln |sigma(det T_i)|^(-2) for the
    presentation T_i (modtors.zhat).  So they add up to one class: its rank
    is sum (-1)^i (n_i - free rank of H^i), and its coefficient at each
    place is

      (1/4) ln [ prod_i (det G_i |sigma(det T_i)|^2 / det H_i)^((-1)^i) / tau^2 ].

    With the exact basis-chase tau^2 = prod_i (|sigma(delta_i)|^2 det G_i /
    det H_i)^((-1)^i) the Gram determinants cancel exactly, and it is

      (1/4) ln prod_i (|sigma(det T_i)|^2 / |sigma(delta_i)|^2)^((-1)^i),

    one logarithm per place and one lattice reduction in all, from the
    |sigma(delta_i)|^2 of each basis determinant, embedded here: no place
    is built.  build_complex_over_r has refused a delta_i that vanishes and
    a Gram that is not positive.  cplx must be a complex over field.
    """
    _check_field(field, cplx.field, "the complex")
    rank = sum(
        (n - spec.free_rank) * (-1) ** i
        for i, (n, spec) in enumerate(zip(cplx.lengths, cplx.cohomology))
    )
    with mp.workdps(field.digits + GUARD):
        lndets = []
        for k in range(field.n_places):
            tors = (
                mpf(1) if spec.torsion is None else _abs2(embed(field, spec.torsion.det_elem, k))
                for spec in cplx.cohomology
            )
            lndets.append(ln(_alternating(tors, _delta_sq(cplx, k))))
    return _cycl_from_lndets(field, lattice, rank, lndets)
