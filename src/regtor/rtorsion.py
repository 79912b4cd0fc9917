"""Reidemeister torsion of finite metrized cochain complexes.

tau is the positive real comparing the metric on the determinant line of a
complex with the metric induced on the determinant line of its cohomology
(with respect to chosen cohomology bases and metrics).

metrized_complex_at_place validates a complex at one place and changes it to
orthonormal coordinates, once: it factors each cochain Gram one time, and
keeps det of each cochain and cohomology Gram.  Each place and its tau are
built once per complex object: at_place keeps the MetrizedComplexAtPlace of
every place it has built on the MetrizedComplexOverR, and reidemeister keeps
tau on the MetrizedComplexAtPlace, so rtorsion_form and
verify_euler_identity reuse what a caller has already computed.  Two
independent algorithms read the result:

  reidemeister         Laplacian route: take pseudo-determinants of the
                       combinatorial Laplacians, and correct by the Gram
                       determinants of the harmonically projected
                       cohomology representatives against the chosen
                       cohomology Grams.  Eigenvectors are computed only in
                       the degrees that list cohomology.

  torsion_by_contraction
                       Basis-chase route: take each rank from the complex,
                       complete the image and representative columns of
                       each degree by the unit vectors on the pivot columns
                       that complete pivoting picks on its differential, and
                       alternate the absolute minors that remain.  It takes
                       no logarithm.

The sign convention is frozen so that the acyclic complex 0 -> C --z--> C -> 0
with standard metrics has tau = 1/|z|; both routes reproduce it.

Every per-place matrix is an mp.matrix, and products, adjoints, norms, the
Cholesky factor and the triangular solves are mpmath's own.

Rank decisions.  For a complex over R the rank of each differential at each
place is decided exactly in K, once, by build_complex_over_r
(numfield.exact_ranks), and at_place hands it to the place, so the
basis-chase takes no singular value there.  The Laplacian route stays
numeric, so that the two routes stay independent, and a kernel dimension of
its own that differs from the exact one raises RankAmbiguous.  Only a
complex built directly over C, which has no K, has its ranks decided on
singular values.  Numeric decisions refuse to guess: any eigenvalue or
singular value within a factor 10^3 of numfield.rank_cutoff
(10^(-digits/2)) raises RankAmbiguous.  d after d = 0 and the cocycle
conditions over C are checked relative to the data: |d_{i+1} d_i|_F must not
exceed numfield.residual_tolerance (10^(-digits + GUARD)) times
|d_{i+1}|_F |d_i|_F, and |d_i K_i|_F that times |d_i|_F |K_i|_F.  The
determinant of a Gram is (prod L_jj)^2 of its Cholesky factor L.  The one
Gram not factored is that of the harmonic projections in reidemeister: its
determinant comes in closed form from a square determinant, which does not
square the conditioning.

Neither route takes a logarithm: each multiplies determinants, eigenvalues
and minors and ends in one square root.  Logarithms are taken only where a
form needs one: rtorsion_form takes ln tau once per place, and
verify_euler_identity multiplies each place's Gram determinants and
1 / tau^2 into one number and takes one logarithm of it.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .errors import RankAmbiguous, ValidationError
from .flatmodel import (
    FormElement,
    PointClass,
    RegulatorLattice,
    _cycl_from_lndets,
    _det_of_factor,
    class_add,
    class_neg,
    hermitian_cholesky,
    make_form,
    to_mp,
    zero_class,
)
from .modtors import zhat
from .numfield import (
    GUARD,
    NumberField,
    Record,
    embed,
    exact_ranks,
    rank_cutoff,
    residual_tolerance,
)

_AMBIGUITY_FACTOR = 1000
# Largest number of degrees, and largest rank of each cochain module, of a
# complex over R.  A 12-degree complex of rank 12 in every degree already
# costs 10 * 12^3 exact ring products for its d after d check alone.  Over
# Z[zeta_61] at 50 digits, with each d_i of rank 6 and dense entries (12 x 12
# blocks mixed by 3 or 8 elementary base changes with coefficients in
# {-1, 0, 1}), d after d took 2.9 / 6.8 s and the exact ranks of all 11
# differentials 1.6 / 1.9 s, on one core of a 2-core x86 machine with
# mpmath's pure-Python backend.
COMPLEX_SIZE_MAX = 12


def _matrix(rows, cols):
    """A len(rows) by cols mp.matrix of entries already converted."""
    m = mp.matrix(len(rows), cols)
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            m[r, c] = x
    return m


def _inverse_upper(up):
    """U^{-1} of an upper-triangular U, by back substitution."""
    eye = mp.eye(up.rows)
    inv = mp.matrix(up.rows, up.rows)
    for c in range(up.rows):
        inv[:, c] = mp.U_solve(up, eye[:, c])
    return inv


class MetrizedComplexAtPlace(Record):
    """A finite cochain complex over C, validated and factored once.

    Every matrix field is an mp.matrix, 0 by n or n by 0 where a degree or a
    cohomology is zero.  With the cochain Grams G_i = L_i L_i^*:
    ortho_diffs[i] = L_{i+1}^* d_i L_i^{-*}, ortho_reps[i] = L_i^* K_i for
    the representative columns K_i, and from_ortho[i] = L_i^{-*} maps
    orthonormal coordinates back.  det_cochain[i] is det G_i.
    cohomology_dims[i] counts the chosen classes and det_cohomology[i] is
    det H_i of their Gram (1 when there are none).  Determinants, not their
    logarithms, are kept, so the torsion routes multiply them.  ranks[i] is
    the rank of d_i decided exactly in K when the complex comes from a
    complex over R (at_place), and ranks is None, its default, for a
    complex built directly over C, whose ranks only singular values can tell.
    reidemeister keeps its tau in _memo, a fresh dict per object outside
    the constructor, repr and equality.
    """

    _fields = (
        "digits", "lengths", "ortho_diffs", "ortho_reps", "from_ortho",
        "det_cochain", "cohomology_dims", "det_cohomology", "ranks",
    )
    __slots__ = _fields + ("_memo",)
    _defaults = {"ranks": None}


def metrized_complex_at_place(
    digits, lengths, diffs, cochain_grams, cohomology_grams, cohomology_maps, ranks=None
) -> MetrizedComplexAtPlace:
    """Validate a complex and change it to orthonormal coordinates.

    diffs[i] maps degree i to degree i+1 and has shape lengths[i+1] by
    lengths[i]; cohomology_maps[i] has one column per chosen cohomology
    class, each column a cocycle in degree i; cohomology_grams[i] is the
    chosen metric on those classes.  Checks shapes, d after d = 0, positive
    Grams and cocycle columns.  Each Gram is factored exactly once: the
    Cholesky factor of a cochain Gram gives the orthonormal coordinates and
    its determinant, and that of a cohomology Gram its determinant.  No
    logarithm is taken.  ranks, the exact rank of each differential, is
    kept as given; at_place passes those of the complex over R.
    """
    lengths = tuple(int(n) for n in lengths)
    nd = len(lengths)
    with mp.workdps(digits + GUARD):
        dd = [[[to_mp(x) for x in row] for row in m] for m in diffs]
        kk = [[[to_mp(x) for x in row] for row in m] for m in cohomology_maps]
        gg, hh = cochain_grams, cohomology_grams  # hermitian_cholesky converts each
        if len(dd) != nd - 1 or len(gg) != nd or len(hh) != nd or len(kk) != nd:
            raise ValidationError("degree counts of the complex data disagree")
        for i in range(nd - 1):
            if len(dd[i]) != lengths[i + 1] or any(len(r) != lengths[i] for r in dd[i]):
                raise ValidationError(f"differential {i} has the wrong shape")
        if ranks is not None and len(ranks) != nd - 1:
            raise ValidationError("expected one rank per differential")
        dd = [_matrix(m, lengths[i]) for i, m in enumerate(dd)]
        norms = [mp.mnorm(m, "f") for m in dd]
        # exact zeros carry the rounding of entries as large as the factors
        tol = residual_tolerance(digits)
        for i in range(nd - 2):
            if mp.mnorm(dd[i + 1] * dd[i], "f") > tol * norms[i + 1] * norms[i]:
                raise ValidationError(f"d{i + 1} after d{i} is not zero")
        ups = []
        reps = []
        det_g = []
        det_h = []
        for i in range(nd):
            if len(gg[i]) != lengths[i]:
                raise ValidationError(f"cochain Gram {i} has the wrong size")
            low = hermitian_cholesky(gg[i], digits)
            det_g.append(_det_of_factor(low, digits))
            ups.append(low.H)
            h = len(hh[i])
            if h > 0:
                det_h.append(_det_of_factor(hermitian_cholesky(hh[i], digits), digits))
                if len(kk[i]) != lengths[i]:
                    raise ValidationError(
                        f"cohomology representatives {i} have the wrong height"
                    )
                if any(len(r) != h for r in kk[i]):
                    raise ValidationError(
                        f"cohomology representatives {i} disagree with the Gram size"
                    )
                if lengths[i] == 0:
                    raise ValidationError(f"degree {i} is zero but lists cohomology")
                k = _matrix(kk[i], h)
                if i < nd - 1:
                    bound = tol * norms[i] * mp.mnorm(k, "f")
                    if mp.mnorm(dd[i] * k, "f") > bound:
                        raise ValidationError(f"a degree-{i} representative is not a cocycle")
            else:
                if any(len(r) for r in kk[i]):
                    raise ValidationError(
                        f"degree {i} provides representatives but no cohomology Gram"
                    )
                det_h.append(mpf(1))
                k = mp.matrix(lengths[i], 0)
            reps.append(ups[i] * k)
        from_ortho = tuple(_inverse_upper(up) for up in ups)
        return MetrizedComplexAtPlace(
            digits=digits,
            lengths=lengths,
            ortho_diffs=tuple(ups[i + 1] * dd[i] * from_ortho[i] for i in range(nd - 1)),
            ortho_reps=tuple(reps),
            from_ortho=from_ortho,
            det_cochain=tuple(det_g),
            cohomology_dims=tuple(len(m) for m in hh),
            det_cohomology=tuple(det_h),
            ranks=None if ranks is None else tuple(ranks),
        )


def _count_below(values, cut, message):
    """How many values lie below cut; refuses any within a factor 10^3 of it.

    message names the decision, with {} where the offending value goes.
    """
    k = 0
    for v in values:
        if cut / _AMBIGUITY_FACTOR < v < cut * _AMBIGUITY_FACTOR:
            raise RankAmbiguous(message.format(mp.nstr(v, 8)))
        if v < cut:
            k += 1
    return k


def _laplacian_kernels(cplx: MetrizedComplexAtPlace, vectors):
    """Per degree: Laplacian eigenvalues, eigenvectors, kernel dimension.

    The Laplacian d_i^* d_i + d_{i-1} d_{i-1}^* is taken in orthonormal
    coordinates.  Eigenvectors are computed only in the degrees listed in
    vectors, and there the first (kernel dimension) eigenvector columns span
    its kernel; every other degree yields None for them, and a zero degree
    a 0 by 0 matrix.  The eigenvalues do not depend on whether eigenvectors
    are asked for.
    """
    dt = cplx.ortho_diffs
    cut = rank_cutoff(cplx.digits)
    for i, n in enumerate(cplx.lengths):
        if n == 0:
            yield [], mp.matrix(0, 0), 0
            continue
        d = dt[i] if i < len(dt) else mp.matrix(0, n)
        e = dt[i - 1] if i > 0 else mp.matrix(n, 0)
        lap = d.H * d + e * e.H
        if i in vectors:
            evals, q = mp.eighe(lap)
        else:
            evals, q = mp.eighe(lap, eigvals_only=True), None
        evals = [evals[t] for t in range(n)]
        h = _count_below(evals, cut, f"Laplacian in degree {i}: eigenvalue {{}} sits at the cutoff")
        yield evals, q, h


def cohomology(cplx: MetrizedComplexAtPlace):
    """Kernel dimensions of the Laplacians and orthonormal harmonic bases.

    Returns (dims, bases); bases[i] is a lengths[i] by dims[i] mp.matrix in
    the original coordinates, orthonormal for the degree-i Gram.
    """
    with mp.workdps(cplx.digits + GUARD):
        dims = []
        bases = []
        every_degree = range(len(cplx.lengths))
        for i, (_, q, h) in enumerate(_laplacian_kernels(cplx, every_degree)):
            dims.append(h)
            bases.append(cplx.from_ortho[i] * q[:, 0:h])
        return tuple(dims), tuple(bases)


def _kernel_dims(lengths, ranks):
    """n_i - r_i - r_{i-1} per degree, for the ranks r_i of the differentials."""
    r = (0, *ranks, 0)
    return tuple(n - r[i] - r[i + 1] for i, n in enumerate(lengths))


def _check_rep_count(cplx, dims):
    for i, h in enumerate(dims):
        given = cplx.cohomology_dims[i]
        if given != h:
            raise ValidationError(
                f"degree {i} supplies {given} cohomology classes but the kernel has dimension {h}"
            )


def reidemeister(cplx: MetrizedComplexAtPlace):
    """tau by the Laplacian formula with the cohomology base-change correction.

    tau^2 = prod_i [ det'(Lap_i)^i * det W_i / det H_i ]^((-1)^i)
    where W_i is the Gram of the harmonic projections of the representative
    columns K_i and H_i the chosen cohomology Gram.  With Z_i an orthonormal
    basis of the harmonic space, W_i = (Z_i^* K_i)^* (Z_i^* K_i), and
    Z_i^* K_i is square when the complex lists as many classes as the kernel
    has dimensions, so det W_i = |det Z_i^* K_i|^2 without forming W_i.  The
    product and one square root give tau; no logarithm is taken.  tau is
    computed once per MetrizedComplexAtPlace, always at its digits + GUARD,
    and kept on it; a call that raises keeps nothing, so the next call raises
    again.

    The route stays numeric even when the complex carries exact ranks, so
    that it checks the basis-chase independently.  A kernel dimension that
    differs from the exact n_i - r_i - r_{i-1} then raises RankAmbiguous:
    the cutoff misjudged an eigenvalue, and more digits would help.
    """
    if "tau" in cplx._memo:
        return cplx._memo["tau"]
    with mp.workdps(cplx.digits + GUARD):
        cut = rank_cutoff(cplx.digits)
        listed = {i for i, h in enumerate(cplx.cohomology_dims) if h}
        exact = () if cplx.ranks is None else _kernel_dims(cplx.lengths, cplx.ranks)
        dims = []
        # tau^2 = even / odd, the products of the even and the odd degrees' factors
        even, odd = mpf(1), mpf(1)
        for i, (evals, q, h) in enumerate(_laplacian_kernels(cplx, listed)):
            if exact and h != exact[i]:
                raise RankAmbiguous(
                    f"Laplacian in degree {i}: {h} eigenvalues fall below the cutoff "
                    f"but the exact kernel has dimension {exact[i]}"
                )
            dims.append(h)
            factor = mpf(1)
            if i > 0 and evals:
                factor = mp.fprod(lam for lam in evals if lam > cut) ** i
            # a count that differs from the kernel dimension fails below
            if h and h == cplx.cohomology_dims[i]:
                det = mp.det(q[:, 0:h].H * cplx.ortho_reps[i])
                if not det:
                    raise ValidationError(
                        f"degree-{i} representatives do not project onto a cohomology basis"
                    )
                factor *= abs(det) ** 2 / cplx.det_cohomology[i]
            if i % 2:
                odd *= factor
            else:
                even *= factor
        _check_rep_count(cplx, dims)
        tau = cplx._memo["tau"] = mp.sqrt(even / odd)
        return tau


def _pivot_columns(d, rank):
    """The rank columns that Gaussian elimination with complete pivoting picks.

    Their unit vectors span a complement of the kernel of the matrix d, one
    that stays well away from the kernel.
    """
    a = d.tolist()
    live_rows, live_cols = list(range(d.rows)), list(range(d.cols))
    for _ in range(rank):
        p, q = max(
            ((r, c) for r in live_rows for c in live_cols), key=lambda rc: abs(a[rc[0]][rc[1]])
        )
        live_rows.remove(p)
        live_cols.remove(q)
        for r in live_rows:
            f = a[r][q] / a[p][q]
            for c in live_cols:
                a[r][c] -= f * a[p][c]
    return tuple(c for c in range(d.cols) if c not in live_cols)


def torsion_by_contraction(cplx: MetrizedComplexAtPlace):
    """tau by the basis-chase: alternate determinants of per-degree bases.

    The rank of each d_i is the exact one the complex carries (ranks); only
    for a complex built directly over C, which has none, is it decided on
    the singular values of d_i in orthonormal coordinates.  d_i's coimage is
    stood in for by the unit vectors on the rank columns P_i that complete
    pivoting picks on d_i: any basis of a complement of ker d_i gives the
    same tau, because a change of it scales det M_i and det M_{i+1} alike
    and its kernel components cancel against the image and representative
    columns.  The square matrix
    M_i = [ d_{i-1} E_{P_{i-1}} | K_i | E_{P_i} ] expresses a combined
    image/cohomology/complement basis, with the raw representative columns
    K_i standing in for their harmonic parts (column operations against the
    image block cancel the difference).  Expanding along the unit columns,
    |det M_i| is the minor of [ d_{i-1}[:, P_{i-1}] | K_i ] on the rows
    outside P_i, and

      tau = prod |det M_i|^{(-1)^i} / sqrt(prod det H_i^{(-1)^i}).

    A minor that is numerically singular, as when the representatives of a
    degree do not complete its image to the kernel, raises ValidationError.
    """
    with mp.workdps(cplx.digits + GUARD):
        dt = cplx.ortho_diffs
        cut = rank_cutoff(cplx.digits)
        nd = len(cplx.lengths)
        pivots = []
        for i in range(nd - 1):
            if cplx.ranks is not None:
                keep = cplx.ranks[i]
            else:
                svals = mp.svd_c(dt[i], compute_uv=False)
                keep = svals.rows - _count_below(
                    [svals[t] for t in range(svals.rows)],
                    cut,
                    f"singular value {{}} of d{i} sits at the cutoff",
                )
            pivots.append(_pivot_columns(dt[i], keep))
        tau = mpf(1)
        det_h = mpf(1)
        for i in range(nd):
            n = cplx.lengths[i]
            if n == 0:
                continue
            below = pivots[i - 1] if i > 0 else ()
            own = pivots[i] if i < nd - 1 else ()
            width = len(below) + cplx.cohomology_dims[i] + len(own)
            if width != n:
                raise ValidationError(
                    f"degree {i}: image+cohomology+coimage dimensions {width} != {n}"
                )
            reps = cplx.ortho_reps[i]
            minor = [
                [dt[i - 1][r, c] for c in below] + [reps[r, c] for c in range(reps.cols)]
                for r in range(n)
                if r not in own
            ]
            det = abs(mp.det(mp.matrix(minor))) if minor else mpf(1)
            if not det:
                raise ValidationError(
                    f"degree {i}: the image, cohomology and coimage columns are dependent"
                )
            if i % 2:
                tau, det_h = tau / det, det_h / cplx.det_cohomology[i]
            else:
                tau, det_h = tau * det, det_h * cplx.det_cohomology[i]
        return tau / mp.sqrt(det_h)


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
    representatives in Sigma* are stored.  ranks[k][i] is the rank of d_i
    at place k, decided exactly in K; when p factors it can differ between
    places.  at_place keeps each place it builds in _memo, a fresh dict per
    object outside the constructor, repr and equality.
    """

    _fields = ("field", "lengths", "diffs", "grams", "cohomology", "ranks")
    __slots__ = _fields + ("_memo",)


def _product_is_zero(field, left, right) -> bool:
    """Whether the product of two matrices of ring elements is 0 in K."""
    for row in left:
        for c in range(len(right[0]) if right else 0):
            acc = field.zero()
            for t, x in enumerate(row):
                acc = field.add(acc, field.mul(x, right[t][c]))
            if not acc.is_zero():
                return False
    return True


def build_complex_over_r(field, lengths, diffs, grams, cohomology) -> MetrizedComplexOverR:
    """Check a complex of free R-modules exactly and store it.

    At most COMPLEX_SIZE_MAX degrees, each of rank at most COMPLEX_SIZE_MAX;
    the bound is checked before any ring element is built.  Everything
    exact is decided in K: d after d = 0, the rank r_i of each d_i at each
    place (numfield.exact_ranks), that each free representative is a
    cocycle, and that each free rank is the dimension n_i - r_i - r_{i-1}
    of the cohomology at every place.
    """
    lengths = tuple(int(n) for n in lengths)
    nd = len(lengths)
    if nd > COMPLEX_SIZE_MAX or any(not 0 <= n <= COMPLEX_SIZE_MAX for n in lengths):
        raise ValidationError(
            f"a complex has at most {COMPLEX_SIZE_MAX} degrees, "
            f"each of length 0..{COMPLEX_SIZE_MAX}"
        )
    dd = tuple(tuple(tuple(field.element(x) for x in row) for row in m) for m in diffs)
    if len(dd) != nd - 1:
        raise ValidationError("expected one differential between consecutive degrees")
    for i in range(nd - 1):
        if len(dd[i]) != lengths[i + 1] or any(len(r) != lengths[i] for r in dd[i]):
            raise ValidationError(f"differential {i} has the wrong shape")
    for i in range(nd - 2):
        if not _product_is_zero(field, dd[i + 1], dd[i]):
            raise ValidationError(f"d{i + 1} after d{i} is not zero over R")
    gg = tuple(tuple(m for m in per_degree) for per_degree in grams)
    if len(gg) != nd or any(len(per) != field.n_places for per in gg):
        raise ValidationError("expected one Gram per degree and place representative")
    cohomology = tuple(cohomology)
    if len(cohomology) != nd:
        raise ValidationError("expected one cohomology description per degree")
    specs = []
    for i, spec in enumerate(cohomology):
        reps = tuple(tuple(field.element(x) for x in row) for row in spec.free_reps)
        if spec.free_rank:
            if len(reps) != lengths[i] or any(len(r) != spec.free_rank for r in reps):
                raise ValidationError(f"free representatives at degree {i} have the wrong shape")
            if len(spec.free_grams) != field.n_places:
                raise ValidationError(f"free cohomology at degree {i} needs a Gram per place")
        specs.append(CohomologySpec(spec.free_rank, reps, tuple(spec.free_grams), spec.torsion))
    for i, spec in enumerate(specs[:-1]):
        if spec.free_rank and not _product_is_zero(field, dd[i], spec.free_reps):
            raise ValidationError(f"a degree-{i} representative is not a cocycle")
    per_diff = [exact_ranks(field, m) for m in dd]
    ranks = tuple(tuple(r[k] for r in per_diff) for k in range(field.n_places))
    for r in ranks:
        for i, (h, spec) in enumerate(zip(_kernel_dims(lengths, r), specs)):
            if spec.free_rank != h:
                raise ValidationError(
                    f"degree {i} supplies {spec.free_rank} cohomology classes "
                    f"but the kernel has dimension {h}"
                )
    return MetrizedComplexOverR(field, lengths, dd, gg, tuple(specs), ranks)


def _embed_matrix(field, rows, place):
    return tuple(tuple(embed(field, x, place) for x in row) for row in rows)


def at_place(cplx: MetrizedComplexOverR, place: int) -> MetrizedComplexAtPlace:
    """The embedded metrized complex at one place representative.

    Each place is built once per complex object: later calls return the same
    MetrizedComplexAtPlace, and so share its tau.  A call that raises keeps
    nothing.
    """
    if place in cplx._memo:
        return cplx._memo[place]
    field = cplx.field
    if not 0 <= place < field.n_places:
        raise ValidationError(f"place {place} is not in 0..{field.n_places - 1}")
    diffs = [_embed_matrix(field, m, place) for m in cplx.diffs]
    grams = [cplx.grams[i][place] for i in range(len(cplx.lengths))]
    hgrams = []
    hmaps = []
    for i, spec in enumerate(cplx.cohomology):
        if spec.free_rank:
            hgrams.append(spec.free_grams[place])
            hmaps.append(_embed_matrix(field, spec.free_reps, place))
        else:
            hgrams.append(())
            hmaps.append(())
    at = cplx._memo[place] = metrized_complex_at_place(
        field.digits, cplx.lengths, diffs, grams, hgrams, hmaps, cplx.ranks[place]
    )
    return at


def rtorsion_form(field: NumberField, cplx: MetrizedComplexOverR) -> FormElement:
    """The degree-1 vector of per-place ln tau, in quotient coordinates."""
    with mp.workdps(field.digits + GUARD):
        vals = [
            mp.log(reidemeister(at_place(cplx, k))) for k in range(field.n_places)
        ]
    return make_form(field, 0, vals)


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

    Every term but the torsion classes Z(tors H^i) is a rank and a vector of
    quarter log-determinants, so they add up to one class: its rank is
    sum (-1)^i (n_i - free rank of H^i), and its coefficient at each place
    is (1/4) ln [ prod_i (det G_i / det H_i)^((-1)^i) / tau^2 ], one
    logarithm per place.  The Gram determinants are those that at_place
    keeps for each place, and tau is reidemeister's memo, so after a caller
    has run the routes at every place no Gram is factored again.
    """
    places = [at_place(cplx, k) for k in range(field.n_places)]
    total = zero_class(lattice)
    for i, spec in enumerate(cplx.cohomology):
        if spec.torsion is not None:
            term = zhat(field, lattice, spec.torsion)
            total = class_add(total, class_neg(term) if i % 2 == 0 else term)
    rank = sum(
        (n - spec.free_rank) * (-1) ** i
        for i, (n, spec) in enumerate(zip(cplx.lengths, cplx.cohomology))
    )
    with mp.workdps(field.digits + GUARD):
        lndets = []
        for at in places:
            x = mpf(1)
            for i, (g, h) in enumerate(zip(at.det_cochain, at.det_cohomology)):
                x = x * g / h if i % 2 == 0 else x * h / g
            lndets.append(mp.log(x / reidemeister(at) ** 2))
    return class_add(total, _cycl_from_lndets(field, lattice, rank, lndets))
