"""Seeded op lists for the three workloads, as plain JSON-like data.

Nothing here imports regtor: the library only ever sees the data these
functions return.  The seed picks values of equal cost (conjugate angles,
matrix entries, base changes, metrics); the shape of each list (which kinds
of op, how many, at which precision, on which field, with which orders and
degrees) is fixed per workload, so different seeds cost the same.

Each op is a dict with at least "kind" and "tier" (the working precision in
decimal digits that the op belongs to: 50, 300 or 1000).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

TIERS = (50, 300, 1000)
WORKLOADS = ("cli-cold", "circle-ladder", "torsion-corpus")


def rng_for(workload: str, seed: int, label) -> random.Random:
    return random.Random(f"{workload}:{seed}:{label}")


# ---------------------------------------------------------------------------
# Exact arithmetic in Z[x]/(p), used only to generate inputs.
# ---------------------------------------------------------------------------


class Ring:
    """Z[x]/(p) for a monic integer p, elements as Fraction coefficient lists."""

    def __init__(self, name: str, poly):
        self.name = name
        self.poly = list(poly)
        self.n = len(poly) - 1

    def el(self, coeffs):
        v = [Fraction(c) for c in coeffs] + [Fraction(0)] * self.n
        return self.reduce(v)

    def reduce(self, v):
        v = list(v)
        n = self.n
        for k in range(len(v) - 1, n - 1, -1):
            c = v[k]
            if c:
                for i in range(n + 1):
                    v[k - n + i] -= c * self.poly[i]
        return v[:n]

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def sub(self, a, b):
        return [x - y for x, y in zip(a, b)]

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.n)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return self.reduce(out)

    def zero(self):
        return [Fraction(0)] * self.n

    def one(self):
        return self.el([1])

    @staticmethod
    def strs(a):
        out = [str(c) for c in a]
        while len(out) > 1 and out[-1] == "0":
            out.pop()
        return out


def zsqrt2() -> Ring:
    return Ring("zsqrt2", [-2, 0, 1])


def cyclotomic(p: int) -> Ring:
    return Ring(f"zeta{p}", [1] * p)


def descriptor(ring: Ring) -> dict:
    """Field descriptor with a full-rank set of units."""
    if ring.name == "zsqrt2":
        units = [["-1"], ["1", "1"]]
    else:
        p = ring.n + 1
        # -1, the generator, and the cyclotomic units 1 + x + ... + x^(a-1).
        units = [["-1"], ["0", "1"]] + [["1"] * a for a in range(2, (p - 1) // 2 + 1)]
    return {"poly": ring.poly, "units": units, "class_group": {"orders": []}}


def n_places(ring: Ring) -> int:
    return 2 if ring.name == "zsqrt2" else ring.n // 2


def _unit_pairs(ring: Ring):
    one = ring.one()
    neg = ring.sub(ring.zero(), one)
    if ring.name == "zsqrt2":
        u, ui = ring.el([1, 1]), ring.el([-1, 1])
        return [(one, one), (neg, neg), (u, ui), (ui, u)]
    p = ring.n + 1
    x = ring.el([0, 1])
    xinv = ring.el([0] * (p - 1) + [1])  # x^(p-1) = x^-1
    return [(one, one), (neg, neg), (x, xinv), (xinv, x)]


def _pools(ring: Ring):
    small = [ring.one(), ring.el([-1]), ring.el([0, 1]), ring.el([1, 1]), ring.el([2])]
    if ring.name == "zsqrt2":
        mults = [ring.el(c) for c in ([2], [3], [0, 1], [3, 1], [1, 2])]
    else:
        mults = [ring.el(c) for c in ([2], [3], [1, 1, 1], [2, 1])]
    return small, mults


def _gram(rng: random.Random, n: int, cplx: bool, signs: random.Random):
    """Exact Hermitian positive-definite L^H D L with unit lower-triangular L.

    rng picks the sizes of the entries of L and D; signs picks the signs of
    the entries of L, which do not change the cost."""

    def small():
        re = Fraction(rng.randint(0, 2), rng.choice((1, 2, 3))) * signs.choice((1, -1))
        im = Fraction(rng.randint(0, 2), rng.choice((1, 2, 3))) * signs.choice((1, -1)) if cplx else Fraction(0)
        return (re, im)

    low = [[(Fraction(1), Fraction(0)) if i == j else small() if j < i else (Fraction(0), Fraction(0))
            for j in range(n)] for i in range(n)]
    diag = [rng.choice((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(5, 3))) for _ in range(n)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re = im = Fraction(0)
            for k in range(n):
                # conj(L[k][i]) * d_k * L[k][j]
                a, b = low[k][i][0], -low[k][i][1]
                c, d = low[k][j]
                re += diag[k] * (a * c - b * d)
                im += diag[k] * (a * d + b * c)
            row.append([str(re), str(im)] if cplx else str(re))
        out.append(row)
    return out


def _matmul(ring: Ring, a, b):
    return [[_dot(ring, row, [b[t][j] for t in range(len(b))]) for j in range(len(b[0]))] for row in a]


def _dot(ring, u, v):
    acc = ring.zero()
    for x, y in zip(u, v):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def _neg(ring: Ring, a):
    return ring.sub(ring.zero(), a)


def _unimodular(ring: Ring, rng: random.Random, n: int, signs: random.Random):
    """A random product of shears and unit scalings, with its inverse.  rng
    picks the steps, signs the sign of each step's element."""
    eye = lambda: [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]  # noqa: E731
    u, ui = eye(), eye()
    small, _ = _pools(ring)
    units = _unit_pairs(ring)
    for _ in range(5):
        if n > 1 and rng.random() < 0.7:
            k, l = rng.sample(range(n), 2)
            c = rng.choice(small)
            if signs.random() < 0.5:
                c = _neg(ring, c)
            u[k] = [ring.add(u[k][j], ring.mul(c, u[l][j])) for j in range(n)]
            for i in range(n):
                ui[i][l] = ring.sub(ui[i][l], ring.mul(ui[i][k], c))
        else:
            k = rng.randrange(n)
            w, wi = rng.choice(units)
            if signs.random() < 0.5:
                w, wi = _neg(ring, w), _neg(ring, wi)
            u[k] = [ring.mul(w, x) for x in u[k]]
            for i in range(n):
                ui[i][k] = ring.mul(ui[i][k], wi)
    return u, ui


# Complex shapes: (lower degrees of the pairs R --m--> R, free generators per
# degree).  Shapes are fixed per op slot so every seed does the same amount
# of linear algebra.
SHAPES = (
    ((0,), (0, 0)),              # lengths [1, 1]
    ((0, 0), (1, 0)),            # [3, 2]
    ((0, 1), (0, 1, 0)),         # [1, 3, 1]
    ((0, 1, 1), (1, 0, 1)),      # [2, 3, 3]
    ((0, 1, 2), (0, 1, 0, 1)),   # [1, 3, 2, 2]
    ((0, 0, 1, 2), (1, 0, 1, 0)),  # [3, 3, 3, 1]
)


def random_complex(ring: Ring, rng: random.Random, shape, signs: random.Random) -> dict:
    """A metrized complex over the ring with exact, known cohomology.

    Elementary pieces (free generators, and pairs R --m--> R that leave the
    torsion module R/(m) in the upper degree) are mixed by unimodular base
    changes, so the differentials lose their block shape while the stored
    cohomology stays correct.  Returned in the CLI's complex JSON layout.

    rng picks everything that sets the cost: the multipliers, the steps of
    the base changes and the sizes of the metric entries.  signs picks only
    signs (of the multipliers, of each base-change step's element, of the
    metric entries), so complexes from one rng state and different signs
    cost the same.
    """
    cplx_places = ring.name != "zsqrt2"
    places = n_places(ring)
    _, mults = _pools(ring)
    lows, free = shape
    n_deg = len(free)
    free = list(free)
    pairs = [(i, rng.choice(mults)) for i in lows]
    pairs = [(i, m if signs.random() < 0.5 else _neg(ring, m)) for i, m in pairs]
    dims = list(free)
    for i, _ in pairs:
        dims[i] += 1
        dims[i + 1] += 1
    # Slots per degree: pair targets, pair sources, free generators.
    slot = [0] * n_deg
    src, tgt = {}, {}
    for b, (i, _) in enumerate(pairs):
        tgt[b] = slot[i + 1]
        slot[i + 1] += 1
    for b, (i, _) in enumerate(pairs):
        src[b] = slot[i]
        slot[i] += 1
    free_slot = list(slot)
    diffs = []
    for i in range(n_deg - 1):
        m = [[ring.zero() for _ in range(dims[i])] for _ in range(dims[i + 1])]
        for b, (lo, mult) in enumerate(pairs):
            if lo == i:
                m[tgt[b]][src[b]] = mult
        diffs.append(m)
    reps = []
    for i in range(n_deg):
        rep = [[ring.zero() for _ in range(free[i])] for _ in range(dims[i])]
        for j in range(free[i]):
            rep[free_slot[i] + j][j] = ring.one()
        reps.append(rep)
    bases = [_unimodular(ring, rng, dims[i], signs) for i in range(n_deg)]
    for i in range(n_deg - 1):
        diffs[i] = _matmul(ring, bases[i + 1][0], _matmul(ring, diffs[i], bases[i][1]))
    for i in range(n_deg):
        if free[i]:
            reps[i] = _matmul(ring, bases[i][0], reps[i])
    cohomology = []
    for i in range(n_deg):
        spec = {}
        if free[i]:
            spec["free_rank"] = free[i]
            spec["free_reps"] = [[Ring.strs(x) for x in row] for row in reps[i]]
            spec["free_grams"] = [_gram(rng, free[i], cplx_places, signs) for _ in range(places)]
        tors = [mult for (lo, mult) in pairs if lo + 1 == i]
        if tors:
            spec["torsion"] = [
                [Ring.strs(tors[r] if r == c else ring.zero()) for c in range(len(tors))]
                for r in range(len(tors))
            ]
        cohomology.append(spec)
    return {
        "lengths": dims,
        "diffs": [[[Ring.strs(x) for x in row] for row in m] for m in diffs],
        "grams": [[_gram(rng, dims[i], cplx_places, signs) for _ in range(places)] for i in range(n_deg)],
        "cohomology": cohomology,
    }


def scalar_complex(ring: Ring, num: int, e: int) -> dict:
    """0 -> R --(num / 10^e)--> R -> 0 with standard metrics.

    tau is 10^e / num at every place.  Around e = digits/4 the Laplacian
    eigenvalue 10^(-2e) meets the rank cutoff 10^(-digits/2).
    """
    places = n_places(ring)
    cplx_places = ring.name != "zsqrt2"
    one = [[["1", "0"]]] if cplx_places else [["1"]]
    c = [f"{num}/{10 ** e}"]
    return {
        "lengths": [1, 1],
        "diffs": [[[c]]],
        "grams": [[one] * places, [one] * places],
        "cohomology": [{}, {"torsion": [[c]]}],
        "expect_tau": f"{10 ** e}/{num}",
    }


def dd_complex(ring: Ring, a, u) -> dict:
    """0 -> R --(a, 1)^T--> R^2 --(u, -a u)--> R -> 0 over Z[sqrt 2].

    Exact d after d = 0 and H^2 = R/(u); with large coefficients the
    embedded product cancels terms of size |a u|.
    """
    places = n_places(ring)
    au = ring.mul(a, u)
    neg_au = ring.sub(ring.zero(), au)
    eye2 = [["1", "0"], ["0", "1"]]
    return {
        "lengths": [1, 2, 1],
        "diffs": [
            [[Ring.strs(a)], [Ring.strs(ring.one())]],
            [[Ring.strs(u), Ring.strs(neg_au)]],
        ],
        "grams": [[[["1"]]] * places, [eye2] * places, [[["1"]]] * places],
        "cohomology": [{}, {}, {"torsion": [[Ring.strs(u)]]}],
    }


def conditioning_slice(rng: random.Random, d: int) -> list[dict]:
    """Complexes whose entries span many orders of magnitude (known defects).

    The scalar complexes put the Laplacian eigenvalue on both sides of the
    rank cutoff; the d after d complexes need large cancellation in the
    embedded product.  Failures here are real and count in fail_frac.
    """
    ring = zsqrt2()
    ops = []
    for e in (d // 8, d // 4 - 1, d // 4, d // 4 + 1, (3 * d) // 10, (2 * d) // 5):
        data = scalar_complex(ring, rng.randint(1, 9), e)
        ops.append({"kind": "complex", "field": "zsqrt2", "tier": d, "slice": "conditioning", "data": data})
    for k in (3, 10, 20):
        a = ring.el([rng.randint(10 ** k, 2 * 10 ** k), rng.randint(1, 10 ** k)])
        u = ring.el([rng.randint(10 ** k, 2 * 10 ** k), rng.randint(1, 9)])
        ops.append({"kind": "complex", "field": "zsqrt2", "tier": d, "slice": "conditioning",
                    "data": dd_complex(ring, a, u)})
    return ops


def random_presentation(ring: Ring, rng: random.Random, size: int, signs: random.Random):
    """A size x size matrix of dense small entries, diagonally dominant so
    that its determinant has nonzero norm.  rng picks the sizes of the
    entries, signs the signs of those off the diagonal."""
    rows = [[[str(rng.randint(0, 2) * signs.choice((1, -1))) for _ in range(ring.n)] for _ in range(size)]
            for _ in range(size)]
    for i in range(size):
        rows[i][i][0] = str(rng.randint(4 * ring.n, 5 * ring.n))
    return rows




# ---------------------------------------------------------------------------
# Workload op lists.  Each seed gives one fixed list.  Every cost-bearing
# parameter (field, matrix shape, prime r, degree j, polylog order and angle
# denominator, zeta argument, Hatcher k) is fixed per op slot, so that every
# seed does the same amount of work.  Sizes were chosen so one list takes
# roughly 7-14 s on a 2-core Xeon with the pure-Python mpmath backend.
# ---------------------------------------------------------------------------


def spread(groups: list[list]) -> list:
    """Merge lists, spreading each one evenly over the result; items keep
    their order within their list."""
    keyed = [((k + 0.5) / len(g), n, item) for n, g in enumerate(groups) for k, item in enumerate(g)]
    keyed.sort(key=lambda x: x[:2])
    return [item for _, _, item in keyed]


def interleave(chunks: dict[int, list[list[dict]]]) -> list[dict]:
    """Merge per-tier lists of op chunks, spreading each tier evenly over the
    whole list.  A chunk (ops that must stay together, such as a cyclotomic
    set-up and the ops that use it) keeps its order.  Each tier's ops then
    see the same machine conditions as the rest of the run, not one stretch
    of it."""
    return [op for chunk in spread([chunks[d] for d in TIERS]) for op in chunk]


def torsion_corpus(seed: int, smoke: bool = False, label: str = "timed") -> list[dict]:
    """Seeded complexes and ring ops.  What sets an op's cost comes from a
    generator fixed per op slot; the seed picks signs and the conditioning
    slice's scalars, so every seed costs the same."""
    rng = rng_for("torsion-corpus", seed, label)

    def cost(*slot):
        return rng_for("torsion-corpus", "cost", ":".join(map(str, (label,) + slot)))
    # (field, count) per tier; ring ops use larger cyclotomic rings.
    plan = {
        50: [("zsqrt2", 9), ("zeta5", 6), ("zeta7", 6), ("zeta11", 3)],
        300: [("zsqrt2", 6), ("zeta5", 6), ("zeta7", 3), ("zeta11", 3)],
        1000: [("zsqrt2", 3), ("zeta5", 3), ("zeta7", 3)],
    }
    ring_plan = {
        50: {"lattice": [23, 17], "pres": [("zeta13", 6), ("zeta11", 5)]},
        300: {"lattice": [13], "pres": [("zeta7", 6), ("zeta11", 4)]},
        1000: {"lattice": [7], "pres": [("zeta5", 6)]},
    }
    if smoke:
        plan = {d: [(f, 1) for f, _ in plan[d][:2]] for d in TIERS}
        ring_plan = {d: {"lattice": ring_plan[d]["lattice"][-1:], "pres": ring_plan[d]["pres"][:1]}
                     for d in TIERS}
    chunks = {}
    for d in TIERS:
        ops = []
        for name, count in plan[d]:
            ring = ring_of(name)
            for k in range(count):
                data = random_complex(ring, cost(d, name, k), SHAPES[k % len(SHAPES)], rng)
                ops.append({"kind": "complex", "field": name, "tier": d, "data": data})
        ring_ops = [{"kind": "unit-lattice", "field": f"zeta{p}", "tier": d,
                     "units": descriptor(cyclotomic(p))["units"]} for p in ring_plan[d]["lattice"]]
        for name, size in ring_plan[d]["pres"]:
            ring_ops.append({"kind": "presentation", "field": name, "tier": d,
                             "rows": random_presentation(ring_of(name), cost(d, name, size), size, rng)})
        slice_ops = conditioning_slice(rng, d)
        chunks[d] = [[op] for op in spread([ops, ring_ops, slice_ops[::3] if smoke else slice_ops])]
    return interleave(chunks)


def corpus_fields(ops) -> dict[tuple[str, int], bool]:
    """{(field name, digits): whether a unit lattice is needed} for set-up."""
    need = {}
    for op in ops:
        key = (op["field"], op["tier"])
        need[key] = need.get(key, False) or op["kind"] != "unit-lattice"
    return need


def ring_of(name: str) -> Ring:
    return zsqrt2() if name == "zsqrt2" else cyclotomic(int(name[4:]))


def _angle(rng: random.Random, q: int) -> str:
    """theta / 2 pi = 1/q or (q-1)/q: conjugate angles, the same cost."""
    return f"{rng.choice((1, q - 1))}/{q}"


def circle_ladder(seed: int, smoke: bool = False) -> list[dict]:
    """In-process circle-bundle and polylog calls.  Arguments use the names
    of the matching CLI flags, so one checker serves both."""
    rng = rng_for("circle-ladder", seed, "timed")
    ladders = {d: [] for d in TIERS}
    chunks = {d: [] for d in TIERS}

    def ladder(r, d, jmax, j=0):
        ops = [{"kind": "cyclotomic-setup", "tier": d, "r": r},
               {"kind": "circle-torsion", "tier": d, "r": r, "jmax": jmax}]
        if j:
            ops.append({"kind": "u-coeff", "tier": d, "r": r, "j": j})
            ops.append({"kind": "regulator-check", "tier": d, "r": r, "j": j})
        ops.append({"kind": "cheeger-muller", "tier": d, "r": r})
        ladders[d].append(ops)

    # 50 digits: the large cyclotomic rings, where Aberth root finding leads.
    for r, jmax, j in ([(7, 4, 2), (31, 2, 1)] if smoke else [(31, 2, 1), (23, 2, 2), (11, 4, 3)]):
        ladder(r, 50, jmax, j)
    # 300 and 1000 digits: every coefficient where theta = 2 pi/3 keeps the
    # series inside the warm Bernoulli range, degree 0 (closed form) elsewhere.
    ladder(3, 300, 4, 3)
    for r in ([11] if smoke else [11, 13]):
        ladder(r, 300, 0)
    for r in ([3] if smoke else [3, 5, 7]):
        ladder(r, 1000, 0)
    # (order n, angle denominator q) per polylog slot, zeta arguments, Hatcher k.
    series = {
        50: ([(2, 5), (3, 7), (4, 9), (6, 7)], [3, 7], [1, 4]),
        300: ([(2, 4), (3, 5), (4, 4), (5, 5)], [3, 9], [2, 4]),
        1000: ([(2, 40), (3, 40), (4, 40), (5, 40)], [3, 9], [2, 4]),
    }
    for d in TIERS:
        logs, zetas, ks = series[d]
        if smoke:
            logs, zetas, ks = logs[:1], zetas[:1], ks[:1]
        for n, q in logs:
            chunks[d].append([{"kind": "polylog", "tier": d, "n": n, "theta_over_2pi": _angle(rng, q)}])
        for s, k in zip(zetas, ks):
            chunks[d].append([{"kind": "zeta", "tier": d, "s": s}])
            chunks[d].append([{"kind": "hatcher", "tier": d, "k": k}])
    # Bernoulli lookups inside the warm range, one per tier; a lookup costs
    # the same for every index.
    for d, lo, hi in ((50, 20, 120), (300, 200, 400), (1000, 400, 600)):
        chunks[d].append([{"kind": "bernoulli", "tier": d, "m": 2 * rng.randint(lo // 2, hi // 2)}])
    return interleave({d: spread([ladders[d], chunks[d]]) for d in TIERS})


def circle_warmup() -> list[dict]:
    """Inputs no timed op uses that fill the same coefficient caches.

    theta/2pi = 17/50 at 300 digits needs slightly more Bernoulli numbers
    than any timed series (theta/2pi <= 1/3 at 300 digits, 1/40 at 1000
    digits), and zeta(11) more than any timed zeta or Hatcher constant.
    """
    return [
        {"kind": "polylog", "tier": 300, "n": 2, "theta_over_2pi": "17/50"},
        {"kind": "polylog", "tier": 1000, "n": 2, "theta_over_2pi": "1/39"},
        {"kind": "zeta", "tier": 1000, "s": 11},
        {"kind": "zeta", "tier": 300, "s": 11},
        {"kind": "cyclotomic-setup", "tier": 50, "r": 5},
        {"kind": "circle-torsion", "tier": 50, "r": 5, "jmax": 2},
        {"kind": "cheeger-muller", "tier": 50, "r": 5},
        {"kind": "hatcher", "tier": 50, "k": 5},
    ]


def cli_cold(seed: int, smoke: bool = False) -> list[dict]:
    """argv lists for fresh `python -m regtor.cli` processes.

    Field arguments name descriptor files written during set-up: "@zsqrt2"
    and "@zeta5" are replaced by their paths.
    """
    rng = rng_for("cli-cold", seed, "timed")
    ring = zsqrt2()

    def js(x):
        return json.dumps(x)

    def elem():
        return [str(rng.randint(2, 9)), str(rng.randint(1, 3))]

    def unit():
        u = ring.one()
        for _ in range(rng.randint(1, 4)):
            u = ring.mul(u, ring.el([1, 1]))  # (1 + sqrt 2)^k
        return js(Ring.strs(u))

    def pres():
        return js([[f"{rng.randint(3, 9)}/1", "1/1"]])

    def scalar_cx(c):
        return js({"lengths": [1, 1], "diffs": [[[c]]], "grams": [[[["1"]], [["1"]]], [[["1"]], [["1"]]]],
                   "cohomology": [{}, {"torsion": [[c]]}]})

    def normalize():
        # normalize parses --value at double precision, so only values exact
        # in binary can be checked to the requested digits.
        frm, to = rng.sample(("bl", "chern", "igusa", "borel"), 2)
        return ["normalize", "--j", str(rng.randint(1, 5)), "--value", str(rng.randint(1, 999) / 64),
                "--from", frm, "--to", to]

    def every_subcommand():
        x = f"{rng.randint(1, 9)}/{rng.randint(2, 9)}"
        t = f"{rng.randint(1, 9)}/{rng.randint(10, 20)}"
        return [
            ["field-info", "--field", "@zeta5"],
            ["unit-log", "--field", "@zsqrt2", "--unit", unit()],
            ["lattice", "--field", "@zeta5"],
            ["reduce", "--field", "@zsqrt2", "--form", js([x, "-" + x])],
            ["cycl", "--field", "@zsqrt2", "--grams", js([_gram(rng, 2, False, rng), _gram(rng, 2, False, rng)])],
            ["scale", "--field", "@zsqrt2",
             "--point", js({"rank": 1, "cls": [], "torus": {"sigma_0": "-" + t, "sigma_1": t}}),
             "--lambdas", js([str(rng.randint(2, 9)), str(rng.randint(2, 9))])],
            ["zhat", "--field", "@zsqrt2", "--pres", pres()],
            ["rtorsion", "--field", "@zsqrt2", "--complex", scalar_cx(elem())],
            ["euler-check", "--field", "@zsqrt2", "--complex", scalar_cx([str(rng.randint(2, 9))])],
            ["polylog", "--n", "3", "--theta-over-2pi", _angle(rng, 7)],
            ["zeta", "--s", "5"],
            ["bernoulli", "--m", "80"],
            ["beta-check", "--j", "4"],
            ["circle-torsion", "--r", "7", "--jmax", "4"],
            ["u-coeff", "--r", "7", "--j", "3"],
            ["regulator-check", "--r", "7", "--j", "3"],
            ["cheeger-muller", "--r", "7"],
            ["borel-dims", "--field", "@zsqrt2", "--imax", str(rng.randint(9, 17))],
            normalize(),
            ["hatcher", "--k", "2"],
        ]

    tiers = {
        # 50 digits: every subcommand, README examples with seeded arguments.
        50: every_subcommand(),
        # 300 and 1000 digits: the cold Bernoulli fill dominates polylog,
        # zeta and hatcher.
        300: [
            ["field-info", "--field", "@zeta5"],
            ["unit-log", "--field", "@zsqrt2", "--unit", unit()],
            ["rtorsion", "--field", "@zsqrt2", "--complex", scalar_cx(elem())],
            ["polylog", "--n", "3", "--theta-over-2pi", _angle(rng, 8)],
            ["zeta", "--s", "5"],
            ["hatcher", "--k", "3"],
        ],
        1000: [
            ["zhat", "--field", "@zsqrt2", "--pres", pres()],
            normalize(),
            ["cheeger-muller", "--r", "3"],
            ["zeta", "--s", "3"],
            ["polylog", "--n", "2", "--theta-over-2pi", _angle(rng, 40)],
        ],
    }
    if smoke:
        tiers = {50: tiers[50][:4] + tiers[50][9:11], 300: tiers[300][:2] + tiers[300][4:5],
                 1000: tiers[1000][:2] + tiers[1000][3:4]}
    return interleave({d: [[{"kind": "cli", "tier": d, "argv": argv + ["--digits", str(d)]}] for argv in tiers[d]]
                       for d in TIERS})


def op_list(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    if workload == "cli-cold":
        return cli_cold(seed, smoke)
    if workload == "circle-ladder":
        return circle_ladder(seed, smoke)
    if workload == "torsion-corpus":
        return torsion_corpus(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")
