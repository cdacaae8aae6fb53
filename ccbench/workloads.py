"""Seeded inputs for the three workloads.

Every workload is a fixed list of operations made from the seed: a fixed
multiset of operations (divisor grids drawn once from a fixed stream for
construct, parameter tuples for sweep, pool codes for mindist) in an order
set by the seed, so runs with different seeds do the same work and host
slowdowns fall on all kinds alike.  A seed that also chose the grids moved
op_p50_s of construct by up to 30% between seeds on its own.  Inputs are plain JSON spec
dicts; generation uses only the checker's arithmetic, never ccode3d.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from . import checker

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_distances.json"

# --- divisors of x^s - alpha -----------------------------------------------


def divisor_blocks(s: int, alpha: int, q: int) -> list[list[int]]:
    """Coprime monic blocks whose product is x^s - alpha.

    Irreducible factors of degree 1 and 2 are found by trial division; what
    is left is kept as one block.  Products of subsets of the blocks are
    divisors, and the set is closed under p -> monic(reverse((x^s - alpha)/p)),
    which is what the self-dual grids below need.
    """
    rest = checker.binomial(s, alpha, q)
    blocks = []
    for deg in (1, 2):
        for tail in itertools.product(range(q), repeat=deg):
            cand = list(tail) + [1]
            while len(rest) - 1 >= deg:
                quo, rem = checker.pdivmod(rest, cand, q)
                if rem:
                    break
                blocks.append(cand)
                rest = quo
    if len(rest) > 1:
        blocks.append(checker.monic(rest, q))
    return blocks


def divisors(s: int, alpha: int, q: int) -> list[list[int]]:
    out = []
    blocks = divisor_blocks(s, alpha, q)
    for mask in range(1 << len(blocks)):
        d = [1]
        for b, block in enumerate(blocks):
            if mask >> b & 1:
                d = checker.pmul(d, block, q)
        out.append(d)
    return out


def spec_dict(ring: tuple, grid) -> dict:
    q, s, l, k, alpha, beta, gamma = ring
    return {"q": q, "s": s, "l": l, "k": k, "alpha": alpha, "beta": beta,
            "gamma": gamma, "p": [[list(c) for c in row] for row in grid]}


def canonical(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


# --- construct ---------------------------------------------------------------

# (q, s, l, k, alpha, beta, gamma), n = s*l*k from 16 to 144.  Dimensions are
# kept in a band because quasi_twisted_closure costs about dim^3 row
# operations: at n = 144 a grid of dimension 63 takes 5 s per build.
UNIT_RINGS = [
    ((5, 4, 2, 2, 1, 1, 4), (4, 12)),      # n = 16, gamma = -1: self-dual grids exist
    ((13, 6, 2, 2, 12, 1, 12), (6, 16)),   # n = 24
    ((7, 6, 3, 2, 1, 1, 1), (8, 20)),      # n = 36
    ((5, 6, 2, 4, 4, 4, 1), (10, 22)),     # n = 48
    ((13, 6, 3, 4, 1, 12, 1), (10, 22)),   # n = 72
    ((5, 12, 4, 2, 1, 1, 4), (12, 24)),    # n = 96
    ((13, 12, 2, 6, 1, 1, 12), (12, 24)),  # n = 144
]
NONUNIT_RINGS = [
    ((7, 3, 2, 3, 3, 2, 6), (4, 12)),      # n = 18
    ((7, 6, 2, 2, 3, 2, 4), (6, 16)),      # n = 24
    ((5, 9, 4, 1, 2, 1, 3), (8, 20)),      # n = 36
    ((13, 4, 4, 3, 2, 3, 5), (10, 22)),    # n = 48
    ((13, 8, 4, 3, 4, 9, 5), (12, 24)),    # n = 96
    ((13, 12, 4, 3, 6, 3, 8), (12, 24)),   # n = 144
]
# operations per ring and round
UNIT_MIX = {"build": 6, "verify": 4, "dual": 4, "selfdual": 6}
NONUNIT_MIX = {"build": 6, "verify": 4}


def _grid_of_dimension(rng: random.Random, ring: tuple, dim: int):
    """A random grid whose code has dimension dim, or the nearest reachable."""
    q, s, l, k, alpha = ring[:5]
    divs = divisors(s, alpha, q)
    best = None
    for _ in range(400):
        left = dim                      # dimension still to hand out
        cells = []
        for _ in range(l * k):
            p = rng.choice([d for d in divs if s - (len(d) - 1) <= left])
            left -= s - (len(p) - 1)
            cells.append(p)
        rng.shuffle(cells)
        grid = [cells[t * l:(t + 1) * l] for t in range(k)]
        if left == 0:
            return grid
        if best is None or left < best[0]:
            best = (left, grid)
    return best[1]


def _band_dims(band: tuple[int, int], count: int) -> list[int]:
    """count dimensions spread evenly over the band, ends included."""
    lo, hi = band
    return [lo + round(i * (hi - lo) / max(count - 1, 1)) for i in range(count)]


def _partner(m: int, const: int, t: int) -> int:
    """Index of the idempotent that the coefficient reversal of member t is
    proportional to, for const = +1 or -1."""
    return (m - 2 - t) % m if const == 1 else m - 1 - t


def _self_dual_grid(rng: random.Random, ring: tuple):
    """A grid whose code is self-dual: each cell of a pair free, its partner
    the monic reversal of the complement.  Needs no self-paired cell, which
    gamma = -1 with k even guarantees."""
    q, s, l, k, alpha, beta, gamma = ring
    binom = checker.binomial(s, alpha, q)
    divs = divisors(s, alpha, q)
    grid = [[None] * l for _ in range(k)]
    for t in range(k):
        for j in range(l):
            if grid[t][j] is not None:
                continue
            t2, j2 = _partner(k, gamma, t), _partner(l, beta, j)
            p = rng.choice(divs)
            grid[t][j] = p
            grid[t2][j2] = checker.monic(checker.pdivmod(binom, p, q)[0][::-1], q)
    return grid


def construct_ops(seed: int) -> list[dict]:
    """Every ring runs each kind a fixed number of times at fixed dimensions
    spread over its band.  The grids come from a fixed stream, so every seed
    runs the same multiset of specs (grids of equal dimension still differ
    in cost, verify by up to 2x at n = 144); the seed sets the order."""
    grids = random.Random("construct-grids")
    ops = []
    for rings, mix in ((UNIT_RINGS, UNIT_MIX), (NONUNIT_RINGS, NONUNIT_MIX)):
        for ring, band in rings:
            q, _, _, k, _, _, gamma = ring
            for kind, count in mix.items():
                for i, dim in enumerate(_band_dims(band, count)):
                    if kind == "selfdual" and i % 2 == 0 and gamma == q - 1 and k % 2 == 0:
                        grid = _self_dual_grid(grids, ring)
                    else:
                        grid = _grid_of_dimension(grids, ring, dim)
                    ops.append({"kind": kind, "spec": spec_dict(ring, grid)})
    random.Random(f"construct-{seed}").shuffle(ops)
    return ops


# --- sweep -------------------------------------------------------------------

# sweep operations per round: (kind, args, repetitions), all with
# gcd(s, q) = 1.  The multiset is fixed and the seed sets the order.  The
# tiers are sized so that op_p50_s falls in the middle of 30 grid sweeps of
# about 0.08 s each and op_p90_s among 18 operations of 0.8-1.5 s, where a
# slow operation or two moves the percentile little.
_CHEAP = [(5, 1, 1, 1), (7, 2, 1, 1), (5, 2, 1, 1), (13, 2, 1, 1), (5, 3, 1, 1),
          (7, 4, 1, 1), (7, 2, 1, 2), (7, 2, 2, 1), (13, 3, 1, 1), (13, 5, 1, 1)]
_MIDDLE = [(5, 2, 2, 1), (13, 2, 2, 1), (5, 6, 1, 1)]
_UPPER = [(5, 2, 1, 2), (5, 3, 1, 2), (13, 7, 1, 1), (5, 3, 2, 1), (7, 8, 1, 1),
          (7, 6, 1, 1), (5, 8, 1, 1)]
SWEEP_MIX = (
    [("grid", t, 4) for t in _CHEAP]                         # 40 ops, 0.01-0.04 s
    + [("grid", t, 10) for t in _MIDDLE]                     # 30 ops, about 0.08 s
    + [("grid", t, 2) for t in _UPPER]                       # 14 ops, 0.09-0.3 s
    + [("no-selfdual", ((5, 7, 13), 6, 2, 2), 2),            # x^11 - 1 over F_5 has two
       ("no-selfdual", ((5,), 11, 1, 1), 2)]                 # quintic factors
    + [("no-selfdual", ((7, 13), 9, 3, 3), 7),               # 18 ops, 0.8-1.5 s
       ("no-selfdual", ((5,), 12, 2, 2), 5),
       ("grid", (5, 4, 2, 1), 3),                            # 1088 specs
       ("no-selfdual", ((13,), 10, 2, 2), 3)]
)


def sweep_ops(seed: int) -> list[dict]:
    ops = []
    for mode, args, reps in SWEEP_MIX:
        if mode == "grid":
            q, s, l, k = args
            op = {"kind": "sweep-grid", "args": {"q": q, "s": s, "l": l, "k": k}}
        else:
            qs, s, l, k = args
            op = {"kind": "sweep-no-selfdual", "args": {"q": list(qs), "s": s, "l": l, "k": k}}
        ops += [op] * reps
    random.Random(f"sweep-{seed}").shuffle(ops)
    return ops


# --- mindist -----------------------------------------------------------------

# candidate rings for the distance pool: (q, s, l, k, alpha, beta, gamma),
# n = 16..36, unit and non-unit constants
MINDIST_RINGS = [
    (5, 4, 2, 2, 1, 1, 4), (5, 6, 2, 2, 2, 1, 4), (5, 6, 1, 4, 1, 1, 1),
    (5, 12, 2, 1, 1, 4, 1), (5, 8, 4, 1, 3, 1, 1), (5, 9, 4, 1, 2, 1, 3),
    (7, 3, 2, 3, 3, 2, 6), (7, 6, 2, 2, 1, 2, 4), (7, 4, 2, 3, 1, 1, 1),
    (7, 8, 1, 3, 2, 1, 1), (7, 4, 3, 2, 1, 6, 1), (7, 6, 2, 3, 5, 1, 6),
    (7, 5, 6, 1, 3, 1, 1), (7, 10, 3, 1, 1, 1, 1),
    (13, 4, 2, 2, 1, 1, 12), (13, 6, 2, 2, 12, 1, 12), (13, 4, 4, 1, 2, 1, 1),
    (13, 3, 3, 2, 1, 12, 1), (13, 6, 1, 4, 2, 1, 3), (13, 8, 3, 1, 1, 1, 1),
    (13, 6, 6, 1, 4, 1, 1), (13, 12, 3, 1, 2, 1, 1),
]
DEFAULT_BUDGET = 10**8          # the mindist command's default candidate cap
# The pool is split into cost tiers by the estimated search time of
# search_cost(); each round runs every code of a tier equally often, in a
# seeded order.  op_p50_s then falls in the middle of the "middle" tier
# (d = 4 codes of about 0.1 s) and op_p90_s in the middle of the "top" tier
# (d = 5 codes of about 0.6 s).
MINDIST_TIERS = {            # tier: (codes per q kept in the pool, ops per round)
    "cheap": (4, 32),        # d = 2 and 3, and d = 4 under 0.06 s estimated
    "middle": (2, 30),       # d = 4, 0.08-0.2 s estimated
    "upper": (2, 18),        # d = 4, 0.2-0.8 s estimated
    "top": (3, 20),          # d = 5, up to 0.8 s estimated
}
MAX_OP_SECONDS = 0.8


def tier_of(d: int, seconds: float) -> str | None:
    if d == 5:
        return "top"
    if d < 4 or seconds < 0.06:
        return "cheap"
    if 0.08 <= seconds <= 0.2:
        return "middle"
    return "upper" if seconds > 0.2 else None


def search_cost(n: int, q: int, d: int) -> tuple[int, float]:
    """(candidates charged, estimated seconds) of an increasing-weight
    syndrome search that ends at weight d.  The time model, per support and
    per coefficient pattern, was fitted on a 2-vCPU x86 VM."""
    from math import comb
    charged = sum(comb(n, w) * (q - 1) ** (w - 1) for w in range(1, d + 1))
    seconds = sum(comb(n, w) * (8e-6 + 6e-9 * w * (q - 1) ** (w - 1)) for w in range(1, d + 1))
    return charged, seconds


def mindist_candidates(per_ring: int = 40):
    """Deterministic candidate specs for the reference pool."""
    rng = random.Random("mindist-pool")
    for ring in MINDIST_RINGS:
        q, s, l, k, alpha = ring[:5]
        divs = divisors(s, alpha, q)
        n = s * l * k
        for _ in range(per_ring):
            grid = [[rng.choice(divs) for _ in range(l)] for _ in range(k)]
            dim = n - sum(len(c) - 1 for row in grid for c in row)
            if 1 <= dim < n:
                yield spec_dict(ring, grid)


def load_reference() -> list[dict]:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)["codes"]


def mindist_ops(seed: int, pool: list[dict]) -> list[dict]:
    rng = random.Random(f"mindist-{seed}")
    ops = []
    for tier, (_, count) in MINDIST_TIERS.items():
        entries = [e for e in pool if e["tier"] == tier]
        chosen = entries * (count // len(entries)) + rng.sample(entries, count % len(entries))
        ops += [{"kind": "mindist", "spec": e["spec"], "d": e["d"]} for e in chosen]
    rng.shuffle(ops)
    return ops


# warm-up inputs for set-up: the first call of each operation kind
WARMUP_SPEC = spec_dict((5, 2, 2, 2, 1, 4, 4), [[[4, 1], [1, 1]], [[4, 1], [1, 1]]])
WARMUP_OPS = {
    "construct": [{"kind": kind, "spec": WARMUP_SPEC} for kind in UNIT_MIX],
    "sweep": [{"kind": "sweep-grid", "args": {"q": 5, "s": 1, "l": 1, "k": 1}},
              {"kind": "sweep-no-selfdual", "args": {"q": [5], "s": 2, "l": 1, "k": 1}}],
    "mindist": [{"kind": "mindist", "spec": WARMUP_SPEC}],
}


def make_ops(workload: str, seed: int) -> list[dict]:
    if workload == "construct":
        return construct_ops(seed)
    if workload == "sweep":
        return sweep_ops(seed)
    return mindist_ops(seed, load_reference())
