import itertools
import os
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ccode3d import codes, linalg

settings.register_profile(
    "repro",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

SEED = int(os.environ.get("CCODE_SEED", "20260810"))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


def row_space_equal(a, b, p: int) -> bool:
    """Compare row spaces via their canonical reduced echelon forms: the
    kernel oracle of the rank-complement rule that verify and the sweep use."""
    ra, rka, _ = linalg.rref(a, p)
    rb, rkb, _ = linalg.rref(b, p)
    if rka != rkb or ra.shape[1] != rb.shape[1]:
        return False
    return np.array_equal(ra[:rka], rb[:rkb])


def monic_indices(divisors, polys) -> np.ndarray:
    """The index in divisors of monic(f) for every f of polys, or -1 where
    monic(f) is not one of them."""
    index = {d: i for i, d in enumerate(divisors)}
    return np.array([index.get(f.monic(), -1) for f in polys], dtype=np.intp)


def self_reciprocal_count(field, s: int, alpha: int) -> int:
    """The number of monic divisors d of x^s - alpha with monic(q*) = d,
    by a walk over the divisor table: the oracle of the coset count."""
    divisors = codes.binomial_divisors(field, s, alpha)
    q_stars = [codes._reversed_complement(field, s, alpha, d) for d in divisors]
    return int((monic_indices(divisors, q_stars) == np.arange(len(divisors))).sum())


def enumerate_divisor_grids(ring):
    """Every divisor-grid spec over the ring, in lexicographic grid order:
    itertools.product over binomial_divisors, the first cell most significant."""
    divisors = codes.binomial_divisors(ring.field, ring.s, ring.alpha)
    for combo in itertools.product(divisors, repeat=ring.k * ring.l):
        grid = tuple(tuple(combo[t * ring.l + j] for j in range(ring.l)) for t in range(ring.k))
        yield codes.CodeSpec(ring, grid)


def per_spec_sweep_report(field, s, l, k) -> dict:
    """The sweep report spec by spec, each check on one matrix: the oracle
    of the stacked checks.  It calls build_code, build_dual and
    self_dual_decide through the codes module, so a fault installed in a
    function that they and the sweep share reaches both."""
    p = field.p
    report = {
        "q": p, "s": s, "l": l, "k": k,
        "specs": 0, "self_dual": 0,
        "rank_mismatches": 0, "orthogonality_failures": 0,
        "kernel_mismatches": 0, "verdict_disagreements": 0,
        "rings": [],
    }
    for ring in codes.admissible_sign_rings(field, s, l, k):
        report["rings"].append({"alpha": ring.alpha, "beta": ring.beta, "gamma": ring.gamma})
        for spec in enumerate_divisor_grids(ring):
            report["specs"] += 1
            code = codes.build_code(spec)
            dual = codes.build_dual(spec)
            kernel = linalg.null_space(code.generator_matrix, p)
            if kernel.shape[0] != ring.n - code.dimension:
                report["rank_mismatches"] += 1
            if linalg.matmul(code.generator_matrix, dual.generator_matrix.T, p).any():
                report["orthogonality_failures"] += 1
            if not row_space_equal(dual.generator_matrix, kernel, p):
                report["kernel_mismatches"] += 1
            verdict, _ = codes.self_dual_decide(spec)
            gg = linalg.matmul(code.generator_matrix, code.generator_matrix.T, p)
            if verdict != (not gg.any() and 2 * code.dimension == ring.n):
                report["verdict_disagreements"] += 1
            if verdict:
                report["self_dual"] += 1
    return report
