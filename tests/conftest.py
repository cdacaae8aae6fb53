import itertools
import os
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ccode3d import codes, linalg, ring3d
from ccode3d.gf import InputError
from ccode3d.poly import Poly, _monic_candidates, binomial_cosets

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


def shift_words(params, words, axis: str) -> np.ndarray:
    """The constacyclic shift along one axis of every row of a stack of
    flattened words; row by row equal to unflatten(...).shift(axis).flatten().
    The oracle of the closure's shifts in the CRT basis (codes._crt_times)."""
    tensors = ring3d._to_tensors(params, np.asarray(words, dtype=np.int64) % params.field.p)
    return ring3d._to_words(params, ring3d._monomial_shift(tensors, params,
                                                           *ring3d._UNIT_STEPS[axis]))


def int64_closure(code, parity) -> dict[str, bool]:
    """The closure verdicts from the int64 products shift(G) * parity^T over
    all n columns: the oracle of codes.quasi_twisted_closure."""
    ring, p = code.ring, code.ring.field.p
    return {axis: not linalg.matmul(shift_words(ring, code.generator_matrix, axis),
                                    np.asarray(parity).T, p).any()
            for axis in ring3d.AXES}


def identity_report_loop(fam) -> dict[str, bool]:
    """The defining identities of an idempotent family checked with one
    polynomial product per pair of members: the oracle of
    idempotents.identity_report."""
    field = fam.field
    modulus = fam.modulus()
    total = Poly.zero(field)
    for m in fam.members:
        total = total + m
    report = {"completeness": (total % modulus) == Poly.one(field)}
    ortho = True
    for t, a in enumerate(fam.members):
        for u, b in enumerate(fam.members):
            ortho &= ((a * b) % modulus) == (a if t == u else Poly.zero(field))
    report["orthogonality"] = ortho
    deltas = True
    for t, m in enumerate(fam.members):
        for u in range(fam.size):
            deltas &= m.evaluate(fam.roots[u]) == (1 if t == u else 0)
    report["root_evaluations"] = deltas
    eigen = True
    z = Poly.x_power(field, 1)
    for t, m in enumerate(fam.members):
        eigen &= ((z * m) % modulus) == m.scale(fam.roots[t])
    report["shift_eigenvalue"] = eigen
    return report


def corrupted_family(fam, row: int, values):
    """The family with row `row` of its coefficient matrix E replaced by
    values (reduced mod p), its roots kept."""
    from ccode3d.idempotents import IdempotentFamily

    coefficients = fam.coefficients.copy()
    coefficients[row] = np.asarray(values) % fam.field.p
    coefficients.setflags(write=False)
    return IdempotentFamily(fam.field, fam.roots, coefficients)


def install_wrong_z_family(monkeypatch, fault: str):
    """Make codes and cli see a z-family with its members 0 and 1 swapped
    against their roots ("swapped"), or with member 0 replaced by e_0 + e_1
    ("merged"), each made by corrupting the family's coefficient matrix E,
    and give codes._cell_tensors a cache of its own, dropped after the test."""
    import functools

    from ccode3d import cli

    code_idempotents = codes.code_idempotents

    def wrong_idempotents(ring):
        z, y = code_idempotents(ring)
        e = z.coefficients
        if fault == "swapped":
            return corrupted_family(corrupted_family(z, 0, e[1]), 1, e[0]), y
        return corrupted_family(z, 0, e[0] + e[1]), y

    for module in (codes, cli):
        monkeypatch.setattr(module, "code_idempotents", wrong_idempotents)
    monkeypatch.setattr(codes, "_cell_tensors",
                        functools.lru_cache(maxsize=None)(codes._cell_tensors.__wrapped__))


BRUTE_FORCE_LIMIT = 10**7


class SearchBudgetError(InputError):
    """The requested enumeration exceeds the allowed candidate count."""


def min_distance_bruteforce(code: codes.BuiltCode, limit: int = BRUTE_FORCE_LIMIT) -> int:
    """Minimum nonzero codeword weight by enumerating all messages.

    Refuses when q**dimension exceeds ``limit``; intended as an independent
    oracle for the syndrome search on small codes.
    """
    if code.dimension < 1:
        raise ValueError("a zero-dimensional code has no nonzero codeword")
    p = code.ring.field.p
    dim = code.dimension
    count = p**dim
    if count > limit:
        raise SearchBudgetError(f"{p}^{dim} = {count} codewords exceeds the limit {limit}")
    G = code.generator_matrix
    radices = np.array([p**c for c in range(dim)], dtype=np.int64)
    best = code.n + 1
    chunk = 1 << 14
    for start in range(1, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.int64)
        msgs = (idx[:, None] // radices[None, :]) % p
        words = (msgs @ G) % p
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


def annihilator_orthogonality_flags(params, f, g) -> tuple[np.ndarray, np.ndarray]:
    """The bridge between ring annihilators and Euclidean duality on any
    ring, split moduli or not, over two (P, s, l, k) stacks of canonical
    tensors: the boolean arrays (f[u]*g[u] == 0, shift-orbit orthogonality
    of f[u] and g[u]) for every u, which the bridge says agree.  The
    products come from one ring3d.ring_products call, looked up at call
    time, and the orbit side is ring3d.shift_orbit_orthogonal_flags."""
    f = np.asarray(f, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    zero = ~ring3d.ring_products(params, f, g).reshape(len(f), params.n).any(axis=1)
    return zero, ring3d.shift_orbit_orthogonal_flags(params, f, g)


def reciprocal_index(k: int, t: int, *, constant_is_one: bool) -> int:
    """The closed-form pairing: the index of the idempotent proportional to
    the coefficient reversal of member t, for constant +1 or -1.

    For constant 1 the map is (k-2-t) mod k: index k-1 (the idempotent at the
    root 1) is self-paired, the rest pair across it.  For constant -1 the map
    is k-1-t.  The oracle of IdempotentFamily.reversal and codes.cell_partners.
    """
    if not 0 <= t < k:
        raise IndexError(f"index {t} out of range for family of size {k}")
    if constant_is_one:
        return (k - 2 - t) % k
    return k - 1 - t


def reciprocal_cell(ring, t: int, j: int) -> tuple[int, int]:
    """The closed-form partner of cell (t, j) over a +-1 sign ring."""
    return (reciprocal_index(ring.k, t, constant_is_one=(ring.gamma == 1)),
            reciprocal_index(ring.l, j, constant_is_one=(ring.beta == 1)))


def dual_spec(spec):
    """The dual code as a divisor-grid spec over the same +-1 sign ring: the
    cell paired with (t, j) by reciprocal_cell, not by codes.cell_partners,
    holds the monic associate of reciprocal((x^s - alpha) / p[t][j])."""
    ring = spec.ring
    assert {ring.alpha, ring.beta, ring.gamma} <= {1, ring.field.p - 1}
    binom = Poly.binomial(ring.field, ring.s, ring.alpha)
    grid = [[None] * ring.l for _ in range(ring.k)]
    for t, row in enumerate(spec.divisor_grid):
        for j, p in enumerate(row):
            t2, j2 = reciprocal_cell(ring, t, j)
            grid[t2][j2] = (binom // p).reciprocal()
    return codes.CodeSpec(ring, tuple(tuple(row) for row in grid))


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


def reference_trial_candidates(field, s: int, alpha: int) -> int:
    """The monic candidates reference_factor_binomial's degree loop tries on
    x**s - alpha at most, counted from cosets: the loop enters degree d while
    d <= D_d // 2, D_d being the total degree of the factors of degree >= d,
    and tries the q^d candidates of each degree it enters."""
    power, _, cosets = binomial_cosets(field, s, alpha)
    count, d = 0, 1
    while d <= power * sum(len(c) for c in cosets if len(c) >= d) // 2:
        count += field.p ** d
        d += 1
    return count


def reference_factor_binomial(field, s: int, alpha: int) -> list[tuple[Poly, int]]:
    """The factors of x**s - alpha, with multiplicities, by trial division of
    every degree up to half of what remains, each candidate divided out as
    often as it goes: the oracle of poly.factor_binomial, sorted the same way."""
    alpha = field.canon(alpha)
    if s < 1:
        raise InputError(f"exponent must be positive, got {s}")
    if alpha == 0:
        raise InputError("constant must be nonzero")
    remaining = Poly.binomial(field, s, alpha)
    factors: list[tuple[Poly, int]] = []
    degree = 1
    while remaining.degree >= 1:
        if degree > remaining.degree // 2:
            factors.append((remaining.monic(), 1))
            break
        for cand in _monic_candidates(field, degree):
            mult = 0
            while remaining.degree >= degree:
                quo, rem = divmod(remaining, cand)
                if not rem.is_zero():
                    break
                remaining = quo
                mult += 1
            if mult:
                factors.append((cand, mult))
            if remaining.degree < 2 * degree:
                break
        degree += 1
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return factors
