import itertools
import math
import random

import numpy as np
import pytest

from ccode3d import distance, linalg
from ccode3d.codes import BuiltCode, CodeSpec, binomial_divisors, build_code, build_dual
from ccode3d.distance import DEFAULT_BUDGET, DistanceResult, min_distance
from ccode3d.gf import FieldSpec
from ccode3d.poly import Poly
from ccode3d.ring3d import RingParams

from conftest import SearchBudgetError, min_distance_bruteforce

F5 = FieldSpec(5)
F7 = FieldSpec(7)


def example1_spec():
    ring = RingParams(F5, 2, 2, 2, 1, -1, -1)
    xm, xp = Poly.from_coeffs(F5, [-1, 1]), Poly.from_coeffs(F5, [1, 1])
    return CodeSpec(ring, ((xm, xp), (xm, xp)))


def example1_code():
    return build_code(example1_spec())


def example2_code():
    ring = RingParams(F7, 2, 2, 3, 1, 1, -1)
    xm, xp = Poly.from_coeffs(F7, [-1, 1]), Poly.from_coeffs(F7, [1, 1])
    return build_code(CodeSpec(ring, ((xm, xp), (xm, xp), (xm, xp))))


def kernel(code):
    """A parity-check matrix of a code: the kernel basis of its generator matrix."""
    return linalg.null_space(code.generator_matrix, code.ring.field.p)


def test_example1_distance_two():
    code = example1_code()
    res = min_distance(code, build_dual(example1_spec()).generator_matrix)
    assert res.exact and res.d == 2 and res.weight_checked == 1
    assert sum(1 for v in res.witness if v) == 2
    assert linalg.row_space_contains(code.generator_matrix, list(res.witness), 5)
    assert min_distance_bruteforce(code) == 2


def test_example2_distance_two():
    code = example2_code()
    res = min_distance(code, kernel(code))
    assert res.exact and res.d == 2
    assert min_distance_bruteforce(code) == 2


def test_full_space_distance_one():
    ring = RingParams(F5, 2, 2, 2, 1, -1, -1)
    one = Poly.one(F5)
    code = build_code(CodeSpec(ring, ((one, one), (one, one))))
    res = min_distance(code, kernel(code))
    assert res.d == 1 and res.weight_checked == 0
    assert min_distance_bruteforce(code) == 1


def test_zero_dimensional_rejected():
    ring = RingParams(F5, 2, 2, 2, 1, -1, -1)
    binom = Poly.binomial(F5, 2, 1)
    code = build_code(CodeSpec(ring, ((binom, binom), (binom, binom))))
    with pytest.raises(ValueError):
        min_distance(code, kernel(code))
    with pytest.raises(ValueError):
        min_distance_bruteforce(code)


def test_budget_exhaustion_returns_bound():
    code = example1_code()
    res = min_distance(code, kernel(code), budget=3)
    assert not res.exact and res.d is None
    assert res.weight_checked == 0 and res.witness is None


def test_max_weight_cap_returns_bound():
    code = example1_code()
    res = min_distance(code, kernel(code), max_weight=1)
    assert not res.exact and res.weight_checked == 1


def test_bruteforce_refuses_large_codes():
    ring = RingParams(F5, 3, 2, 2, 1, 1, -1)
    one = Poly.one(F5)
    code = build_code(CodeSpec(ring, ((one, one), (one, one))))   # 5^12 codewords
    with pytest.raises(SearchBudgetError):
        min_distance_bruteforce(code)


def test_injected_repetition_style_code():
    # a weight-n single generator: distance equals the length
    from ccode3d.codes import BuiltCode
    ring = RingParams(F5, 3, 1, 1, 1, 1, 1)
    G = np.ones((1, 3), dtype=np.int64)
    code = BuiltCode(ring, G)
    assert min_distance_bruteforce(code) == 3
    res = min_distance(code, kernel(code))
    assert res.d == 3 and res.weight_checked == 2


def test_parity_override_gives_same_answer():
    code = example1_code()
    dual = build_dual(example1_spec())
    res = min_distance(code, parity=dual.generator_matrix)
    assert res.exact and res.d == 2


def test_jobs_partitioning_matches_serial():
    # the witness is the first hit in lexicographic support order
    code = example2_code()
    res = min_distance(code, kernel(code))
    assert res.d == 2
    assert res.witness == (1, 0, 0, 1) + (0,) * 8
    # an [16, 8, 4] code whose first hit lies at first coordinate 0
    ring = RingParams(F5, 4, 2, 2, 1, 1, 1)
    P = lambda *c: Poly.from_coeffs(F5, c)
    code = build_code(CodeSpec(ring, ((P(1, 0, 1), P(2, 4, 3, 1)), (P(1, 0, 1), P(2, 1)))))
    res = min_distance(code, kernel(code))
    assert res.d == 4 == min_distance_bruteforce(code)
    assert res.witness == (1, 0, 1, 0, 4, 0, 4) + (0,) * 9
    assert linalg.row_space_contains(code.generator_matrix, list(res.witness), 5)
    # a hand-built code whose weight-2 words start at coordinates 1 and 3:
    # the hit is the first in first-coordinate order
    from ccode3d.codes import BuiltCode
    ring = RingParams(F5, 5, 1, 1, 1, 1, 1)
    G = np.array([[0, 1, 1, 0, 0], [0, 0, 0, 1, 1]], dtype=np.int64)
    code = BuiltCode(ring, G)
    assert min_distance(code, kernel(code)).witness == (0, 1, 1, 0, 0)


def test_search_matches_bruteforce_on_random_specs(rng: random.Random):
    rings = [
        RingParams(F5, 2, 2, 2, 1, -1, -1),
        RingParams(F5, 2, 2, 2, 1, 1, 1),
        RingParams(F7, 2, 2, 2, 1, 1, 1),
        RingParams(F7, 3, 2, 1, -1, 2, 1),
    ]
    for ring in rings:
        divisors = binomial_divisors(ring.field, ring.s, ring.alpha)
        for _ in range(8):
            grid = tuple(
                tuple(rng.choice(divisors) for _ in range(ring.l))
                for _ in range(ring.k)
            )
            spec = CodeSpec(ring, grid)
            code = build_code(spec)
            if code.dimension == 0:
                continue
            res = min_distance(code, build_dual(spec).generator_matrix)
            assert res.exact
            assert res.d == min_distance_bruteforce(code)
            assert sum(1 for v in res.witness if v) == res.d
            assert linalg.row_space_contains(
                code.generator_matrix, list(res.witness), ring.field.p)


def reference_search(code, parity, max_weight=None, budget=DEFAULT_BUDGET):
    """The unreduced search: every support, every pattern with first entry 1,
    in lexicographic (support, pattern) order, charged as min_distance."""
    p, n = code.ring.field.p, code.n
    cap = n if max_weight is None else min(max_weight, n)
    tested = 0
    for w in range(1, cap + 1):
        candidates = math.comb(n, w) * (p - 1) ** (w - 1)
        if tested + candidates > budget:
            return DistanceResult(None, w - 1, None, tested)
        tested += candidates
        patterns = np.array([(1, *t) for t in itertools.product(range(1, p), repeat=w - 1)])
        for support in itertools.combinations(range(n), w):
            zero = ~(patterns @ parity[:, support].T % p).any(axis=1)
            if zero.any():
                witness = np.zeros(n, dtype=np.int64)
                witness[list(support)] = patterns[np.argmax(zero)]
                return DistanceResult(w, w - 1, tuple(int(v) for v in witness), tested)
    return DistanceResult(None, cap, None, tested)


F13 = FieldSpec(13)
# n = 8..12 over q in {5, 7, 13}, unit and non-unit constants
REFERENCE_RINGS = [
    RingParams(F5, 2, 2, 2, 1, -1, -1),
    RingParams(F5, 4, 2, 1, 2, 1, 1),
    RingParams(F5, 3, 2, 2, 1, 1, 4),
    RingParams(F7, 3, 2, 2, 6, 1, 1),
    RingParams(F7, 2, 2, 3, 3, 1, 1),
    RingParams(F13, 2, 2, 2, 5, 1, 12),
    RingParams(F13, 3, 2, 2, 1, 12, 1),
    RingParams(F13, 4, 1, 2, 2, 1, 1),
]


def reference_cases(rng: random.Random, per_ring: int = 4):
    """(code, parity) pairs: seeded grids with the kernel and with build_dual's
    H as parity, plus a hand-built code from a random row subset of G, which
    is rarely an ideal."""
    for ring in REFERENCE_RINGS:
        divisors = binomial_divisors(ring.field, ring.s, ring.alpha)
        for _ in range(per_ring):
            grid = tuple(tuple(rng.choice(divisors) for _ in range(ring.l)) for _ in range(ring.k))
            spec = CodeSpec(ring, grid)
            code = build_code(spec)
            if code.dimension == 0:
                continue
            p = ring.field.p
            yield code, linalg.null_space(code.generator_matrix, p)
            yield code, build_dual(spec).generator_matrix
            rows = sorted(rng.sample(range(code.dimension), rng.randint(1, code.dimension)))
            g = code.generator_matrix[rows]
            yield BuiltCode(ring, g), linalg.null_space(g, p)


REFERENCE_BUDGET = 3 * 10**5   # keeps the reference's pattern arrays small


def assert_matches_reference(code, parity):
    full = reference_search(code, parity, budget=REFERENCE_BUDGET)
    assert min_distance(code, parity, budget=REFERENCE_BUDGET) == full
    assert min_distance(code, kernel(code), budget=REFERENCE_BUDGET) == full
    charge = 0
    for w in range(1, (full.d or full.weight_checked) + 1):   # stops by budget and max_weight
        step = math.comb(code.n, w) * (code.ring.field.p - 1) ** (w - 1)
        for budget in (charge + step - 1, charge + step):
            assert (min_distance(code, parity, budget=budget)
                    == reference_search(code, parity, budget=budget))
        assert (min_distance(code, parity, max_weight=w - 1)
                == reference_search(code, parity, max_weight=w - 1))
        charge += step


def test_search_matches_unreduced_reference(rng: random.Random):
    # the cases project their syndromes both to fewer coordinates than the
    # parity matrix has rows (r < m) and to all of them (r = m)
    narrowed = set()
    for code, parity in reference_cases(rng):
        assert_matches_reference(code, parity)
        m, n = parity.shape
        narrowed.add(distance._projection_width(code.ring.field.p, m, n) < m)
    assert narrowed == {True, False}


def test_key_collisions_are_rechecked(rng: random.Random, monkeypatch):
    # all-zero key weights: every projected key is 0, so every syndrome passes
    # the filter, and every full key matches every column's, so only the
    # exact comparison tells hits from misses
    monkeypatch.setattr(distance, "_key_weights", lambda m: np.zeros(m, dtype=np.uint64))
    for code, parity in reference_cases(rng, per_ring=2):
        assert distance._column_index(parity, code.ring.field.p).filter.sum() == 1
        assert_matches_reference(code, parity)


@pytest.mark.parametrize("p", [32771, 65521])
def test_large_prime_codes_match_bruteforce(p):
    # one-dimensional codes over a prime past 2^15, where the filter is full
    # size (2^20 entries) and r < m at n = 8, r = m at n = 4; weight 3 at
    # n = 4 runs (p-1)^2 prefix patterns through the float product
    field = FieldSpec(p)
    for word, d, projected in (((0, 1, 0, 0, 0, 0, p - 2, 0), 2, 3), ((1, 0, 5, p - 1), 3, 3)):
        n = len(word)
        code = BuiltCode(RingParams(field, n, 1, 1, 1, 1, 1), np.array([word], dtype=np.int64))
        assert distance._filter_bits(p, n) == 20
        assert distance._projection_width(p, n - 1, n) == projected
        res = min_distance(code, kernel(code), budget=10**11)
        assert res.d == d == min_distance_bruteforce(code)
        assert res.witness == word and res.weight_checked == d - 1
    # columns 1, 3 and 5 proportional (h_3 = -3*h_1, h_5 = 7*h_1): the least
    # j wins, with c = -1/(-3); a zero column at 4 makes d = 1 with c = 1
    h1 = np.array([0, 5, 1])
    parity = np.array([[1, 2, 3], h1, [1, 1, 0], -3 * h1, [2, 0, 1], 7 * h1]).T % p
    third = pow(3, -1, p)
    for zero, d, witness in ((False, 2, (0, 1, 0, third, 0, 0)), (True, 1, (0, 0, 0, 0, 1, 0))):
        if zero:
            parity[:, 4] = 0
        code = BuiltCode(RingParams(field, 6, 1, 1, 1, 1, 1), linalg.null_space(parity, p))
        res = min_distance(code, parity, budget=10**11)
        assert res == reference_search(code, parity, budget=10**11)
        assert res.d == d and res.witness == witness


def test_column_index_is_built_once_per_search(monkeypatch):
    # weights 1..4 of the [16, 8, 4] code share one index
    calls = []
    build = distance._column_index

    def counting(parity, p):
        calls.append(parity.shape)
        return build(parity, p)

    monkeypatch.setattr(distance, "_column_index", counting)
    ring = RingParams(F5, 4, 2, 2, 1, 1, 1)
    P = lambda *c: Poly.from_coeffs(F5, c)
    code = build_code(CodeSpec(ring, ((P(1, 0, 1), P(2, 4, 3, 1)), (P(1, 0, 1), P(2, 1)))))
    res = min_distance(code, kernel(code))
    assert res.d == 4 and res.weight_checked == 3
    assert calls == [(8, 16)]


def test_filter_size_is_bounded():
    # at the largest field and length a spec admits, the filter keeps 2^20
    # entries (1 MiB) although (p-1)*n = 2.7*10^8 multiples mark it; the
    # smallest codes get 2^10
    assert distance._filter_bits(65521, 4096) == 20
    assert distance._filter_bits(3, 1) == 10
    assert distance._projection_width(65521, 4095, 4096) == 3
    assert distance._projection_width(5, 2, 3) == 2


def test_column_index_has_no_multiple_axis():
    # the same parity pattern over F_13 and F_65521: the index keeps n
    # columns scaled to a leading 1, their leading entries and n keys, and
    # no array with a (p-1) axis; over F_65521 the filter is marked in two
    # slices of multiples, and it marks exactly the projected multiples
    pattern = np.random.default_rng(13).integers(-2, 3, size=(4, 20))
    pattern[:, 5] = 0
    m, n = pattern.shape
    for p in (13, 65521):
        index = distance._column_index(pattern % p, p)
        r = distance._projection_width(p, m, n)
        assert index.columns.shape == index.scaled.shape == (n, m)
        assert index.projected.shape == (n, r)
        assert index.lead.shape == index.keys.shape == (n,)
        assert index.filter.shape == (1 << distance._filter_bits(p, n),)
        assert (index.scaled * index.lead[:, None] % p == pattern.T % p).all()
        nonzero = np.flatnonzero(index.lead)
        assert nonzero.tolist() == [j for j in range(n) if j != 5]
        assert (index.scaled[nonzero, np.argmax(index.scaled[nonzero] != 0, axis=1)] == 1).all()
        mults = -np.arange(1, p)[:, None, None]
        projected = index.projected.astype(np.int64)
        marked = np.zeros_like(index.filter)
        marked[(mults * projected % p).view(np.uint64) @ distance._key_weights(r) >> index.shift] = True
        assert (index.filter == marked).all() and not marked.all()
    assert math.ceil(65520 * n / (1 << distance._filter_bits(65521, n))) == 2


def test_pattern_chunks_keep_the_first_hit(rng: random.Random, monkeypatch):
    # five prefix patterns a product: a prefix's hits spread over several
    # chunks, and the least (j, pattern) over all of them must win
    monkeypatch.setattr(distance, "_PATTERN_CHUNK", 5)
    distance._prefix_patterns.cache_clear()
    try:
        for code, parity in reference_cases(rng, per_ring=2):
            assert_matches_reference(code, parity)
    finally:
        distance._prefix_patterns.cache_clear()
