"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either a published golden value or computed
by an independent oracle inside the test.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from ccode3d import linalg
from ccode3d.codes import (
    CodeSpec,
    admissible_sign_rings,
    binomial_divisors,
    build_code,
    build_dual,
    count_divisor_grids,
    cyclic_yz_selfdual_scan,
    direct_self_dual_check,
    self_dual_decide,
    self_dual_feasible,
    self_dual_grid_count,
)
from ccode3d.distance import min_distance
from ccode3d.gf import FieldSpec, element_order, find_root
from ccode3d.idempotents import build_constacyclic_idempotents, build_full_idempotents
from ccode3d.poly import Poly
from ccode3d.ring3d import RingParams

from conftest import (SEED, annihilator_orthogonality_flags, enumerate_divisor_grids,
                      min_distance_bruteforce, reciprocal_index, row_space_equal)

F5 = FieldSpec(5)
F7 = FieldSpec(7)


def report(number: int, text: str):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def example1_spec() -> CodeSpec:
    ring = RingParams(F5, 2, 2, 2, 1, -1, -1)
    xm, xp = Poly.from_coeffs(F5, [-1, 1]), Poly.from_coeffs(F5, [1, 1])
    return CodeSpec(ring, ((xm, xp), (xm, xp)))


def example2_spec() -> CodeSpec:
    ring = RingParams(F7, 2, 2, 3, 1, 1, -1)
    xm, xp = Poly.from_coeffs(F7, [-1, 1]), Poly.from_coeffs(F7, [1, 1])
    return CodeSpec(ring, ((xm, xp), (xm, xp), (xm, xp)))


def example3_spec() -> CodeSpec:
    ring = RingParams(F7, 3, 2, 3, -1, 2, -1)
    quad, lin, one = Poly.from_coeffs(F7, [1, -1, 1]), Poly.from_coeffs(F7, [1, 1]), Poly.one(F7)
    return CodeSpec(ring, ((quad, lin), (quad, one), (lin, one)))


@pytest.fixture(scope="module")
def sign_sweep():
    """Criterion 6/8/9 shared sweep: every divisor grid for every admissible
    +-1 sign choice over (5,2,2,2) and (7,2,2,2)."""
    records = []
    for field, dims in ((F5, (2, 2, 2)), (F7, (2, 2, 2))):
        for ring in admissible_sign_rings(field, *dims):
            for spec in enumerate_divisor_grids(ring):
                records.append((spec, build_code(spec), build_dual(spec)))
    return records


def test_criterion_1_example1():
    start = time.perf_counter()
    spec = example1_spec()
    code = build_code(spec)
    assert (code.n, code.dimension) == (8, 4)
    paper_rows = np.array([
        [1, -1, -2, 2, -2, 2, -1, 1],
        [-1, -1, -2, -2, 2, 2, -1, -1],
        [1, -1, -2, 2, 2, -2, 1, -1],
        [-1, -1, -2, -2, -2, -2, 1, 1],
    ]) % 5
    assert row_space_equal(code.generator_matrix, paper_rows, 5)
    verdict, _ = self_dual_decide(spec, code)
    assert verdict is True
    res = min_distance(code, build_dual(spec).generator_matrix)
    assert res.exact and res.d == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"[8,4,2] self-dual code over F_5 reproduced in {elapsed:.3f}s")


def test_criterion_2_example2():
    start = time.perf_counter()
    spec = example2_spec()
    code = build_code(spec)
    assert (code.n, code.dimension) == (12, 6)
    res = min_distance(code, build_dual(spec).generator_matrix)
    assert res.exact and res.d == 2
    verdict, cert = self_dual_decide(spec, code)
    assert verdict is False
    assert cert["first_failure"] == [0, 0]
    failing = next(c for c in cert["cells"] if c["cell"] == [0, 0])
    assert failing["p"] == [6, 1]                     # p_0^(0) = x - 1
    assert failing["partner_q_reciprocal"] == [1, 1]  # reversal of complement = x + 1
    # the quoted witness with superscript 1 has exactly that value too
    binom = Poly.binomial(F7, 2, 1)
    q01_star = (binom // spec.divisor_grid[1][0]).reciprocal()
    assert list(q01_star.coeffs) == [1, 1]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"[12,6,2] over F_7, not self-dual: cell (0,0) has x-1 vs x+1, {elapsed:.3f}s")


def test_criterion_3_example3():
    start = time.perf_counter()
    spec = example3_spec()
    code = build_code(spec)
    assert (code.n, code.dimension) == (18, 12)
    res = min_distance(code, build_dual(spec).generator_matrix)
    assert res.exact and res.d == 4
    assert res.weight_checked == 3       # weights 1..3 exhausted with no hit
    assert sum(1 for v in res.witness if v) == 4
    assert linalg.row_space_contains(code.generator_matrix, list(res.witness), 7)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"[18,12,4] over F_7 confirmed, weights 1-3 exhausted, {elapsed:.2f}s")


def test_criterion_4_idempotent_identity_suite():
    start = time.perf_counter()
    checked = 0
    for q in (5, 7, 11, 13):
        field = FieldSpec(q)
        for gamma in range(1, q):
            r = element_order(field, gamma)
            for k in range(1, 7):
                if (q - 1) % (r * k) != 0:
                    continue
                checked += 1
                rk = r * k
                con = build_constacyclic_idempotents(field, k, gamma)
                full = build_full_idempotents(field, k, gamma)
                omega = find_root(field, k, gamma)
                small_mod = Poly.binomial(field, k, gamma)
                big_mod = Poly.binomial(field, rk, 1)

                for fam, modulus in ((con, small_mod), (full, big_mod)):
                    total = Poly.zero(field)
                    for m in fam.members:
                        total = total + m
                    assert total % modulus == Poly.one(field)
                    for t, a in enumerate(fam.members):
                        for u, b in enumerate(fam.members):
                            want = a if t == u else Poly.zero(field)
                            assert (a * b) % modulus == want

                # delta evaluations at the roots of z^k - gamma
                for t, m in enumerate(con.members):
                    for u in range(k):
                        root = field.pow(omega, 1 + u * r)
                        assert m.evaluate(root) == (1 if t == u else 0)

                # multiplying by z scales each member by its root
                z = Poly.x_power(field, 1)
                for t, m in enumerate(con.members):
                    root = field.pow(omega, 1 + t * r)
                    assert (z * m) % small_mod == m.scale(root)

                # lifting through the cofactor lands on the full-cycle member,
                # with the scalar computed (the cofactor's value at the root)
                cofactor, rem = divmod(big_mod, small_mod)
                assert rem.is_zero()
                for t in range(k):
                    root = field.pow(omega, 1 + t * r)
                    scalar = cofactor.evaluate(root)
                    assert scalar != 0
                    lifted = (con.members[t] * cofactor) % big_mod
                    assert lifted == full.members[(1 + t * r) % rk].scale(scalar)

                # reversal permutes the family by the reciprocal index map
                if gamma in (1, q - 1):
                    for t, m in enumerate(con.members):
                        idx = reciprocal_index(k, t, constant_is_one=(gamma == 1))
                        rec = m.reciprocal()
                        scalar = rec.evaluate(field.pow(omega, 1 + idx * r))
                        assert scalar != 0
                        assert rec == con.members[idx].scale(scalar)

                # r = 1: the two families coincide up to the index shift
                if r == 1:
                    for t in range(k - 1):
                        assert con.members[t] == full.members[t + 1]
                    assert con.members[k - 1] == full.members[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert checked >= 40
    report(4, f"identity suite exact on {checked} (q,k,gamma) families in {elapsed:.2f}s")


def test_criterion_5_product_zero_equals_shift_orthogonality():
    start = time.perf_counter()
    rng = random.Random(SEED)
    pairs = 0
    agreements = 0
    for field in (F5, F7):
        units = (1, field.p - 1)
        for alpha, beta, gamma in itertools.product(units, repeat=3):
            for _ in range(65):
                s, l, k = (rng.randint(1, 3) for _ in range(3))
                ring = RingParams(field, s, l, k, alpha, beta, gamma)
                f, g = (np.array([[[[rng.randrange(field.p) for _ in range(k)]
                                    for _ in range(l)] for _ in range(s)]])
                        for _ in range(2))
                zero_flags, ortho_flags = annihilator_orthogonality_flags(ring, f, g)
                pairs += 1
                agreements += bool(zero_flags[0] == ortho_flags[0])
    assert pairs >= 1000
    assert agreements == pairs
    elapsed = time.perf_counter() - start
    report(5, f"flags agree on {agreements}/{pairs} random pairs in {elapsed:.2f}s")


def test_criterion_6_duality_suite(sign_sweep):
    start = time.perf_counter()
    disagreements = 0
    for spec, code, dual in sign_sweep:
        p = spec.ring.field.p
        n = spec.ring.n
        gh = linalg.matmul(code.generator_matrix, dual.generator_matrix.T, p)
        assert not gh.any()
        assert code.dimension + dual.dimension == n
        kernel = linalg.null_space(code.generator_matrix, p)
        assert row_space_equal(dual.generator_matrix, kernel, p)
        verdict, _ = self_dual_decide(spec)
        if verdict != direct_self_dual_check(code):
            disagreements += 1
    assert disagreements == 0
    elapsed = time.perf_counter() - start
    report(6, f"{len(sign_sweep)} specs: orthogonality, rank split, kernel equality, "
              f"0 verdict disagreements, {elapsed:.1f}s")


def test_criterion_7_no_self_dual_with_trivial_yz_constants():
    start = time.perf_counter()
    tuples = 0
    for field in (F5, F7):
        records = cyclic_yz_selfdual_scan(field, 4, 4, 4)
        for rec in records:
            assert math.gcd(rec["s"], field.p) == 1
            if rec["alpha"] == field.p - 1:
                assert rec["s"] % 2 == 1
            assert rec["selfdual_grid_count"] == 0
            feasible, _ = self_dual_feasible(field, rec["s"], rec["l"], rec["k"], rec["alpha"])
            assert feasible is False
            tuples += 1
            # cross-validate the orbit-factorized count by brute enumeration
            # wherever the grid space is small enough to enumerate
            ring = RingParams(field, rec["s"], rec["l"], rec["k"], rec["alpha"], 1, 1)
            if count_divisor_grids(ring) <= 4096:
                found = sum(
                    1 for spec in enumerate_divisor_grids(ring)
                    if self_dual_decide(spec)[0]
                )
                assert found == 0
    assert tuples >= 100
    elapsed = time.perf_counter() - start
    report(7, f"zero self-dual codes across {tuples} parameter tuples "
              f"(beta=gamma=1, q in {{5,7}}, s,l,k <= 4), {elapsed:.1f}s")


def test_criterion_8_distance_oracle_equivalence(sign_sweep):
    start = time.perf_counter()
    compared = 0
    for spec, code, dual in sign_sweep:
        p = spec.ring.field.p
        if code.dimension < 1 or p**code.dimension > 10**7:
            continue
        res = min_distance(code, dual.generator_matrix)
        assert res.exact
        assert res.d == min_distance_bruteforce(code)
        assert sum(1 for v in res.witness if v) == res.d
        compared += 1
    assert compared >= 2000
    elapsed = time.perf_counter() - start
    report(8, f"search equals brute-force oracle on {compared} sweep specs, {elapsed:.1f}s")


def test_criterion_9_dimension_formula(sign_sweep):
    start = time.perf_counter()
    checked = 0
    for spec, code, _dual in sign_sweep:
        expected = spec.ring.n - spec.degree_sum()
        assert code.dimension == expected
        assert code.generator_matrix.shape[0] == expected
        assert linalg.rank(code.generator_matrix, spec.ring.field.p) == expected
        checked += 1
    # the trivial-constant scan range never builds full grids; cover it with
    # exhaustive builds on the small grid spaces and seeded samples elsewhere
    rng = random.Random(SEED)
    for field in (F5, F7):
        for rec in cyclic_yz_selfdual_scan(field, 4, 4, 4):
            ring = RingParams(field, rec["s"], rec["l"], rec["k"], rec["alpha"], 1, 1)
            divisors = binomial_divisors(field, ring.s, ring.alpha)
            cells = ring.k * ring.l
            if count_divisor_grids(ring) <= 256:
                specs = list(enumerate_divisor_grids(ring))
            else:
                specs = []
                for _ in range(8):
                    combo = [rng.choice(divisors) for _ in range(cells)]
                    grid = tuple(tuple(combo[t * ring.l + j] for j in range(ring.l))
                                 for t in range(ring.k))
                    specs.append(CodeSpec(ring, grid))
            for spec in specs:
                code = build_code(spec)
                expected = ring.n - spec.degree_sum()
                assert code.dimension == expected
                assert linalg.rank(code.generator_matrix, field.p) == expected
                checked += 1
    elapsed = time.perf_counter() - start
    report(9, f"dimension formula equals rank on {checked} specs, {elapsed:.1f}s")
