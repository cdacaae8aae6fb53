import copy
import itertools
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ccode3d import codes, linalg
from ccode3d.gf import FieldSpec, MissingRootOfUnityError
from ccode3d.codes import (
    BuiltCode,
    CodeSpec,
    SpecValidationError,
    UnsupportedConstantsError,
    admissible_sign_rings,
    binomial_divisors,
    build_code,
    build_dual,
    cell_generators,
    cell_partners,
    cell_product_zero_flags,
    code_idempotents,
    complement_grid,
    count_divisor_grids,
    crt_blocks,
    crt_products_vanish,
    crt_rank,
    cyclic_yz_selfdual_scan,
    direct_self_dual_check,
    quasi_twisted_closure,
    self_dual_decide,
    self_dual_feasible,
    self_dual_grid_count,
    sign_grid_sweep_report,
    validate_spec,
)
from ccode3d.cli import load_spec
from ccode3d.poly import Poly, factor_binomial
from ccode3d.ring3d import RingElement3D, RingParams, ring_products, unflatten

from conftest import (
    dual_spec,
    enumerate_divisor_grids,
    install_wrong_z_family,
    int64_closure,
    per_spec_sweep_report,
    reciprocal_cell,
    row_space_equal,
    self_reciprocal_count,
)

F5 = FieldSpec(5)
F7 = FieldSpec(7)
SPECS = Path(__file__).resolve().parent.parent / "specs"


def poly5(*coeffs):
    return Poly.from_coeffs(F5, coeffs)


def poly7(*coeffs):
    return Poly.from_coeffs(F7, coeffs)


def example1_spec() -> CodeSpec:
    ring = RingParams(F5, 2, 2, 2, 1, -1, -1)
    xm, xp = poly5(-1, 1), poly5(1, 1)
    return CodeSpec(ring, ((xm, xp), (xm, xp)))


def example2_spec() -> CodeSpec:
    ring = RingParams(F7, 2, 2, 3, 1, 1, -1)
    xm, xp = poly7(-1, 1), poly7(1, 1)
    return CodeSpec(ring, ((xm, xp), (xm, xp), (xm, xp)))


def example2_swapped_spec() -> CodeSpec:
    # same code as the published displays: the y-idempotent labels there are
    # swapped relative to their defining order, so the x-divisors swap columns
    ring = RingParams(F7, 2, 2, 3, 1, 1, -1)
    xm, xp = poly7(-1, 1), poly7(1, 1)
    return CodeSpec(ring, ((xp, xm), (xp, xm), (xp, xm)))


def example3_spec() -> CodeSpec:
    ring = RingParams(F7, 3, 2, 3, -1, 2, -1)
    quad = poly7(1, -1, 1)
    lin = poly7(1, 1)
    one = Poly.one(F7)
    return CodeSpec(ring, ((quad, lin), (quad, one), (lin, one)))


def product_row(p, s, l, k, xs, ys, zs):
    """Independent expansion of f(x)g(y)h(z) into the z-major layout."""
    xs = list(xs) + [0] * (s - len(xs))
    ys = list(ys) + [0] * (l - len(ys))
    zs = list(zs) + [0] * (k - len(zs))
    return [xs[i] * ys[j] * zs[t] % p
            for t in range(k) for j in range(l) for i in range(s)]


PAPER_G3 = np.array([
    [1, -1, -2, 2, -2, 2, -1, 1],
    [-1, -1, -2, -2, 2, 2, -1, -1],
    [1, -1, -2, 2, 2, -2, 1, -1],
    [-1, -1, -2, -2, -2, -2, 1, 1],
]) % 5


def test_validate_accepts_example1():
    spec = example1_spec()
    assert validate_spec(spec) is spec
    assert all(p.is_monic() for row in spec.divisor_grid for p in row)
    # the constructor stores a unit multiple of a divisor as its monic associate
    scaled = CodeSpec(spec.ring, ((poly5(-2, 2), poly5(3, 3)), (poly5(-1, 1), poly5(1, 1))))
    assert scaled == spec


def test_validate_rejects_non_divisor():
    ring = RingParams(F5, 2, 2, 2, 1, -1, -1)
    with pytest.raises(SpecValidationError, match=r"t=0, j=0"):
        CodeSpec(ring, ((poly5(-2, 1), poly5(1, 1)), (poly5(-1, 1), poly5(1, 1))))


def test_validate_rejects_missing_root():
    ring = RingParams(F5, 2, 2, 3, 1, -1, 1)   # k=3, gamma=1 needs 3 | 4
    grid = ((Poly.one(F5),) * 2,) * 3
    with pytest.raises(MissingRootOfUnityError):
        CodeSpec(ring, grid)


def test_validate_rejects_bad_grid_shape():
    ring = RingParams(F5, 2, 2, 2, 1, -1, -1)
    with pytest.raises(SpecValidationError, match="grid"):
        CodeSpec(ring, ((Poly.one(F5),),))


def test_validate_admits_length_up_to_the_limit():
    at_limit = RingParams(F5, codes.SPEC_LENGTH_LIMIT, 1, 1, 1, 1, 1)
    assert CodeSpec(at_limit, ((poly5(-1, 1),),)).ring.n == codes.SPEC_LENGTH_LIMIT == 4096
    past = RingParams(F5, codes.SPEC_LENGTH_LIMIT // 2 + 1, 2, 1, 1, -1, 1)
    with pytest.raises(SpecValidationError, match=r"n = s\*l\*k = 4098 .* limit of 4096"):
        CodeSpec(past, ((poly5(-1, 1), poly5(-1, 1)),))


def test_build_at_the_length_limit_keeps_one_copy_of_its_words():
    # a one-cell build at s = 4096 over F_5 with divisor x - 1: G is 4,095 x
    # 4,096 int64 (134 MB), and kron_words reduces its words in place, so the
    # process peaks under 350 MB (an out-of-place reduction peaks near 413 MB)
    script = ("import resource\n"
              "from ccode3d.codes import CodeSpec, build_code\n"
              "from ccode3d.gf import FieldSpec\n"
              "from ccode3d.poly import Poly\n"
              "from ccode3d.ring3d import RingParams\n"
              "F5 = FieldSpec(5)\n"
              "ring = RingParams(F5, 4096, 1, 1, 1, 1, 1)\n"
              "code = build_code(CodeSpec(ring, ((Poly.from_coeffs(F5, [4, 1]),),)))\n"
              "print(*code.generator_matrix.shape, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    rows, cols, peak_kb = map(int, proc.stdout.split())
    assert (rows, cols) == (4095, 4096)
    assert peak_kb < 350 * 1024


def test_example1_generator_matrix_matches_published_rows():
    code = build_code(example1_spec())
    assert code.dimension == 4 and code.n == 8
    assert np.array_equal(code.generator_matrix, PAPER_G3)
    assert row_space_equal(code.generator_matrix, PAPER_G3, 5)


def test_example1_dual_matches_published_rows():
    dual = build_dual(example1_spec())
    rows = [
        product_row(5, 2, 2, 2, [1, 1], [-1, 3], [-1, 3]),
        product_row(5, 2, 2, 2, [1, -1], [1, 3], [-1, 3]),
        product_row(5, 2, 2, 2, [1, 1], [-1, 3], [1, 3]),
        product_row(5, 2, 2, 2, [1, -1], [1, 3], [1, 3]),
    ]
    assert np.array_equal(dual.generator_matrix, np.array(rows) % 5)


def test_example1_self_dual_and_quasi_twisted():
    spec = example1_spec()
    code = build_code(spec)
    verdict, cert = self_dual_decide(spec, code)
    assert verdict and cert["dimension_condition_ok"] and cert["first_failure"] is None
    assert cert["direct_check"] is True
    assert direct_self_dual_check(code)
    assert quasi_twisted_closure(code, build_dual(spec).generator_matrix) == {
        "x": True, "y": True, "z": True}


def test_example2_parameters_and_certificate():
    spec = example2_spec()
    code = build_code(spec)
    dual = build_dual(spec)
    assert (code.n, code.dimension) == (12, 6)
    assert dual.generator_matrix.shape == (6, 12)
    assert not linalg.matmul(code.generator_matrix, dual.generator_matrix.T, 7).any()
    verdict, cert = self_dual_decide(spec, code)
    assert not verdict
    assert cert["first_failure"] == [0, 0]
    failing = next(c for c in cert["cells"] if c["cell"] == [0, 0])
    assert failing["p"] == [6, 1]                       # x - 1
    assert failing["partner_q_reciprocal"] == [1, 1]    # x + 1
    # the quoted reciprocal complement with superscript index 1 has the same value
    binom = Poly.binomial(F7, 2, 1)
    q01_star = (binom // spec.divisor_grid[1][0]).reciprocal()
    assert list(q01_star.coeffs) == [1, 1]


def test_example2_published_displays_use_swapped_column_labels():
    # the swapped grid reproduces the published G and H row spaces
    spec = example2_swapped_spec()
    code = build_code(spec)
    dual = build_dual(spec)
    g_rows = []
    h_rows = []
    for z in ([-2, -3, -1][::-1], [-2, 2, -2][::-1], [-2, 1, 3][::-1]):
        g_rows.append(product_row(7, 2, 2, 3, [-1, 1], [-3, -3], z))
        g_rows.append(product_row(7, 2, 2, 3, [1, 1], [-3, 3], z))
    for z_star in ([-1, -3, -2], [-2, 2, -2], [3, 1, -2]):
        h_rows.append(product_row(7, 2, 2, 3, [1, 1], [-3, -3], z_star))
        h_rows.append(product_row(7, 2, 2, 3, [1, -1], [3, -3], z_star))
    assert row_space_equal(code.generator_matrix, np.array(g_rows) % 7, 7)
    assert row_space_equal(dual.generator_matrix, np.array(h_rows) % 7, 7)
    # both gridings give the same parameters and verdict
    verdict, cert = self_dual_decide(spec, code)
    assert not verdict and code.dimension == 6


def test_example3_generator_matrix_matches_published_rows():
    code = build_code(example3_spec())
    assert (code.n, code.dimension) == (18, 12)
    z_idem = ([5, 4, 6], [5, 2, 5], [5, 1, 3])
    y_idem0, y_idem1 = [4, 6], [4, 1]
    quad, lin = [1, -1, 1], [1, 1]
    rows = [
        product_row(7, 3, 2, 3, quad, y_idem0, z_idem[0]),
        product_row(7, 3, 2, 3, lin, y_idem1, z_idem[0]),
        product_row(7, 3, 2, 3, [0] + lin, y_idem1, z_idem[0]),
        product_row(7, 3, 2, 3, quad, y_idem0, z_idem[1]),
        product_row(7, 3, 2, 3, [1], y_idem1, z_idem[1]),
        product_row(7, 3, 2, 3, [0, 1], y_idem1, z_idem[1]),
        product_row(7, 3, 2, 3, [0, 0, 1], y_idem1, z_idem[1]),
        product_row(7, 3, 2, 3, lin, y_idem0, z_idem[2]),
        product_row(7, 3, 2, 3, [0] + lin, y_idem0, z_idem[2]),
        product_row(7, 3, 2, 3, [1], y_idem1, z_idem[2]),
        product_row(7, 3, 2, 3, [0, 1], y_idem1, z_idem[2]),
        product_row(7, 3, 2, 3, [0, 0, 1], y_idem1, z_idem[2]),
    ]
    assert np.array_equal(code.generator_matrix, np.array(rows) % 7)


def random_specs(rng, count):
    """Seeded random grid specs over q in {5, 7, 13}; about half the constants
    are drawn from {1, -1} and the rest from all nonzero residues."""
    specs = []
    while len(specs) < count:
        field = FieldSpec(rng.choice((5, 7, 13)))
        consts = [rng.choice((1, field.p - 1)) if rng.random() < 0.5
                  else rng.randrange(1, field.p) for _ in range(3)]
        ring = RingParams(field, rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 4), *consts)
        try:
            code_idempotents(ring)
        except ValueError:
            continue
        divisors = binomial_divisors(field, ring.s, ring.alpha)
        grid = tuple(tuple(rng.choice(divisors) for _ in range(ring.l)) for _ in range(ring.k))
        specs.append(CodeSpec(ring, grid))
    return specs


def has_unit_constants(ring: RingParams) -> bool:
    return {ring.alpha, ring.beta, ring.gamma} <= {1, ring.field.p - 1}


def non_unit_specs(rng) -> list[CodeSpec]:
    """example3 and up to 40 seeded random specs with a constant outside +-1."""
    return [example3_spec()] + [s for s in random_specs(rng, 80)
                                if not has_unit_constants(s.ring)][:40]


def per_row_matrix(ring, cells) -> np.ndarray:
    """Oracle: one from_axis_polys product per row x^i * f(x) * g(y) * h(z)."""
    rows = [
        RingElement3D.from_axis_polys(ring, (0,) * i + f.coeffs, gy, hz).flatten()
        for f, count, gy, hz in cells
        for i in range(count)
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, ring.n)


def per_row_closure(code) -> dict[str, bool]:
    """Oracle: shift each row as a ring element and test it on its own."""
    ring = code.ring
    g = code.generator_matrix
    return {
        axis: all(linalg.row_space_contains(g, unflatten(ring, row).shift(axis).flatten(),
                                            ring.field.p)
                  for row in g)
        for axis in "xyz"
    }


def test_kronecker_matrices_equal_per_row_products(rng):
    specs = random_specs(rng, 60)
    assert any(has_unit_constants(s.ring) for s in specs)
    assert any(not has_unit_constants(s.ring) for s in specs)
    for spec in specs:
        ring = spec.ring
        z_fam, y_fam = code_idempotents(ring)
        binom = Poly.binomial(ring.field, ring.s, ring.alpha)
        code_cells = []
        dual_cells = []
        for t, row in enumerate(spec.divisor_grid):
            for j, p in enumerate(row):
                y_mem, z_mem = y_fam.members[j], z_fam.members[t]
                code_cells.append((p, ring.s - p.degree, y_mem.coeffs, z_mem.coeffs))
                dual_cells.append(((binom // p).reciprocal(), p.degree,
                                   y_mem.reciprocal().coeffs, z_mem.reciprocal().coeffs))
        code = build_code(spec)
        assert np.array_equal(code.generator_matrix, per_row_matrix(ring, code_cells))
        assert linalg.rank(code.generator_matrix, ring.field.p) == code.dimension
        dual = build_dual(spec)
        assert np.array_equal(dual.generator_matrix, per_row_matrix(dual.ring, dual_cells))
        assert linalg.rank(dual.generator_matrix, ring.field.p) == dual.dimension


def test_closure_matches_per_row_oracle(rng):
    # the parity input is the kernel of G by elimination or the dual's H,
    # which spans it by construction; the non-unit specs are those of
    # test_dual_of_non_unit_constants_spans_kernel
    seeded_non_unit = non_unit_specs(copy.copy(rng))
    specs = [s for s in random_specs(rng, 40) if s.ring.n <= 60]
    for spec in specs + seeded_non_unit:
        code, p = build_code(spec), spec.ring.field.p
        for parity in (linalg.null_space(code.generator_matrix, p),
                       build_dual(spec).generator_matrix):
            assert quasi_twisted_closure(code, parity) == per_row_closure(code) == {
                "x": True, "y": True, "z": True}
        # a random subset of the rows is seldom an ideal: the batched check
        # must still agree with the per-row oracle axis by axis
        if code.dimension > 1:
            g = code.generator_matrix[rng.sample(range(code.dimension), code.dimension // 2)]
            part = BuiltCode(spec.ring, g)
            assert quasi_twisted_closure(part, linalg.null_space(g, p)) == per_row_closure(part)


def crt_agrees_with_int64(code, parity) -> tuple[bool, bool]:
    """Assert that the CRT-basis ranks of G and of the parity matrix equal
    linalg.rank, and that the closure, G*parity^T and G*G^T verdicts equal
    the int64 products over all n columns; return whether G and the parity
    matrix each came out per_block."""
    ring, p = code.ring, code.ring.field.p
    g = code.generator_matrix
    at_roots, at_inverses = crt_blocks(ring, g), crt_blocks(ring, parity, inverse=True)
    assert crt_rank(at_roots, p) == linalg.rank(g, p)
    assert crt_rank(at_inverses, p) == linalg.rank(parity, p)
    assert quasi_twisted_closure(code, parity) == int64_closure(code, parity)
    assert crt_products_vanish(at_roots, at_inverses, p) == (not linalg.matmul(g, parity.T, p).any())
    self_orthogonal = not linalg.matmul(g, g.T, p).any()
    assert crt_products_vanish(at_roots, crt_blocks(ring, g, inverse=True), p) == self_orthogonal
    assert direct_self_dual_check(code) == (self_orthogonal and 2 * code.dimension == ring.n)
    return at_roots.per_block, at_inverses.per_block


def test_crt_checks_match_int64_oracles(rng):
    # every acceptance spec (the three examples and every grid of the +-1
    # sign rings over (5, 2, 2, 2) and (7, 2, 2, 2)) and random grids, with
    # p | s and with non-unit constants: G at the roots and H at the inverse
    # roots lie one row per block, and the fallback agrees on the rest
    specs = [load_spec(str(SPECS / f"example{i}.json")) for i in (1, 2, 3)]
    specs += [spec for field in (F5, F7) for ring in admissible_sign_rings(field, 2, 2, 2)
              for spec in enumerate_divisor_grids(ring)]
    divisible = []
    for field, s, l, k in ((F5, 5, 2, 2), (F5, 10, 1, 4), (F7, 7, 3, 2), (FieldSpec(13), 13, 3, 4)):
        for constants in ((1, 1, 1), (2, field.p - 1, 1), (3, 1, field.p - 1)):
            ring = RingParams(field, s, l, k, *constants)
            try:
                code_idempotents(ring)
            except ValueError:   # no root of unity of the order the ring needs
                continue
            divisors = binomial_divisors(field, s, ring.alpha)
            divisible.append(CodeSpec(ring, tuple(tuple(rng.choice(divisors) for _ in range(l))
                                                  for _ in range(k))))
    assert len(divisible) >= 8 and any(set(s.ring.shape()[1:]) != {1} for s in divisible)
    # over F_65521 with k*l = 32 the z-products are reduced before the y-product
    big = RingParams(FieldSpec(65521), 2, 4, 8, 1, 1, 1)
    wide = CodeSpec(big, tuple(tuple(rng.choice(binomial_divisors(big.field, 2, 1)) for _ in range(4))
                               for _ in range(8)))
    random = [wide] + random_specs(rng, 60) + non_unit_specs(rng)
    assert any(s.ring.s % s.ring.field.p == 0 for s in random)
    for spec in specs + divisible + random:
        code, dual = build_code(spec), build_dual(spec)
        assert crt_agrees_with_int64(code, dual.generator_matrix) == (True, True)
        assert crt_agrees_with_int64(dual, code.generator_matrix) == (True, True)
    for spec in divisible + random:
        code, p = build_code(spec), spec.ring.field.p
        g = code.generator_matrix
        if code.dimension and code.dimension < spec.ring.n:
            # a kernel basis by elimination lies across blocks: the parity side falls back
            assert crt_agrees_with_int64(code, linalg.null_space(g, p))[0]
        if code.dimension > 1:
            part = BuiltCode(spec.ring, g[rng.sample(range(code.dimension), code.dimension // 2)])
            crt_agrees_with_int64(part, linalg.null_space(part.generator_matrix, p))


def int64_crt_stack(ring, words, inverse: bool) -> tuple[np.ndarray, bool]:
    """(stack, per_block) of crt_blocks from an int64 evaluation of every row
    at the roots (or their inverses), powers by Python pow: when each row
    has at most one nonzero block, block b holds the rows in it in row
    order, zero-padded; else every row's k*l blocks."""
    p = ring.field.p
    s, l, k = ring.shape()
    sign = -1 if inverse else 1
    vz, vy = (np.array([[pow(rho, sign * i, p) for i in range(len(fam.roots))] for rho in fam.roots])
              for fam in code_idempotents(ring))
    w = np.asarray(words, dtype=np.int64).reshape(-1, k, l, s)
    x = np.einsum("at,utjc->aujc", vz, w) % p
    x = np.einsum("bj,aujc->abuc", vy, x).reshape(k * l, len(w), s) % p
    nonzero = x.any(axis=2)
    if (nonzero.sum(axis=0) > 1).any():
        return x, False
    members = [[u for u in range(len(w)) if nonzero[b, u] or (b == 0 and not nonzero[:, u].any())]
               for b in range(k * l)]
    stack = np.zeros((k * l, max(map(len, members)), s), dtype=np.int64)
    for b, rows in enumerate(members):
        stack[b, :len(rows)] = x[b, rows]
    return stack, True


@pytest.mark.parametrize("budget", [None, 1], ids=["one-slice", "row-slices"])
def test_crt_blocks_match_an_int64_evaluation(monkeypatch, rng, budget):
    # G and H with their rows shuffled, so rows move up to the first slots of
    # their blocks from anywhere, a G with one row across two blocks, a
    # matrix of no rows, and G less its last row, which no x-closure check
    # of the first slot of each block sees; with one slice and with one row
    # a slice (the transform, rank_stack and the closure), the stacks equal
    # the int64 evaluation and the checks their int64 oracles
    if budget is not None:
        monkeypatch.setattr(linalg, "PRODUCT_BYTES", budget)
    specs = random_specs(rng, 30) + non_unit_specs(rng)[:10]
    wholes = opened = 0
    for spec in specs:
        ring, p = spec.ring, spec.ring.field.p
        g, h = build_code(spec).generator_matrix, build_dual(spec).generator_matrix
        shuffled = [m[rng.sample(range(len(m)), len(m))] for m in (g, h)]
        for words, inverse in zip(shuffled, (False, True)):
            mixed = words.copy()
            if len(mixed) > 1:
                mixed[0] = (mixed[0] + mixed[-1]) % p
            for matrix in (words, mixed, words[:0]):
                blocks = crt_blocks(ring, matrix, inverse=inverse)
                stack, per_block = int64_crt_stack(ring, matrix, inverse)
                assert (blocks.per_block, blocks.stack.tolist()) == (per_block, stack.tolist())
                wholes += not per_block
        assert crt_agrees_with_int64(BuiltCode(ring, shuffled[0]), shuffled[1]) == (True, True)
        if len(g) > 1:   # G without x^(c-1) f(x): x times the row below it leaves the span
            trimmed, kernel = BuiltCode(ring, g[:-1]), linalg.null_space(g[:-1], p)
            crt_agrees_with_int64(trimmed, kernel)
            opened += not quasi_twisted_closure(trimmed, kernel)["x"]
    assert wholes > len(specs) // 2 and opened > len(specs) // 2


def test_crt_fallback_on_a_row_across_two_blocks(rng):
    # adding a row of another cell to one row of G (or of H) leaves that row
    # in two blocks, and the row space as it was: the matrix is ranked and
    # multiplied whole, and agrees
    ring = RingParams(FieldSpec(13), 6, 3, 4, 1, 1, 1)
    divisors = binomial_divisors(ring.field, ring.s, ring.alpha)
    grid = tuple(tuple(rng.choice(divisors[1:-1]) for _ in range(ring.l)) for _ in range(ring.k))
    spec = CodeSpec(ring, grid)
    code, dual = build_code(spec), build_dual(spec)
    p = ring.field.p
    mixed_g, mixed_h = (m.copy() for m in (code.generator_matrix, dual.generator_matrix))
    for mixed, inverse in ((mixed_g, False), (mixed_h, True)):
        mixed[0] = (mixed[0] + mixed[-1]) % p        # the first and the last cell
        assert not crt_blocks(ring, mixed, inverse=inverse).per_block
    assert crt_agrees_with_int64(code, mixed_h) == (True, False)
    mixed_code = BuiltCode(ring, mixed_g)
    assert crt_agrees_with_int64(mixed_code, dual.generator_matrix) == (False, True)
    assert crt_agrees_with_int64(mixed_code, mixed_g) == (False, False)
    # both sides whole: the y- and z-shifts scale each block by its own roots
    assert crt_agrees_with_int64(mixed_code, mixed_h) == (False, False)
    assert all(quasi_twisted_closure(mixed_code, mixed_h).values())
    # one row across two cells spans no ideal: closed under y iff the cells
    # share their y-root, under z iff they share their z-root
    first_rows = np.cumsum([0] + [ring.s - d.degree for row in grid for d in row])[:-1]
    verdicts = set()
    for a, b in itertools.combinations(range(ring.k * ring.l), 2):
        pair = BuiltCode(ring, (code.generator_matrix[[first_rows[a]]] +
                                code.generator_matrix[[first_rows[b]]]) % p)
        closure = quasi_twisted_closure(pair, linalg.null_space(pair.generator_matrix, p))
        assert closure == int64_closure(pair, linalg.null_space(pair.generator_matrix, p))
        assert (closure["y"], closure["z"]) == (a % ring.l == b % ring.l, a // ring.l == b // ring.l)
        verdicts.add(tuple(closure.values()))
    assert len(verdicts) == 3
    repeated = code.generator_matrix.copy()
    repeated[1] = repeated[0]                          # one rank short, still one block a row
    assert crt_rank(crt_blocks(ring, repeated), p) == linalg.rank(repeated, p) == code.dimension - 1


def test_complement_grid_matches_the_division(rng):
    # the reversal of the cached q* is (x^s - alpha)/p, also where the
    # reversal of a complement is no multiple of it
    specs = random_specs(rng, 40) + non_unit_specs(rng)
    moved = 0
    for spec in specs:
        ring = spec.ring
        binom = Poly.binomial(ring.field, ring.s, ring.alpha)
        complements = [[binom // d for d in row] for row in spec.divisor_grid]
        assert complement_grid(spec) == complements
        moved += any(q.reciprocal().monic() != q.monic() for row in complements for q in row)
    assert moved > len(specs) // 2


def test_closure_rejects_non_ideal_code():
    # span{1, x} in F_5[x, y, z]/(x^2 - 1, y - 1, z^2 + 1): closed under x
    # (x * x = 1) and under y (y = 1), but z * 1 = z leaves the span
    ring = RingParams(F5, 2, 1, 2, 1, 1, -1)
    g = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.int64)
    code = BuiltCode(ring, g)
    assert quasi_twisted_closure(code, linalg.null_space(g, 5)) == {"x": True, "y": True, "z": False}
    assert per_row_closure(code) == {"x": True, "y": True, "z": False}


def test_dual_of_non_unit_constants_spans_kernel(rng):
    # the reversal blocks give the (alpha^-1, beta^-1, gamma^-1)-constacyclic
    # dual for any nonzero constants: H spans ker G and is an ideal of the
    # inverse-constant ring
    specs = non_unit_specs(rng)
    assert {s.ring.field.p for s in specs} == {5, 7, 13}
    for spec in specs:
        ring, p = spec.ring, spec.ring.field.p
        code, dual = build_code(spec), build_dual(spec)
        assert dual.ring == ring.inverse_constants() != ring
        g, h = code.generator_matrix, dual.generator_matrix
        assert not linalg.matmul(g, h.T, p).any()
        assert linalg.rank(h, p) == dual.dimension == ring.n - code.dimension
        assert row_space_equal(h, linalg.null_space(g, p), p)
        assert quasi_twisted_closure(dual, g) == {"x": True, "y": True, "z": True}
    code = build_code(example3_spec())
    with pytest.raises(UnsupportedConstantsError, match="alpha = alpha\\^-1"):
        self_dual_decide(example3_spec(), code)


def weight_enumerator(m: np.ndarray, p: int, n: int) -> list[int]:
    """A_0..A_n of the row space of m, by enumerating every message."""
    counts = [0] * (n + 1)
    rows = m.shape[0]
    msgs = np.array(list(itertools.product(range(p), repeat=rows)),
                    dtype=np.int64).reshape(p ** rows, rows)
    for w in np.count_nonzero((msgs @ m) % p, axis=1):
        counts[w] += 1
    return counts


def macwilliams_transform(a: list[int], p: int, n: int) -> list[Fraction]:
    """B_j = |C|^-1 sum_i A_i K_j(i), with the q-ary Krawtchouk polynomial
    K_j(i) = sum_m (-1)^m (q-1)^(j-m) C(i, m) C(n-i, j-m)."""
    size = sum(a)
    return [
        Fraction(sum(a[i] * sum((-1) ** m * (p - 1) ** (j - m) * math.comb(i, m)
                                * math.comb(n - i, j - m) for m in range(j + 1))
                     for i in range(n + 1)), size)
        for j in range(n + 1)
    ]


def test_dual_weight_enumerator_is_macwilliams_transform(rng):
    # MacWilliams (Bell Syst. Tech. J. 42, 1963): the weight enumerator of
    # C^perp = rowspace(H) is the MacWilliams transform of C's enumerator
    def enumerable(spec):   # both codes have at most 10^5 words
        return spec.ring.field.p ** max(spec.degree_sum(), spec.ring.n - spec.degree_sum()) <= 10**5

    specs = [example1_spec(), example2_spec()] + [
        s for s in random_specs(rng, 200) if s.ring.n <= 9 and enumerable(s)][:20]
    assert any(has_unit_constants(s.ring) for s in specs[2:])
    assert any(not has_unit_constants(s.ring) for s in specs[2:])
    for spec in specs:
        ring, p = spec.ring, spec.ring.field.p
        a = weight_enumerator(build_code(spec).generator_matrix, p, ring.n)
        b = weight_enumerator(build_dual(spec).generator_matrix, p, ring.n)
        assert macwilliams_transform(a, p, ring.n) == b


def test_zero_and_full_grids():
    ring = RingParams(F5, 2, 2, 2, 1, -1, -1)
    binom = Poly.binomial(F5, 2, 1)
    zero_spec = CodeSpec(ring, ((binom, binom), (binom, binom)))
    zero_code = build_code(zero_spec)
    assert zero_code.dimension == 0 and zero_code.generator_matrix.shape == (0, 8)
    dual = build_dual(zero_spec)
    assert dual.dimension == 8 and linalg.rank(dual.generator_matrix, 5) == 8
    one = Poly.one(F5)
    full_spec = CodeSpec(ring, ((one, one), (one, one)))
    full_code = build_code(full_spec)
    assert full_code.dimension == 8
    assert build_dual(full_spec).generator_matrix.shape == (0, 8)
    assert quasi_twisted_closure(full_code, build_dual(full_spec).generator_matrix) == {
        "x": True, "y": True, "z": True}
    assert quasi_twisted_closure(zero_code, dual.generator_matrix) == {
        "x": True, "y": True, "z": True}


def test_repeated_root_x_axis_supported():
    # characteristic divides s: x^5 - 1 = (x - 1)^5 over F_5
    ring = RingParams(F5, 5, 1, 1, 1, 1, 1)
    divisor = poly5(-1, 1) * poly5(-1, 1)
    spec = CodeSpec(ring, ((divisor,),))
    code = build_code(spec)
    assert code.dimension == 3 == linalg.rank(code.generator_matrix, 5)
    dual = build_dual(spec)
    assert dual.dimension == 2 == linalg.rank(dual.generator_matrix, 5)
    assert not linalg.matmul(code.generator_matrix, dual.generator_matrix.T, 5).any()
    assert row_space_equal(
        dual.generator_matrix, linalg.null_space(code.generator_matrix, 5), 5)


def test_generators_annihilate_complement_products():
    for spec in (example1_spec(), example2_spec(), example3_spec()):
        ring = spec.ring
        z_fam, y_fam = code_idempotents(ring)
        binom = Poly.binomial(ring.field, ring.s, ring.alpha)
        complements = [[binom // p for p in row] for row in spec.divisor_grid]
        generators = cell_generators(ring, spec.divisor_grid)
        assert generators.shape == (ring.k * ring.l, *ring.shape())
        for x_grid, stack in ((spec.divisor_grid, generators),
                              (complements, cell_generators(ring, complements))):
            # one from_axis_polys product per cell, in (t, j) order
            assert [RingElement3D.from_tensor(ring, c) for c in stack] == [
                RingElement3D.from_axis_polys(ring, f.coeffs, y_fam.members[j].coeffs,
                                              z_fam.members[t].coeffs)
                for t, row in enumerate(x_grid) for j, f in enumerate(row)]
        for t in range(ring.k):
            for j in range(ring.l):
                lhs = RingElement3D.from_axis_polys(
                    ring, complements[t][j].coeffs, y_fam.members[j].coeffs,
                    z_fam.members[t].coeffs)
                for gen in generators:
                    assert (lhs * RingElement3D.from_tensor(ring, gen)).is_zero()


# (q, s, l, k, alpha, beta, gamma), n = 18..288: unit and non-unit constants
CELL_PRODUCT_RINGS = [
    (7, 3, 2, 3, 3, 2, 6),
    (13, 4, 4, 3, 2, 3, 5),
    (13, 6, 4, 3, 1, 1, 1),
    (5, 12, 4, 2, 1, 1, 4),
    (13, 12, 4, 3, 12, 3, 8),
    (13, 12, 6, 4, 1, 12, 1),
]


@pytest.mark.parametrize("q,s,l,k,alpha,beta,gamma", CELL_PRODUCT_RINGS)
def test_cell_product_flags_match_all_pairs_ring_products(q, s, l, k, alpha, beta, gamma):
    # the complements of a divisor grid against it, then grids with random
    # x-polynomials of degree <= s in some cells, against the same divisors:
    # pair by pair, the per-axis flag is the zero flag of the full product
    field = FieldSpec(q)
    ring = RingParams(field, s, l, k, alpha, beta, gamma)
    rng = np.random.default_rng(100 * s + 10 * l + k)
    divisors = binomial_divisors(field, s, ring.alpha)
    binom = Poly.binomial(field, s, ring.alpha)
    grid = [[divisors[rng.integers(len(divisors))] for _ in range(l)] for _ in range(k)]
    complements = [[binom // d for d in row] for row in grid]
    mixed = [[Poly.from_coeffs(field, rng.integers(0, q, s + 1)) if rng.random() < 0.5 else c
              for c in row] for row in complements]
    right = cell_generators(ring, grid)
    for left_grid in (complements, mixed):
        flags = cell_product_zero_flags(ring, left_grid, grid)
        left = cell_generators(ring, left_grid)
        products = ring_products(ring, left[:, None], right[None])
        assert flags.shape == (k * l, k * l)
        assert np.array_equal(flags, ~products.reshape(k * l, k * l, -1).any(axis=-1))
    assert cell_product_zero_flags(ring, complements, grid).all()
    assert not flags.all() and flags.any()


@pytest.mark.parametrize("fault", ["swapped", "merged"])
def test_cell_product_flags_match_ring_products_on_a_wrong_z_family(monkeypatch, fault):
    # the wrong z-families of test_verify_fails_a_wrong_z_family, on the
    # rings with k >= 3 (for k = 2, e_0 + e_1 is 1): the y- and z-flags read
    # from the members' values at the roots still match the full products
    # pair by pair, and e_0 + e_1 no longer annihilates e_1
    install_wrong_z_family(monkeypatch, fault)
    rng = np.random.default_rng(35)
    rings = [RingParams(FieldSpec(q), s, l, k, alpha, beta, gamma)
             for q, s, l, k, alpha, beta, gamma in CELL_PRODUCT_RINGS if k >= 3]
    assert len(rings) == 5
    for ring in rings:
        field, s, l, k = ring.field, ring.s, ring.l, ring.k
        divisors = binomial_divisors(field, s, ring.alpha)
        grid = [[divisors[rng.integers(len(divisors))] for _ in range(l)] for _ in range(k)]
        left_grid = [[Poly.from_coeffs(field, rng.integers(0, field.p, s + 1)) for _ in range(l)]
                     for _ in range(k)]
        flags = cell_product_zero_flags(ring, left_grid, grid)
        products = ring_products(ring, cell_generators(ring, left_grid)[:, None],
                                 cell_generators(ring, grid)[None])
        assert np.array_equal(flags, ~products.reshape(k * l, k * l, -1).any(axis=-1))
        assert flags[:l, l:2 * l].all() == (fault == "swapped")   # cells at t = 0 by t = 1


def test_g_at_the_inverse_roots_is_its_blocks_reordered(rng):
    # for beta, gamma = +-1 the inverse roots are the roots reordered, so the
    # self-dual check reorders G's blocks at the roots and never transforms
    # G twice: on 5 random grids of each of the 28 sign rings, and on G with
    # a row across two blocks, the reordered stack is crt_blocks at the
    # inverse roots exactly; with beta = 2 (example3) there is no such order
    checked, f13 = 0, FieldSpec(13)
    for field, s, l, k in ((F5, 2, 2, 2), (F7, 2, 3, 2), (f13, 3, 4, 3), (F5, 4, 4, 1), (f13, 2, 6, 2)):
        for ring in admissible_sign_rings(field, s, l, k):
            order = codes._inverse_block_order(ring)
            divisors = binomial_divisors(field, s, ring.alpha)
            for _ in range(5):
                grid = tuple(tuple(rng.choice(divisors) for _ in range(l)) for _ in range(k))
                g = build_code(CodeSpec(ring, grid)).generator_matrix
                mixed = g.copy()
                if len(g) > 1:
                    mixed[0] = (mixed[0] + mixed[-1]) % field.p
                for words in (g, mixed):
                    blocks, want = crt_blocks(ring, words), crt_blocks(ring, words, inverse=True)
                    assert blocks.per_block == want.per_block
                    assert np.array_equal(blocks.stack[order], want.stack)
                checked += 1
    assert checked == 140
    assert codes._inverse_block_order(load_spec(str(SPECS / "example3.json")).ring) is None


def bundled_specs() -> list[CodeSpec]:
    return [load_spec(str(path)) for path in sorted(SPECS.glob("example*.json"))]


def test_cell_tensor_stack_is_cached_and_read_only():
    for spec in bundled_specs():
        ring = spec.ring
        cells = codes._cell_tensors(ring)
        assert cells is codes._cell_tensors(ring) and not cells.flags.writeable
        with pytest.raises(ValueError):
            cells[0, 0, 0] = 1
        z_fam, y_fam = code_idempotents(ring)
        assert cells.shape == (ring.k * ring.l, ring.l, ring.k)
        for c, (t, j) in enumerate(itertools.product(range(ring.k), range(ring.l))):
            outer = np.outer(y_fam.members[j].coeffs, z_fam.members[t].coeffs) % ring.field.p
            assert np.array_equal(cells[c], outer)
            # full-degree members: the double reversal is the reversed members' product
            reversed_outer = np.outer(y_fam.members[j].reciprocal().coeffs,
                                      z_fam.members[t].reciprocal().coeffs) % ring.field.p
            assert np.array_equal(cells[c, ::-1, ::-1], reversed_outer)


def test_zeroing_returned_arrays_leaves_later_builds_unchanged():
    for spec in bundled_specs():
        ring = spec.ring
        made = [build_code(spec).generator_matrix, build_dual(spec).generator_matrix,
                cell_generators(ring, spec.divisor_grid)]
        kept = [m.copy() for m in made]
        for m in made:
            m[...] = 0
        again = [build_code(spec).generator_matrix, build_dual(spec).generator_matrix,
                 cell_generators(ring, spec.divisor_grid)]
        assert all(np.array_equal(a, b) for a, b in zip(again, kept))
        assert all(m.any() for m in kept)


def test_construction_reduces_no_axis_polynomial(monkeypatch):
    from ccode3d import ring3d

    calls = []
    reduce_axis = ring3d._reduce_axis

    def counting_reduce_axis(*args):
        calls.append(args)
        return reduce_axis(*args)

    monkeypatch.setattr(ring3d, "_reduce_axis", counting_reduce_axis)
    for spec in bundled_specs():
        build_code(spec)
        build_dual(spec)
        cell_generators(spec.ring, spec.divisor_grid)
    assert calls == []
    RingElement3D.from_axis_polys(spec.ring, [1], [1], [1])   # the counter is live
    assert len(calls) == 3


def test_general_constants_dual_lives_in_inverse_ring():
    # with constants outside +-1 the orthogonal complement is closed under
    # the shifts taken with inverted constants, not the original ones
    spec = example3_spec()
    ring = spec.ring
    code = build_code(spec)
    kernel = linalg.null_space(code.generator_matrix, 7)
    inv = ring.inverse_constants()
    assert (inv.alpha, inv.beta, inv.gamma) == (6, 4, 6)
    for axis in ("x", "y", "z"):
        for row in kernel:
            shifted = unflatten(inv, row).shift(axis).flatten()
            assert linalg.row_space_contains(kernel, shifted, 7)


def test_dual_spec_round_trip():
    for spec in (example1_spec(), example2_spec()):
        ds = dual_spec(spec)
        # dual of the dual is the original grid
        assert dual_spec(ds) == spec
        # and the dual-as-code generates the same row space as the dual matrix
        dual = build_dual(spec)
        via_spec = build_code(ds)
        assert row_space_equal(
            dual.generator_matrix, via_spec.generator_matrix, spec.ring.field.p)


def test_cell_partners_is_involution():
    # the inverse-root pairing is the closed form, an involution, and its
    # fixed points are the self-paired cells that self_dual_grid_count counts
    for ring in admissible_sign_rings(F5, 2, 2, 2) + admissible_sign_rings(F7, 2, 2, 3):
        partners = cell_partners(ring)
        cells = np.arange(ring.k * ring.l)
        assert not partners.flags.writeable
        assert np.array_equal(partners[partners], cells)
        closed_form = [reciprocal_cell(ring, t, j) for t in range(ring.k) for j in range(ring.l)]
        assert partners.tolist() == [t2 * ring.l + j2 for t2, j2 in closed_form]
        fixed = sum(pair == divmod(c, ring.l) for c, pair in enumerate(closed_form))
        assert int((partners == cells).sum()) == fixed
        divisors, self_reciprocal = codes._divisor_counts(ring.field, ring.s, ring.alpha)
        assert self_dual_grid_count(ring) == (
            self_reciprocal ** fixed * divisors ** ((len(cells) - fixed) // 2))


def test_cell_partners_refuses_non_unit_constants():
    ring = example3_spec().ring
    with pytest.raises(UnsupportedConstantsError) as err:
        cell_partners(ring)
    assert str(err.value) == (
        "cell pairing needs alpha = alpha^-1, beta = beta^-1, gamma = gamma^-1 "
        f"(constants 1 or -1); got ({ring.alpha}, {ring.beta}, {ring.gamma}) over F_7")


def test_self_dual_feasible_examples():
    feasible, reason = self_dual_feasible(F5, 2, 2, 2, 1)
    assert not feasible and "x - alpha" in reason
    feasible, _ = self_dual_feasible(F7, 3, 2, 2, -1)
    assert not feasible
    feasible, reason = self_dual_feasible(F5, 2, 2, 2, 1, beta=-1, gamma=-1)
    assert feasible and "beta = gamma" in reason
    feasible, _ = self_dual_feasible(F5, 5, 1, 1, 1)     # characteristic divides s
    assert feasible
    feasible, _ = self_dual_feasible(F5, 2, 1, 1, -1)    # even s with alpha=-1
    assert feasible


def test_odd_length_never_self_dual():
    ring = RingParams(F7, 3, 1, 3, -1, 1, -1)
    lin = poly7(1, 1)
    spec = CodeSpec(ring, ((lin,), (lin,), (lin,)))
    verdict, cert = self_dual_decide(spec, build_code(spec))
    assert not verdict and not cert["dimension_condition_ok"]


def test_self_dual_count_matches_enumeration():
    # orbit-factorized count against brute enumeration plus the grid decision
    rings = admissible_sign_rings(F5, 2, 2, 2) + admissible_sign_rings(F7, 2, 2, 2)
    # repeated factors: x^10 + 1 = ((x - 2)(x - 3))^5 over F_5 has 36 divisors,
    # 6 of them self-reciprocal; (x - alpha)^3 over F_3 has none
    repeated = [ring for ring in admissible_sign_rings(F5, 10, 1, 2) if ring.alpha == 4]
    assert codes._divisor_counts(F5, 10, 4) == (36, 6)
    assert [count_divisor_grids(ring) for ring in repeated] == [1296] * 4
    f3 = FieldSpec(3)
    f3_rings = admissible_sign_rings(f3, 3, 2, 2)
    assert f3_rings and all(codes._divisor_counts(f3, 3, ring.alpha) == (4, 0) for ring in f3_rings)
    for ring in rings + repeated + f3_rings:
        found = sum(
            1 for spec in enumerate_divisor_grids(ring)
            if self_dual_decide(spec)[0]
        )
        assert found == self_dual_grid_count(ring)


def divisibility_oracle(spec, t, j) -> bool:
    """The two-sided divisibility form of the per-cell condition: the
    partner's divisor divides q*, and the partner's q* divides p."""
    ring = spec.ring
    binom = Poly.binomial(ring.field, ring.s, ring.alpha)
    t2, j2 = reciprocal_cell(ring, t, j)
    p_cell, partner_p = spec.divisor_grid[t][j], spec.divisor_grid[t2][j2]
    q_star = (binom // p_cell).reciprocal()
    partner_q_star = (binom // partner_p).reciprocal()
    return (q_star % partner_p).is_zero() and (p_cell % partner_q_star).is_zero()


def test_fixed_point_test_matches_divisibility_oracle(rng):
    specs = [spec for ring in admissible_sign_rings(F5, 2, 2, 2) + admissible_sign_rings(F7, 2, 2, 2)
             for spec in enumerate_divisor_grids(ring)]
    sampled = [spec for spec in random_specs(rng, 400) if has_unit_constants(spec.ring)]
    assert len(sampled) > 50
    self_dual = 0
    for spec in specs + sampled:
        verdict, cert = self_dual_decide(spec)
        for cell in cert["cells"]:
            assert cell["ok"] == divisibility_oracle(spec, *cell["cell"])
        assert verdict == (cert["dimension_condition_ok"] and dual_spec(spec) == spec)
        self_dual += verdict
    assert self_dual > 0


def test_verdict_agreement_sampled_on_larger_ring():
    # (q, s, l, k) = (5, 4, 2, 2) has 4.3e9 grids; a seeded sample per sign
    # choice still exercises the grid-based verdict against the matrix test
    import random

    from conftest import SEED

    rng = random.Random(SEED)
    for ring in admissible_sign_rings(F5, 4, 2, 2):
        divisors = binomial_divisors(F5, 4, ring.alpha)
        for _ in range(64):
            combo = [rng.choice(divisors) for _ in range(4)]
            spec = CodeSpec(ring, ((combo[0], combo[1]), (combo[2], combo[3])))
            verdict, _ = self_dual_decide(spec)
            assert verdict == direct_self_dual_check(build_code(spec))


def test_selfdual_scan_beta_gamma_one_small():
    records = cyclic_yz_selfdual_scan(F5, 3, 2, 2)
    assert records, "scan covered no parameter tuples"
    for rec in records:
        assert rec["selfdual_grid_count"] == 0
        assert rec["feasible"] is False
    # cross-validate the orbit count against full enumeration where small
    for rec in records:
        ring = RingParams(F5, rec["s"], rec["l"], rec["k"], rec["alpha"], 1, 1)
        if count_divisor_grids(ring) <= 4096:
            found = sum(
                1 for spec in enumerate_divisor_grids(ring)
                if self_dual_decide(spec)[0]
            )
            assert found == 0


def test_selfdual_scan_and_grid_count_factor_nothing(monkeypatch):
    # the scan's counts and the grid sweep's sizing read the coset counts
    # alone: with factoring and the divisor table made to raise, the records
    # equal an unpatched run, q = 97, s <= 32 (2^32 divisors) among them
    scans = [(F7, 5, 3, 3), (FieldSpec(97), 32, 1, 1)]
    rings = [ring for tup in SWEEP_TUPLES + [(F5, 10, 1, 2)] for ring in admissible_sign_rings(*tup)]

    def no_factoring(*args):
        raise AssertionError("a binomial was factored or its divisors built")

    codes._divisor_counts.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(codes, "factor_binomial", no_factoring)
        m.setattr(codes, "binomial_divisors", no_factoring)
        patched = [cyclic_yz_selfdual_scan(*scan) for scan in scans]
        grid_counts = [count_divisor_grids(ring) for ring in rings]
    codes._divisor_counts.cache_clear()
    assert patched == [cyclic_yz_selfdual_scan(*scan) for scan in scans]
    assert grid_counts == [count_divisor_grids(ring) for ring in rings]
    assert any(rec["grid_count"] == 2 ** 32 for rec in patched[1])


def test_binomial_divisors_count():
    divisors = binomial_divisors(F5, 2, 1)
    assert [d.degree for d in divisors] == [0, 1, 1, 2]
    assert all(d.is_monic() for d in divisors)
    assert len(binomial_divisors(F7, 2, -1)) == 2   # x^2 + 1 irreducible over F_7
    # x^12 - 6 is one coset over F_13: irreducible, with nothing searched
    F13 = FieldSpec(13)
    assert binomial_divisors(F13, 12, 6) == (Poly.one(F13), Poly.binomial(F13, 12, 6))


# the sweep's grid tuples: each runs all admissible +-1 sign rings, the
# all-ones ring and the mixed-sign ones
SWEEP_TUPLES = [(F5, 2, 2, 2), (F7, 2, 2, 2)]


@pytest.mark.parametrize("q, s_max", [(3, 12), (5, 12), (7, 9), (11, 6), (13, 6)])
def test_divisor_counts_match_factoring_and_the_divisor_table(q, s_max):
    # every alpha, p | s included (q = 3: s = 3, 6, 9, 12; q = 5: s = 5, 10):
    # the divisor count against prod(m + 1) over the factor multiplicities,
    # the self-reciprocal count against the divisor-table walk for alpha = +-1;
    # for other alpha, d and monic(q*) divide x^s - alpha and x^s - alpha^-1,
    # which are coprime, so no divisor qualifies
    field = FieldSpec(q)
    for s in range(1, s_max + 1):
        for alpha in range(1, q):
            divisors, fixed = codes._divisor_counts(field, s, alpha)
            assert divisors == math.prod(m + 1 for _, m in factor_binomial(field, s, alpha))
            if alpha in (1, q - 1):
                assert fixed == self_reciprocal_count(field, s, alpha)
            else:
                assert fixed == 0


def test_count_divisor_grids_matches_the_divisors():
    # the coset count against the divisor table: repeated roots where q divides s
    rings = [ring for tup in SWEEP_TUPLES for ring in admissible_sign_rings(*tup)]
    rings += [RingParams(F5, s, l, k, alpha, 1, 1)
              for s, l, k, alpha in ((5, 1, 1, 1), (10, 1, 1, 4), (6, 2, 2, 1), (4, 4, 1, 4))]
    for ring in rings:
        divisors = binomial_divisors(ring.field, ring.s, ring.alpha)
        assert count_divisor_grids(ring) == len(divisors) ** (ring.k * ring.l)


@pytest.mark.parametrize("tup", SWEEP_TUPLES)
def test_stacked_sweep_report_equals_per_spec_reference(tup, monkeypatch):
    # a chunk of 7 puts chunk boundaries inside every ring
    monkeypatch.setattr(codes, "SWEEP_CHUNK", 7)
    report = sign_grid_sweep_report(*tup)
    assert report == per_spec_sweep_report(*tup)
    assert not any(report[key] for key in ("rank_mismatches", "orthogonality_failures",
                                "kernel_mismatches", "verdict_disagreements"))


@pytest.mark.parametrize("tup", SWEEP_TUPLES)
def test_sweep_checks_equal_one_spec_builds(tup, monkeypatch):
    # grid by grid, in ring order and then product order across chunk
    # boundaries: the ranks, the dimension, the verdict and the two product
    # flags read from the divisor and cell tables are the ones of
    # build_code's and build_dual's matrices, eliminated and multiplied whole
    monkeypatch.setattr(codes, "SWEEP_CHUNK", 7)
    rings = admissible_sign_rings(*tup)
    p = tup[0].p
    divisors = {ring.alpha: binomial_divisors(ring.field, ring.s, ring.alpha) for ring in rings}
    specs = ((r, spec) for r, ring in enumerate(rings) for spec in enumerate_divisor_grids(ring))
    chunk_alphas, self_orthogonal_seen = [], set()
    grams = codes._cell_grams(rings, rings[0].k * rings[0].l)
    for ring_of, grids, rank_g, rank_h, dims, verdicts, self_orthogonal, not_orthogonal in \
            codes._sweep_checks(rings, grams):
        assert 0 < len(grids) <= 7
        chunk_alphas.append([rings[r].alpha for r in dict.fromkeys(ring_of.tolist())])
        for b, (r, spec) in zip(range(len(grids)), specs):
            assert ring_of[b] == r
            assert [divisors[spec.ring.alpha][i] for i in grids[b]] == [
                d for row in spec.divisor_grid for d in row]
            g, h = build_code(spec).generator_matrix, build_dual(spec).generator_matrix
            assert rank_g[b] == linalg.rank(g, p) and rank_h[b] == linalg.rank(h, p)
            assert dims[b] == build_code(spec).dimension
            assert verdicts[b] == self_dual_decide(spec)[0]
            assert self_orthogonal[b] == (not linalg.matmul(g, g.T, p).any())
            assert not_orthogonal[b] == linalg.matmul(g, h.T, p).any()
            self_orthogonal_seen.add(bool(self_orthogonal[b]))
    assert next(specs, None) is None
    assert self_orthogonal_seen == {False, True}
    # a chunk of 7 straddles rings; over F_7, x^2 + 1 is irreducible, so one
    # chunk gathers from the tables of alpha = 1 (4 divisors) and -1 (2)
    assert any(len(alphas) == 2 for alphas in chunk_alphas)
    if tup[0] == F7:
        assert {alpha: len(d) for alpha, d in divisors.items()} == {1: 4, 6: 2}
        assert [1, 6] in chunk_alphas


@pytest.mark.parametrize("tup, self_dual", [((FieldSpec(3), 3, 2, 1), 0), ((F5, 5, 2, 1), 24)])
def test_sweep_report_equals_per_spec_reference_where_p_divides_s(tup, self_dual, monkeypatch):
    # x^3 -+ 1 = (x -+ 1)^3 over F_3 and x^5 -+ 1 = (x -+ 1)^5 over F_5:
    # repeated factors, two cells a ring, chunks that straddle rings, and
    # self-dual grids over F_5
    monkeypatch.setattr(codes, "SWEEP_CHUNK", 7)
    report = sign_grid_sweep_report(*tup)
    assert report == per_spec_sweep_report(*tup)
    assert report["self_dual"] == self_dual
    assert not any(report[key] for key in ("rank_mismatches", "orthogonality_failures",
                                "kernel_mismatches", "verdict_disagreements"))


def test_sweep_refuses_dependent_cell_tensors(monkeypatch):
    # the rank sums need the k*l cell tensors of every ring to be independent:
    # two equal cells are caught by the sweep's rank_stack, naming the ring
    cell_tensors = codes._cell_tensors

    def repeated_cell(ring):
        cells = cell_tensors(ring).copy()
        cells[1] = cells[0]
        return cells

    monkeypatch.setattr(codes, "_cell_tensors", repeated_cell)
    with pytest.raises(RuntimeError, match=r"cell tensors of RingParams\(.*linearly dependent"):
        sign_grid_sweep_report(F5, 2, 2, 1)


def test_sweep_builds_the_divisor_tables_once_per_alpha(monkeypatch):
    # the divisor side, bands included, depends on (field, s, alpha) only:
    # one code and one dual _bands call per alpha, however many rings share it
    calls = []
    bands = codes._bands

    def counting_bands(x_blocks, s):
        calls.append(s)
        return bands(x_blocks, s)

    monkeypatch.setattr(codes, "_bands", counting_bands)
    for tup in SWEEP_TUPLES + [(F5, 2, 2, 1)]:
        calls.clear()
        rings = admissible_sign_rings(*tup)
        sign_grid_sweep_report(*tup)
        assert len(calls) == 2 * len({ring.alpha for ring in rings})
    assert len(rings) == 8 and len(calls) == 4


def test_sweep_with_no_admissible_ring_checks_nothing():
    # y^3 - beta does not split over F_5 for beta = +-1: no ring, no grid
    assert admissible_sign_rings(F5, 2, 3, 1) == []
    report = sign_grid_sweep_report(F5, 2, 3, 1)
    assert report["specs"] == 0 and report["rings"] == []
    assert report == per_spec_sweep_report(F5, 2, 3, 1)


def _raise_constant_term(reversed_complement):
    # q* + 1 (q*(0) = 1, so the degree stays): H leaves ker G, and the grid
    # test looks for a divisor that is no longer monic(q*)
    def raised(field, s, alpha, p):
        q_star = reversed_complement(field, s, alpha, p)
        return None if q_star is None else q_star + Poly.one(field)
    return raised


def _pair_each_cell_with_itself(cell_partners):
    def itself(ring):
        cell_partners(ring)   # keeps the constants check
        return np.arange(ring.k * ring.l)
    return itself


def _repeat_first_band_row(bands):
    # G and H stay orthogonal but lose rank, so H spans less than ker G
    def repeated(x_blocks, s):
        rows = bands(x_blocks, s)
        for block, (_, count) in zip(rows, x_blocks):
            if count >= 2:
                block[1] = block[0]
        return rows
    return repeated


@pytest.mark.parametrize("fault, counters", [
    (("_reversed_complement", _raise_constant_term), ("orthogonality_failures", "kernel_mismatches")),
    (("cell_partners", _pair_each_cell_with_itself), ("verdict_disagreements",)),
    (("_bands", _repeat_first_band_row), ("rank_mismatches", "kernel_mismatches")),
])
def test_stacked_sweep_counters_stay_live(fault, counters, monkeypatch):
    # a wrong q*, a wrong cell pairing and a repeated band row, each in a
    # function that the sweep and the per-spec reference both call, show in
    # the stacked counters exactly as in the reference
    name, make = fault
    monkeypatch.setattr(codes, name, make(getattr(codes, name)))
    monkeypatch.setattr(codes, "SWEEP_CHUNK", 7)
    report = sign_grid_sweep_report(F5, 2, 2, 1)
    assert report == per_spec_sweep_report(F5, 2, 2, 1)
    assert all(report[counter] > 0 for counter in counters)


def test_sweep_byte_limit_is_inclusive(monkeypatch):
    # two band tables of (D, s, s) per alpha, and one chunk's gathered band
    # pairs and products, three (s, s) matrices for each of the cell pairs a
    # ring's Grams keep, at most min(SWEEP_CHUNK, grids) times the most any
    # ring keeps, all int64
    s, l, k = 2, 2, 1
    rings = admissible_sign_rings(F5, s, l, k)
    tables = sum(len(binomial_divisors(F5, s, alpha)) for alpha in {ring.alpha for ring in rings})
    grids = sum(count_divisor_grids(ring) for ring in rings)
    kept = []
    for ring in rings:
        cells = codes._cell_tensors(ring).reshape(l * k, l * k)
        kept.append(sum(int((cells @ other.T % 5 != 0).sum()) for other in (cells, cells[:, ::-1])))
    assert kept == [2 * l * k] * len(rings)   # its partner in G*G^T, itself in G*H^T
    size = 8 * s * s * (2 * tables + 3 * min(codes.SWEEP_CHUNK, grids) * max(kept))
    monkeypatch.setattr(codes, "SWEEP_BYTE_LIMIT", size)
    assert sign_grid_sweep_report(F5, s, l, k)["specs"] == grids
    monkeypatch.setattr(codes, "SWEEP_BYTE_LIMIT", size - 1)
    with pytest.raises(codes.SweepTooLargeError, match=f"needs {size} bytes .* limit of {size - 1} bytes"):
        sign_grid_sweep_report(F5, s, l, k)


def test_sweep_refuses_past_the_spec_limit(monkeypatch):
    rings = admissible_sign_rings(F5, 2, 2, 1)
    total = sum(count_divisor_grids(ring) for ring in rings)
    monkeypatch.setattr(codes, "SWEEP_SPEC_LIMIT", total)
    assert sign_grid_sweep_report(F5, 2, 2, 1)["specs"] == total
    monkeypatch.setattr(codes, "SWEEP_SPEC_LIMIT", total - 1)
    monkeypatch.setattr(codes, "CodeSpec", None)   # no spec may be made
    with pytest.raises(codes.SweepTooLargeError, match=f"has {total} specs .* limit of {total - 1}"):
        sign_grid_sweep_report(F5, 2, 2, 1)
