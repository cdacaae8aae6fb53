import contextlib
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccode3d import cli, linalg
from ccode3d.cli import load_spec
from ccode3d.codes import BuiltCode, admissible_sign_rings, build_code, sign_grid_sweep_report
from ccode3d.gf import FieldSpec

from conftest import SEED, enumerate_divisor_grids, row_space_equal

SPECS = Path(__file__).resolve().parent.parent / "specs"


@st.composite
def matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    data = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return np.array(data, dtype=np.int64), p


def test_rref_identity():
    eye = np.eye(4, dtype=np.int64)
    reduced, rk, pivots = linalg.rref(eye, 5)
    assert np.array_equal(reduced, eye) and rk == 4 and pivots == (0, 1, 2, 3)


def test_rref_proportional_rows():
    m = np.array([[1, 1], [2, 2]])
    _, rk, _ = linalg.rref(m, 5)
    assert rk == 1


def test_rank_by_exhaustive_span():
    # oracle: count distinct vectors in the row span over F_2
    m = np.array([[0, 1], [1, 0], [1, 1]])
    span = set()
    for coeffs in itertools.product(range(2), repeat=3):
        v = tuple((np.array(coeffs) @ m) % 2)
        span.add(v)
    assert len(span) == 2 ** linalg.rank(m, 2) == 4


@given(matrices())
def test_rref_idempotent(mp):
    m, p = mp
    reduced, rk, piv = linalg.rref(m, p)
    again, rk2, piv2 = linalg.rref(reduced, p)
    assert np.array_equal(reduced, again) and rk == rk2 and piv == piv2


@given(matrices())
def test_rank_equals_transpose_rank(mp):
    m, p = mp
    assert linalg.rank(m, p) == linalg.rank(m.T, p)


def test_row_space_contains_examples():
    m = np.array([[1, 0, 0]])
    assert linalg.row_space_contains(m, [0, 0, 0], 5)
    assert not linalg.row_space_contains(m, [0, 1, 0], 5)
    eye = np.eye(3, dtype=np.int64)
    assert linalg.row_space_contains(eye, [4, 2, 1], 5)
    with pytest.raises(ValueError):
        linalg.row_space_contains(m, [1, 0], 5)


@given(matrices())
def test_row_space_contains_actual_combinations(mp):
    m, p = mp
    combo = (np.arange(1, m.shape[0] + 1) @ m) % p
    assert linalg.row_space_contains(m, combo, p)


def test_row_space_contains_stack_examples():
    m = np.array([[1, 2, 0], [0, 0, 1]])
    assert linalg.row_space_contains(m, [[1, 2, 3], [2, 4, 0], [0, 0, 0]], 5)
    assert not linalg.row_space_contains(m, [[1, 2, 3], [0, 1, 0]], 5)
    assert linalg.row_space_contains(m, np.zeros((0, 3), dtype=np.int64), 5)
    with pytest.raises(ValueError):
        linalg.row_space_contains(m, [[1, 0]], 5)
    with pytest.raises(ValueError):
        linalg.row_space_contains(m, np.zeros((1, 1, 3), dtype=np.int64), 5)


@given(matrices(), st.data())
def test_row_space_contains_stack_matches_rank_oracle(mp, data):
    # a stack is inside the row space iff appending each vector keeps the rank
    m, p = mp
    cols = m.shape[1]
    span_rows = (np.arange(1, m.shape[0] + 1)[:, None] * m) % p
    free = np.array(data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols), max_size=3)),
        dtype=np.int64).reshape(-1, cols)
    stack = np.vstack([span_rows, free])
    base = linalg.rank(m, p)
    expected = all(linalg.rank(np.vstack([m, v]), p) == base for v in stack)
    assert linalg.row_space_contains(m, stack, p) == expected
    assert linalg.row_space_contains(m, span_rows, p)


def test_null_space_examples():
    assert linalg.null_space(np.eye(3, dtype=np.int64), 5).shape == (0, 3)
    basis = linalg.null_space(np.array([[1, 1]]), 2)
    assert np.array_equal(basis, np.array([[1, 1]]))


@given(matrices())
def test_rank_nullity_and_orthogonality(mp):
    m, p = mp
    basis = linalg.null_space(m, p)
    assert basis.shape[0] + linalg.rank(m, p) == m.shape[1]
    if basis.shape[0]:
        assert not linalg.matmul(m, basis.T, p).any()
    # every kernel row really is annihilated, checked entry-wise
    for row in basis:
        assert all(int(m[i] @ row) % p == 0 for i in range(m.shape[0]))
    assert linalg.rank(basis, p) == basis.shape[0]
    # the same basis, entry by entry, from the reduced form
    reduced, _, pivots = linalg.rref(m, p)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    expected = np.zeros_like(basis)
    for idx, fc in enumerate(free):
        expected[idx, fc] = 1
        for r, pc in enumerate(pivots):
            expected[idx, pc] = (-reduced[r, fc]) % p
    assert np.array_equal(basis, expected)


def test_row_space_equal():
    a = np.array([[1, 1, 0], [0, 0, 1]])
    b = np.array([[2, 2, 3], [0, 0, 4], [1, 1, 1]])
    assert row_space_equal(a, b, 5)
    c = np.array([[1, 0, 0]])
    assert not row_space_equal(a, c, 5)


@st.composite
def dual_candidates(draw):
    """(G, H, p) with H the kernel basis of G, random combinations of it
    (rank-deficient when they repeat or vanish), or either with one entry
    moved, which can take a row off ker G."""
    p = draw(st.sampled_from([5, 7]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    g = np.array(draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)),
                 dtype=np.int64).reshape(rows, cols)
    h = linalg.null_space(g, p)
    if draw(st.booleans()):
        count = draw(st.integers(0, h.shape[0] + 1))
        mix = draw(st.lists(st.integers(0, p - 1), min_size=count * h.shape[0],
                            max_size=count * h.shape[0]))
        h = np.array(mix, dtype=np.int64).reshape(count, h.shape[0]) @ h % p
    if len(h) and draw(st.booleans()):
        h[draw(st.integers(0, len(h) - 1)), draw(st.integers(0, cols - 1))] += 1
        h %= p
    return g, h, p


@given(dual_candidates())
def test_rank_complement_rule_matches_the_kernel_oracle(ghp):
    # H spans ker G iff G*H^T = 0 and rank H = cols - rank G: the rule of
    # verify and the sweep, against reduced-form equality with the kernel
    g, h, p = ghp
    orthogonal = not linalg.matmul(g, h.T, p).any()
    rule = orthogonal and linalg.rank(h, p) == g.shape[1] - linalg.rank(g, p)
    assert rule == row_space_equal(h, linalg.null_space(g, p), p)


def test_empty_matrix_conventions():
    empty = np.zeros((0, 4), dtype=np.int64)
    assert linalg.rank(empty, 5) == 0
    assert linalg.null_space(empty, 5).shape == (4, 4)
    assert linalg.row_space_contains(empty, [0, 0, 0, 0], 5)
    assert not linalg.row_space_contains(empty, [1, 0, 0, 0], 5)


@st.composite
def stacks(draw):
    # rows below, equal to and above cols, zero rows and all-zero matrices
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    count = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 6))
    entries = st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    m = np.array(draw(st.lists(entries, min_size=count, max_size=count)),
                 dtype=np.int64).reshape(count, rows, cols)
    if rows:
        for b, r in draw(st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, rows - 1)),
                                  max_size=3)):
            m[b, r] = 0
    if draw(st.booleans()):
        m[draw(st.integers(0, count - 1))] = 0
    return m, p


def assert_stack_ranks_match_rank(m, p):
    ranks = linalg.rank_stack(m, p)
    assert ranks.shape == m.shape[:1]
    for b in range(m.shape[0]):
        assert ranks[b] == linalg.rank(m[b], p)
        # rank-nullity, which the sweep's kernel check rests on
        assert m.shape[2] - ranks[b] == linalg.null_space(m[b], p).shape[0]


@given(stacks())
def test_rank_stack_matches_rank(mp):
    assert_stack_ranks_match_rank(*mp)


@pytest.mark.parametrize("shape", [(1, 2, 5), (1, 5, 2), (3, 6, 3), (2, 3, 6), (2, 0, 4), (4, 4, 4)])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_stack_kernels_on_fixed_shapes(shape, p):
    m = np.random.default_rng(shape[1] * 100 + shape[2] * 10 + p).integers(0, p, shape)
    if shape[1] > 1:
        m[0, -1] = 2 * m[0, 0]   # a dependent row
    m[-1, :1] = 0                # a zero row (the whole matrix for a stack of one row)
    assert_stack_ranks_match_rank(m, p)
    zero = np.zeros(shape, dtype=np.int64)
    assert_stack_ranks_match_rank(zero, p)
    assert not linalg.rank_stack(zero, p).any()


@pytest.mark.parametrize("p", [2, 13, 65521])
def test_products_vanish_matches_int64_products(monkeypatch, p):
    # random stacks, stacks whose products vanish, and one nonzero product
    # in the last slice, with slices of one row forced by a tiny budget
    rng = np.random.default_rng(p)
    for budget in (linalg.PRODUCT_BYTES, 1):
        monkeypatch.setattr(linalg, "PRODUCT_BYTES", budget)
        for count, rows, other, cols in ((1, 5, 4, 7), (3, 4, 6, 5), (2, 0, 3, 4), (2, 3, 0, 4)):
            a = rng.integers(0, p, (count, rows, cols))
            b = rng.integers(0, p, (count, other, cols))
            # rows of the kernel of each a[i] (zero rows past its dimension): a vanishing product
            kernel = np.zeros_like(b)
            for m, rows_out in zip(a, kernel):
                basis = linalg.null_space(m, p)[:other] if rows else b[0]
                rows_out[:len(basis)] = basis
            for right in (b, kernel):
                expected = not any(linalg.matmul(x, y.T, p).any() for x, y in zip(a, right))
                assert linalg.products_vanish(a.astype(np.float64),
                                              right.astype(np.float64), p) == expected
    a = np.zeros((2, 3, 4096))
    b = np.full((2, 2, 4096), p - 1.0)
    assert linalg.products_vanish(a, b, p)
    a[1, 2, :4093] = p - 1                            # 4093 * (p - 1)^2, exact in float64
    assert not linalg.products_vanish(a, b, p)


@contextlib.contextmanager
def counting_eliminations():
    """The list of the stacks that reach rank_stack's column loop, in order."""
    seen = []
    eliminate = linalg._eliminated_ranks

    def counting(a, p):
        seen.append(a.copy())
        return eliminate(a, p)

    linalg._eliminated_ranks = counting
    try:
        yield seen
    finally:
        linalg._eliminated_ranks = eliminate


@pytest.fixture
def eliminations():
    with counting_eliminations() as seen:
        yield seen


@st.composite
def leading_column_stacks(draw):
    """(m, p, tangled): a stack that mixes matrices whose nonzero rows lead
    (have their first nonzero entry) in distinct columns, in any row order
    and among zero rows, with matrices where two rows lead in the same
    column, of full rank (a row plus a multiple of a row that leads
    earlier) or rank-deficient (a row a multiple of another), and all-zero
    matrices; tangled lists the matrices of the second kind."""
    p = draw(st.sampled_from([2, 3, 5, 13, 65521]))
    count, rows, cols = draw(st.integers(1, 5)), draw(st.integers(0, 6)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = np.zeros((count, rows, cols), dtype=np.int64)
    tangled = []
    for b in range(count):
        kind = rng.choice(["echelon", "full", "deficient", "zero"])
        if kind == "zero":
            continue
        filled = rng.integers(0, min(rows, cols) + 1)
        placed = rng.permutation(rows)[:filled]          # row placed[i] leads at leads[i]
        leads = np.sort(rng.choice(cols, filled, replace=False))
        for r, c in zip(placed, leads):
            m[b, r, c] = rng.integers(1, p)
            m[b, r, c + 1:] = rng.integers(0, p, cols - c - 1)
        if kind != "echelon" and filled >= 2:
            first, later = placed[np.sort(rng.choice(filled, 2, replace=False))]   # first leads earlier
            if kind == "full":   # later now leads where first does, and the span is unchanged
                m[b, later] = (m[b, later] + rng.integers(1, p) * m[b, first]) % p
            else:
                m[b, later] = rng.integers(1, p) * m[b, first] % p
            tangled.append(b)
    return m, p, tangled


@given(leading_column_stacks())
def test_rank_stack_settles_echelon_matrices_by_their_leading_columns(stack):
    m, p, tangled = stack
    for budget in (linalg.PRODUCT_BYTES, 1):   # the residues in one slice, and a row a slice
        with mock.patch.object(linalg, "PRODUCT_BYTES", budget), counting_eliminations() as eliminated:
            ranks = linalg.rank_stack(m, p)
        assert ranks.tolist() == [linalg.rank(matrix, p) for matrix in m]
        # only the matrices with a repeated leading column reach the column loop
        assert [a.tolist() for a in eliminated] == ([m[tangled].tolist()] if tangled else [])


@pytest.mark.parametrize("shape", [(3, 0, 4), (2, 3, 0), (0, 3, 3), (0, 0, 0), (2, 4, 5)])
def test_rank_stack_of_empty_and_zero_stacks(shape):
    zero = np.zeros(shape, dtype=np.int64)
    ranks = linalg.rank_stack(zero, 7)
    assert ranks.shape == shape[:1] and not ranks.any()


def test_verify_never_eliminates(eliminations):
    # on every acceptance spec (the three examples and every grid of the +-1
    # sign rings over (5, 2, 2, 2) and (7, 2, 2, 2)) each CRT block of G and
    # of H is a band of rows x^i * f(x), which lead at i + ord(f): verify
    # builds both and ranks every block by its leading columns
    specs = [load_spec(str(SPECS / f"example{i}.json")) for i in (1, 2, 3)]
    specs += [spec for q in (5, 7) for ring in admissible_sign_rings(FieldSpec(q), 2, 2, 2)
              for spec in enumerate_divisor_grids(ring)]
    for spec in specs:
        checks = dict(cli._verify_checks(spec, 2, SEED))
        assert all(checks.values()), (spec, checks)
    assert not eliminations


def test_sweep_eliminates_only_its_cell_tensors(eliminations):
    # the code and dual bands of the divisor tables are in echelon form; the
    # (k*l, k*l) matrices of the rings' cell tensors are not, and reach the loop
    assert sign_grid_sweep_report(FieldSpec(5), 2, 2, 2)["specs"] == 2048
    rings = len(admissible_sign_rings(FieldSpec(5), 2, 2, 2))
    assert [a.shape for a in eliminations] == [(rings, 4, 4)]


def test_verify_eliminates_a_repeated_row_and_fails(capsys, monkeypatch, eliminations):
    # a G with one row repeated has two rows leading in the same column of
    # one block: that block goes through the loop, and rank G falls short
    def repeated_row(spec):
        g = build_code(spec).generator_matrix.copy()
        g[1] = g[0]
        return BuiltCode(spec.ring, g)

    monkeypatch.setattr(cli, "build_code", repeated_row)
    assert cli.main(["verify", "--spec", str(SPECS / "example1.json"), "--pairs", "2"]) == 1
    assert "FAIL generator_rank_equals_dimension" in capsys.readouterr().out
    assert len(eliminations) == 1
