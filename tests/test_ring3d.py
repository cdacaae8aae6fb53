import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccode3d import ring3d
from ccode3d.codes import binomial_divisors, cell_generators, code_idempotents
from ccode3d.gf import FieldMismatchError, FieldSpec
from ccode3d.idempotents import build_constacyclic_idempotents
from ccode3d.poly import Poly
from ccode3d.ring3d import (
    RingElement3D,
    RingParams,
    axis_products,
    axis_table,
    kron_words,
    ring_products,
    shift_orbit_orthogonal_flags,
    split_product_zero_flags,
    unflatten,
)

from conftest import annihilator_orthogonality_flags, shift_words

F5 = FieldSpec(5)
F7 = FieldSpec(7)


def brute_mul_oracle(pr: RingParams, f, g) -> np.ndarray:
    """Schoolbook product of two (s, l, k) tensors over all monomial pairs,
    wraps reduced one power at a time with explicit constant factors;
    independent of the library path."""
    p = pr.field.p
    out = np.zeros(pr.shape(), dtype=np.int64)
    for i1, j1, t1 in itertools.product(range(pr.s), range(pr.l), range(pr.k)):
        a = int(f[i1, j1, t1])
        if not a:
            continue
        for i2, j2, t2 in itertools.product(range(pr.s), range(pr.l), range(pr.k)):
            b = int(g[i2, j2, t2])
            if not b:
                continue
            scale = a * b
            scale *= pr.alpha ** ((i1 + i2) // pr.s)
            scale *= pr.beta ** ((j1 + j2) // pr.l)
            scale *= pr.gamma ** ((t1 + t2) // pr.k)
            # reduced per term, so n terms < p fit int64 at every p < 2^16
            out[(i1 + i2) % pr.s, (j1 + j2) % pr.l, (t1 + t2) % pr.k] += scale % p
    return out % p


def monomial(pr: RingParams, i: int, j: int, t: int) -> np.ndarray:
    """The tensor of x^i y^j z^t, each exponent reduced with its axis constant."""
    out = np.zeros(pr.shape(), dtype=np.int64)
    scale = pr.alpha ** (i // pr.s) * pr.beta ** (j // pr.l) * pr.gamma ** (t // pr.k)
    out[i % pr.s, j % pr.l, t % pr.k] = scale % pr.field.p
    return out


def word(pr: RingParams, tensor) -> np.ndarray:
    """The z-major word of a tensor: coefficient (i, j, t) at t*s*l + j*s + i."""
    return np.asarray(tensor, dtype=np.int64).transpose(2, 1, 0).reshape(pr.n)


def tensor(pr: RingParams, w) -> np.ndarray:
    """The inverse of ``word``."""
    return np.asarray(w, dtype=np.int64).reshape(pr.k, pr.l, pr.s).transpose(2, 1, 0)


def orbit_dots(pr: RingParams, f, g) -> list[int]:
    """The dot products of f's word with x^i y^j z^t * reverse(g) in the ring
    with the inverse constants, for every monomial in (i, j, t) order; the
    shifts are schoolbook products with monomial tensors."""
    inv = pr.inverse_constants()
    a, b = word(pr, f), tensor(inv, word(pr, g)[::-1])
    return [int(a @ word(inv, brute_mul_oracle(inv, monomial(inv, i, j, t), b))) % pr.field.p
            for i, j, t in itertools.product(range(pr.s), range(pr.l), range(pr.k))]


@st.composite
def params_and_elements(draw, count=1, unit_constants=False):
    field = draw(st.sampled_from([F5, F7]))
    s, l, k = (draw(st.integers(1, 3)) for _ in range(3))
    units = [1, field.p - 1]
    consts = [draw(st.sampled_from(units)) if unit_constants
              else draw(st.integers(1, field.p - 1)) for _ in range(3)]
    pr = RingParams(field, s, l, k, *consts)
    elems = tuple(
        RingElement3D.from_tensor(
            pr, [[[draw(st.integers(0, field.p - 1)) for _ in range(k)]
                  for _ in range(l)] for _ in range(s)])
        for _ in range(count)
    )
    return (pr, *elems)


def ring1() -> RingParams:
    return RingParams(F5, 2, 2, 2, 1, -1, -1)


def test_params_validation():
    with pytest.raises(ValueError):
        RingParams(F5, 0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        RingParams(F5, 2, 2, 2, 0, 1, 1)
    assert ring1().alpha == 1 and ring1().beta == 4 and ring1().gamma == 4
    inv = ring1().inverse_constants()
    assert (inv.alpha, inv.beta, inv.gamma) == (1, 4, 4)


def test_flatten_golden():
    pr = ring1()
    one = RingElement3D.from_tensor(pr, monomial(pr, 0, 0, 0))
    assert list(one.flatten()) == [1, 0, 0, 0, 0, 0, 0, 0]
    m = RingElement3D.from_tensor(pr, monomial(pr, 1, 1, 1))
    assert list(m.flatten()).index(1) == 7
    # row polynomial (x-1)(-y+3)(-z+3) over F_5
    e = RingElement3D.from_axis_polys(pr, [-1, 1], [3, -1], [3, -1])
    assert list(e.flatten()) == [v % 5 for v in [1, -1, -2, 2, -2, 2, -1, 1]]


@given(params_and_elements())
def test_unflatten_inverts_flatten(pe):
    pr, e = pe
    assert unflatten(pr, e.flatten()) == e


def test_flatten_layout_positions():
    pr = RingParams(F5, 2, 3, 2, 1, 1, 1)
    for i, j, t in itertools.product(range(2), range(3), range(2)):
        m = RingElement3D.from_tensor(pr, monomial(pr, i, j, t))
        assert list(m.flatten()).index(1) == t * 6 + j * 2 + i
        assert list(word(pr, m.coeffs)) == list(m.flatten())


def test_mul_examples():
    pr = ring1()
    x = RingElement3D.from_tensor(pr, monomial(pr, 1, 0, 0))
    assert x * x == RingElement3D.from_axis_polys(pr, [pr.alpha], [1], [1])
    z = RingElement3D.from_tensor(pr, monomial(pr, 0, 0, 1))
    assert z * z == RingElement3D.from_axis_polys(pr, [1], [1], [pr.gamma])
    all_one = RingParams(F5, 2, 2, 2, 1, 1, 1)
    xy = RingElement3D.from_tensor(all_one, [[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
    sq = xy * xy
    expected = np.zeros((2, 2, 2), dtype=np.int64)
    expected[0, 0, 0] = 2   # x^2 + y^2 = 1 + 1
    expected[1, 1, 0] = 2   # 2xy
    assert np.array_equal(sq.coeffs, expected)


def test_idempotent_orthogonality_lifts_to_ring():
    pr = ring1()
    fam = build_constacyclic_idempotents(F5, 2, pr.gamma)
    e0 = RingElement3D.from_axis_polys(pr, [1], [1], fam.members[0].coeffs)
    e1 = RingElement3D.from_axis_polys(pr, [1], [1], fam.members[1].coeffs)
    assert (e0 * e1).is_zero()
    zero, ortho = annihilator_orthogonality_flags(pr, e0.coeffs[None], e1.coeffs[None])
    assert zero.tolist() == ortho.tolist() == [True]


@given(params_and_elements(count=2))
def test_mul_matches_bruteforce_oracle(pe):
    pr, f, g = pe
    assert np.array_equal((f * g).coeffs, brute_mul_oracle(pr, f.coeffs, g.coeffs))


@given(params_and_elements(count=5))
def test_ring_products_of_stacks_match_pairwise_oracle(pe):
    # a (3, 1, ...) stack times a (1, 2, ...) stack broadcasts to all six products, in order
    pr, *elems = pe
    left, right = elems[:3], elems[3:]
    out = ring_products(pr, np.stack([f.coeffs for f in left])[:, None],
                        np.stack([g.coeffs for g in right])[None])
    assert out.shape == (3, 2) + pr.shape()
    for u, f in enumerate(left):
        for v, g in enumerate(right):
            assert np.array_equal(out[u, v], brute_mul_oracle(pr, f.coeffs, g.coeffs))


# (p, s, l, k, alpha, beta, gamma): ladder shapes up to (12, 4, 3) with
# non-unit constants, axis lengths of 1, and the largest admitted prime
WIDE_MUL_CASES = [
    (13, 12, 4, 3, 6, 3, 8),
    (13, 6, 4, 3, 2, 12, 5),
    (7, 12, 2, 3, 3, 5, 6),
    (5, 8, 4, 1, 2, 3, 4),
    (7, 1, 1, 1, 3, 1, 6),
    (7, 1, 6, 1, 1, 5, 1),
    (13, 1, 1, 12, 1, 1, 7),
    (5, 4, 1, 2, 3, 1, 2),
    (65521, 12, 4, 3, 65519, 65520, 40000),
    (65521, 1, 3, 2, 65520, 12345, 65000),
]


@pytest.mark.parametrize("p,s,l,k,alpha,beta,gamma", WIDE_MUL_CASES)
def test_mul_matches_bruteforce_oracle_wide(p, s, l, k, alpha, beta, gamma):
    pr = RingParams(FieldSpec(p), s, l, k, alpha, beta, gamma)
    rng = np.random.default_rng(1000 * s + 100 * l + k)
    f, g = (RingElement3D.from_tensor(pr, rng.integers(0, p, pr.shape())) for _ in range(2))
    assert np.array_equal((f * g).coeffs, brute_mul_oracle(pr, f.coeffs, g.coeffs))
    # every coefficient p - 1: the largest residues the int64 stages meet
    full = RingElement3D.from_tensor(pr, np.full(pr.shape(), p - 1))
    assert np.array_equal((full * full).coeffs, brute_mul_oracle(pr, full.coeffs, full.coeffs))
    assert np.array_equal((full * f).coeffs, brute_mul_oracle(pr, full.coeffs, f.coeffs))


@pytest.mark.parametrize("p,s,l,k,alpha,beta,gamma", WIDE_MUL_CASES)
def test_ring_products_pairwise_match_oracle(p, s, l, k, alpha, beta, gamma):
    # (P, ...) by (P, ...) gives the P products f[u] * g[u]; an empty stack gives none
    pr = RingParams(FieldSpec(p), s, l, k, alpha, beta, gamma)
    rng = np.random.default_rng(7 + 1000 * s + 100 * l + k)
    f, g = rng.integers(0, p, (2, 4) + pr.shape())
    f[0] = p - 1   # the largest residues the int64 stages meet
    out = ring_products(pr, f, g)
    assert out.shape == (4,) + pr.shape()
    for u in range(4):
        assert np.array_equal(out[u], brute_mul_oracle(pr, f[u], g[u]))
    assert ring_products(pr, f[:0], g[:0]).shape == (0,) + pr.shape()


@pytest.mark.parametrize("p,s,l,k,alpha,beta,gamma", WIDE_MUL_CASES)
def test_axis_tables_are_reduced_monomial_products(p, s, l, k, alpha, beta, gamma):
    field = FieldSpec(p)
    pr = RingParams(field, s, l, k, alpha, beta, gamma)
    for m, c in ((pr.s, pr.alpha), (pr.l, pr.beta), (pr.k, pr.gamma)):
        table = axis_table(m, c, p)
        assert table.shape == (m, m, m)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 2
        binom = Poly.binomial(field, m, c)
        for i, i2 in itertools.product(range(m), repeat=2):
            _, rem = divmod(Poly.x_power(field, i) * Poly.x_power(field, i2), binom)
            expected = list(rem.coeffs) + [0] * (m - len(rem.coeffs))
            assert list(table[i, i2]) == expected


@pytest.mark.parametrize("p", [5, 7, 13, 65521])
def test_axis_products_match_the_axis_table(p):
    # sum_{i, i'} a[i] b[i'] T[i, i', d] for every m <= 12 and a unit and a
    # non-unit constant, on pairwise and all-pairs broadcasts
    rng = np.random.default_rng(p)
    for m in range(1, 13):
        for constant in (1, p - 1, 2, p - 2):
            a, b = rng.integers(0, p, (2, 5, m))
            a[0] = b[0] = p - 1   # the largest residues the int64 stages meet
            table = axis_table(m, constant, p)
            want = np.einsum("ui,vj,ijd->uvd", a, b, table) % p
            assert np.array_equal(axis_products(m, constant, p, a[:, None], b[None]), want)
            assert np.array_equal(axis_products(m, constant, p, a, b), want[range(5), range(5)])
    assert axis_products(3, 2, p, np.zeros((0, 3)), np.zeros((0, 3))).shape == (0, 3)


@given(params_and_elements(count=3))
def test_mul_algebra_laws(pe):
    pr, f, g, h = pe
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    one = RingElement3D.from_tensor(pr, monomial(pr, 0, 0, 0))
    assert one * f == f


@given(params_and_elements())
def test_shift_is_multiplication_by_variable(pe):
    pr, e = pe
    for axis, (i, j, t) in zip("xyz", [(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        assert e.shift(axis) == RingElement3D.from_tensor(pr, monomial(pr, i, j, t)) * e


@given(params_and_elements(count=3))
def test_shift_words_matches_element_shift(pe):
    pr, *elems = pe
    words = np.vstack([e.flatten() for e in elems])
    for axis in "xyz":
        expected = np.vstack([e.shift(axis).flatten() for e in elems])
        assert np.array_equal(shift_words(pr, words, axis), expected)
    assert shift_words(pr, words[:0], "x").shape == (0, pr.n)


@given(params_and_elements(count=3))
def test_kron_words_matches_axis_products(pe):
    # a (2, 2, k, s) stack of x-rows against two cells g_c(y)*h_c(z)
    pr, a, b, c = pe
    p = pr.field.p
    axis_polys = [(b.coeffs[0, :, 0], c.coeffs[0, 0, :]), (c.coeffs[-1, :, 0], b.coeffs[0, -1, :])]
    cells = np.stack([np.outer(gy, hz) % p for gy, hz in axis_polys])
    x_rows = np.stack([np.stack([a.coeffs[:, (u + v) % pr.l, :].T for v in range(2)])
                       for u in range(2)])          # k rows of s x-coefficients per cell
    expected = np.array([[[RingElement3D.from_axis_polys(pr, row, gy, hz).flatten()
                           for row in x_rows[u, v]]
                          for v, (gy, hz) in enumerate(axis_polys)] for u in range(2)])
    assert np.array_equal(kron_words(pr, x_rows, cells), expected.reshape(2, 2, pr.k, pr.n))
    assert np.array_equal(kron_words(pr, x_rows[0, :1], cells[:1]), expected[0, :1])


@given(params_and_elements())
def test_z_shift_rotates_blocks(pe):
    pr, e = pe
    vec = e.flatten()
    blocks = vec.reshape(pr.k, pr.s * pr.l)
    rotated = np.vstack([(blocks[-1] * pr.gamma) % pr.field.p, blocks[:-1]])
    assert np.array_equal(e.shift("z").flatten(), rotated.reshape(-1))


def test_orthogonality_equiv_trivial_cases():
    pr = ring1()
    z = np.zeros(pr.shape(), dtype=np.int64)
    f = RingElement3D.from_axis_polys(pr, [1, 2], [3, 1], [0, 1]).coeffs
    zero, ortho = annihilator_orthogonality_flags(pr, np.stack([f, z]), np.stack([z, f]))
    assert zero.tolist() == ortho.tolist() == [True, True]


@given(params_and_elements(count=2))
def test_product_zero_iff_shift_orbit_orthogonal(pe):
    pr, f, g = pe
    zero, ortho = annihilator_orthogonality_flags(pr, f.coeffs[None], g.coeffs[None])
    assert zero.tolist() == ortho.tolist()
    assert ortho[0] == (not any(orbit_dots(pr, f.coeffs, g.coeffs)))


# (q, s, l, k, alpha, beta, gamma): y and z split over F_q; unit and non-unit constants
BRIDGE_RINGS = [
    (5, 4, 2, 2, 1, 1, 4),
    (5, 9, 4, 1, 2, 1, 3),
    (7, 6, 3, 2, 1, 1, 1),
    (7, 3, 2, 3, 3, 2, 6),
    (13, 6, 2, 2, 12, 1, 12),
    (13, 4, 4, 3, 2, 3, 5),
]


@pytest.mark.parametrize("q,s,l,k,alpha,beta,gamma", BRIDGE_RINGS)
def test_batched_bridge_flags_match_pairwise_oracle(q, s, l, k, alpha, beta, gamma):
    field = FieldSpec(q)
    pr = RingParams(field, s, l, k, alpha, beta, gamma)
    rng = random.Random(1000 * q + 100 * s + 10 * l + k)
    divisors = binomial_divisors(field, s, pr.alpha)
    grid = [[rng.choice(divisors) for _ in range(l)] for _ in range(k)]
    binom = Poly.binomial(field, s, pr.alpha)
    gens = cell_generators(pr, grid)
    comps = cell_generators(pr, [[binom // d for d in row] for row in grid])
    # every generator annihilates every complement, so these pairs walk the whole orbit
    f, g = [gens, gens], [comps, comps[::-1]]
    randoms = np.array([[rng.randrange(q) for _ in range(pr.n)] for _ in range(16)])
    f.append(np.stack([tensor(pr, w) for w in randoms[:8]]))
    g.append(np.stack([tensor(pr, w) for w in randoms[8:]]))
    # random pairs whose first orbit dot product is zero, so the walk goes on and fails
    for fw, gw in zip(randoms[:8], randoms[8:]):
        fw[0] = 1
        gw[-1] = (gw[-1] - fw @ gw[::-1]) % q
        assert fw @ gw[::-1] % q == 0
    f.append(np.stack([tensor(pr, w) for w in randoms[:8]]))
    g.append(np.stack([tensor(pr, w) for w in randoms[8:]]))
    # f = 3 is orthogonal to every shift of the reversed g = x^(s-2) y^(l-2) z^(k-2) but the last
    last = monomial(pr, (s - 2) % s, (l - 2) % l, (k - 2) % k)
    f.append(3 * monomial(pr, 0, 0, 0)[None])
    g.append(last[None])
    f, g = np.concatenate(f), np.concatenate(g)
    dots = [orbit_dots(pr, a, b) for a, b in zip(f, g)]
    assert [u for u, d in enumerate(dots[-1]) if d] == [pr.n - 1]

    zero, ortho = annihilator_orthogonality_flags(pr, f, g)
    assert zero.tolist() == [not brute_mul_oracle(pr, a, b).any() for a, b in zip(f, g)]
    assert ortho.tolist() == [not any(d) for d in dots]
    assert zero[:2 * k * l].all() and not zero[2 * k * l:].any()
    assert np.array_equal(zero, ortho)
    zero, ortho = annihilator_orthogonality_flags(pr, f[:0], g[:0])
    assert zero.shape == ortho.shape == (0,)


def bridge_roots(pr: RingParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    z, y = code_idempotents(pr)
    return y.roots, z.roots


@pytest.mark.parametrize("q,s,l,k,alpha,beta,gamma", BRIDGE_RINGS)
def test_split_product_flags_match_ring_products(q, s, l, k, alpha, beta, gamma):
    # random pairs, whose products are nonzero save by chance, and every
    # generator against every complement of a divisor grid, which are zero
    field = FieldSpec(q)
    pr = RingParams(field, s, l, k, alpha, beta, gamma)
    rng = np.random.default_rng(1000 * q + 100 * s + 10 * l + k)
    divisors = binomial_divisors(field, s, pr.alpha)
    grid = [[divisors[rng.integers(len(divisors))] for _ in range(l)] for _ in range(k)]
    binom = Poly.binomial(field, s, pr.alpha)
    gens = cell_generators(pr, grid)
    comps = cell_generators(pr, [[binom // d for d in row] for row in grid])
    cells = k * l
    f = np.concatenate([np.repeat(gens, cells, axis=0), rng.integers(0, q, (40,) + pr.shape())])
    g = np.concatenate([np.tile(comps, (cells, 1, 1, 1)), rng.integers(0, q, (40,) + pr.shape())])
    f[-8:] = gens[rng.integers(cells, size=8)]   # a generator times a random tensor
    zero = split_product_zero_flags(pr, *bridge_roots(pr), f, g)
    assert zero.tolist() == (~ring_products(pr, f, g).reshape(len(f), -1).any(axis=1)).tolist()
    assert zero[:cells * cells].all()
    assert np.array_equal(zero, shift_orbit_orthogonal_flags(pr, f, g))
    assert split_product_zero_flags(pr, *bridge_roots(pr), f[:0], g[:0]).shape == (0,)


def test_split_product_flags_refuse_wrong_roots():
    pr = RingParams(F7, 3, 2, 3, 3, 2, 6)
    y_roots, z_roots = bridge_roots(pr)
    f = np.ones((1,) + pr.shape(), dtype=np.int64)
    assert split_product_zero_flags(pr, y_roots, z_roots, f, f).shape == (1,)
    for wrong_y, wrong_z in (
        (y_roots[:1], z_roots),                  # too few roots
        (y_roots, z_roots[:2] + z_roots[:1]),    # a repeated root
        (y_roots, tuple(r + 1 for r in z_roots)),  # not roots of z^3 - 6
        (y_roots[::-1], z_roots[:2] + (1,)),     # 1^3 != 6
        (z_roots[:2], y_roots + (0,)),           # the other modulus's roots
    ):
        with pytest.raises(ValueError, match="distinct roots"):
            split_product_zero_flags(pr, wrong_y, wrong_z, f, f)


def test_shift_orbit_side_does_not_use_the_product(monkeypatch):
    # the bridge compares two independent routes, so the orbit side must not
    # fall back on the ring product it is checked against
    pr = ring1()
    fam = build_constacyclic_idempotents(F5, 2, pr.gamma)
    e0, e1 = (RingElement3D.from_axis_polys(pr, [1, 2], [3, 1], m.coeffs).coeffs
              for m in fam.members)
    f, g = np.stack([e0, e0]), np.stack([e1, e0])
    zero, ortho = annihilator_orthogonality_flags(pr, f, g)
    assert zero.tolist() == ortho.tolist() == [True, False]

    def vanishing(params, a, b):
        return np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)

    monkeypatch.setattr(ring3d, "ring_products", vanishing)
    zero, ortho = annihilator_orthogonality_flags(pr, f, g)
    assert zero.tolist() == [True, True]   # the vanishing product is the one in use
    assert ortho.tolist() == [True, False]


def test_mismatched_params_rejected():
    a = RingElement3D.from_tensor(ring1(), monomial(ring1(), 0, 0, 0))
    b = RingElement3D.from_tensor(RingParams(F5, 2, 2, 2, 1, 1, 1), monomial(ring1(), 0, 0, 0))
    with pytest.raises(FieldMismatchError):
        a * b


def test_ideal_closure_in_all_three_layouts():
    # the span of all monomial multiples of one element is an ideal: applying
    # any axis shift to a flattened member stays inside the span, in the
    # canonical layout, along x, y and z
    from ccode3d import linalg

    pr = RingParams(F7, 2, 3, 2, 1, 2, 6)
    seed = RingElement3D.from_axis_polys(pr, [1, 1], [2, 0, 1], [3, 1])
    members = [
        seed * RingElement3D.from_tensor(pr, monomial(pr, i, j, t))
        for i, j, t in itertools.product(range(pr.s), range(pr.l), range(pr.k))
    ]
    basis = np.vstack([m.flatten() for m in members])
    for axis in ("x", "y", "z"):
        for m in members:
            assert linalg.row_space_contains(basis, m.shift(axis).flatten(), pr.field.p)
