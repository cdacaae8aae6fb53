"""Construction of 3-D constacyclic codes from a divisor grid.

A code over R = F_q[x,y,z]/(x^s - alpha, y^l - beta, z^k - gamma) is specified
by a k x l grid of monic divisors of x^s - alpha: entry (t, j) is paired with
the t-th z-idempotent and the j-th y-idempotent, and the code is the ideal
generated by those k*l products.  A ``CodeSpec`` is checked once, when it is
made (``validate_spec``), and holds monic divisors from then on.  This module
builds the generator matrix and, for any nonzero constants, the dual code's
matrix H, an (alpha^-1, beta^-1, gamma^-1)-constacyclic code: both are
Kronecker blocks, built with no elimination, and H, spanning ker G, is the
parity check of the closure test.  Every cell is an x-polynomial times the
fixed tensor e_j(y)*e_t(z); G, H (reversing both axes) and the generators
(``cell_generators``) read one cached stack of them per ring (``_cell_tensors``),
and every block of G and H comes from one stacked ``ring3d.kron_words`` call.
Two such pure tensors multiply axis by axis, so ``cell_product_zero_flags``
decides which products of two grids' generators vanish from the x-products
and the idempotents' values at their roots, with no full ring product.
The checks on a built matrix read it in the CRT basis (``crt_blocks``):
with y and z evaluated at the roots of the two idempotent families, a row
of G is one x-word in the block of its cell, and so is a row of H at the
inverse roots, so ranks are sums of block ranks and the products of G*H^T,
G*G^T and the closure (``quasi_twisted_closure``, ``direct_self_dual_check``)
are products on blocks of s columns; a matrix with a row across two blocks
is ranked and multiplied whole.
For constants +-1 the dual lives in the same ring and is itself a divisor
grid: cell (t, j) holds monic(q*) of the cell that ``cell_partners``, the
involution of inverse roots, pairs with it; self-duality is decided on the
grid alone, as the grid being a fixed point of that map.  It also provides
the exhaustive sweep machinery: ``sign_grid_sweep_report`` makes no spec and
builds no G or H.  A grid of a +-1 sign ring is a row of indices into the
divisor table of its alpha, built once per alpha and shared by the rings
with that alpha.  The grids of all the sweep's rings form one stream, cut
into chunks of SWEEP_CHUNK grids that may straddle rings, and every check is
read from tables: a row of G is a band row of its cell's divisor tensored
with the cell e_j(y)*e_t(z), so, the cells of a ring being independent
(checked once per sweep), rank G and rank H are sums of band ranks from one
``linalg.rank_stack`` call, and since inner products of tensor products
factor, G*H^T and G*G^T are zero unless some band pair on a cell pair that
the ring's cell Gram keeps has a nonzero product.  The verdict is a
fixed-point test on the indices, and H spans ker G exactly when G*H^T = 0
and rank H = n - rank G, the dual's dimension (as in ``verify``).
``cyclic_yz_selfdual_scan`` reads each record from a table per (s, alpha)
and one per (l, k), with the formula of the ring counts (``_grid_counts``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg, ring3d
from .gf import FieldSpec, InputError
from .idempotents import IdempotentFamily, build_constacyclic_idempotents, member_values
from .poly import Poly, binomial_cosets, factor_binomial
from .ring3d import AXES, RingParams, axis_products, kron_words


class SpecValidationError(InputError):
    """A code spec violates one of the construction hypotheses."""


class SweepTooLargeError(InputError):
    """A sweep would enumerate more than SWEEP_SPEC_LIMIT specs, or its band
    tables and one chunk's band products would take more than
    SWEEP_BYTE_LIMIT bytes."""


SWEEP_CHUNK = 256            # grids per stacked check in sign_grid_sweep_report
SWEEP_SPEC_LIMIT = 10**6     # the most grids sign_grid_sweep_report enumerates
SWEEP_BYTE_LIMIT = 1 << 28   # the most bytes its band tables and one chunk's band products take
SPEC_LENGTH_LIMIT = 4096     # the longest code a CodeSpec admits: G and H take <= 128 MiB each


class UnsupportedConstantsError(InputError):
    """Operation needs alpha = alpha^-1, beta = beta^-1, gamma = gamma^-1.

    The dual is an ideal of the ring with inverted constants (build_dual
    builds it for any constants); the dual grid, the cell pairing and
    self-duality compare it with the code in the same ring.
    """


@dataclass(frozen=True)
class CodeSpec:
    """A divisor grid over a ring, valid by construction: making one runs
    validate_spec (raising SpecValidationError or MissingRootOfUnityError)
    and stores the divisors monic (units become 1)."""

    ring: RingParams
    divisor_grid: tuple[tuple[Poly, ...], ...]   # [t][j], k rows of l entries

    def __post_init__(self):
        validate_spec(self)   # the module global: a wrapper installed on it sees every spec
        object.__setattr__(self, "divisor_grid",
                           tuple(tuple(p.monic() for p in row) for row in self.divisor_grid))

    def degree_sum(self) -> int:
        return sum(p.degree for row in self.divisor_grid for p in row)


@dataclass(frozen=True)
class BuiltCode:
    """A built code: the ring it is an ideal of and a generator matrix in the
    canonical z-major layout, full rank by construction (_assemble)."""

    ring: RingParams
    generator_matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.ring.n

    @property
    def dimension(self) -> int:
        return self.generator_matrix.shape[0]


def code_idempotents(ring: RingParams) -> tuple[IdempotentFamily, IdempotentFamily]:
    """(z-family of size k, y-family of size l) for the ring."""
    return (
        build_constacyclic_idempotents(ring.field, ring.k, ring.gamma),
        build_constacyclic_idempotents(ring.field, ring.l, ring.beta),
    )


def validate_spec(spec: CodeSpec) -> CodeSpec:
    """Check the construction hypotheses of a spec and return it.

    Confirms, first and before any division, that n = s*l*k is at most
    SPEC_LENGTH_LIMIT; then the grid shape, that both root-of-unity
    hypotheses hold (the y- and z-moduli must split into distinct linear
    factors, which also forces their degrees to be coprime to the
    characteristic), and that every grid entry exactly divides x^s - alpha.
    CodeSpec runs this on every spec it makes, so a caller holding a
    CodeSpec need not.  x^s - alpha need not be squarefree: the generator
    and dual constructions do not use it.
    """
    ring = spec.ring
    field = ring.field
    _check_length(ring.n)
    if len(spec.divisor_grid) != ring.k or any(len(row) != ring.l for row in spec.divisor_grid):
        raise SpecValidationError(
            f"divisor grid must be {ring.k} rows of {ring.l} entries, got "
            f"{[len(row) for row in spec.divisor_grid]}"
        )
    code_idempotents(ring)   # raises if a root of unity is missing
    for t, row in enumerate(spec.divisor_grid):
        for j, p in enumerate(row):
            if p.field != field:
                raise SpecValidationError(f"divisor at cell (t={t}, j={j}) is over the wrong field")
            if p.is_zero():
                raise SpecValidationError(f"divisor at cell (t={t}, j={j}) is zero")
            if _reversed_complement(field, ring.s, ring.alpha, p) is None:
                raise SpecValidationError(
                    f"divisor at cell (t={t}, j={j}) does not divide x^{ring.s} - {ring.alpha} "
                    f"over F_{field.p}: {p!r}"
                )
    return spec


def _check_length(n: int):
    """Refuse a code length past SPEC_LENGTH_LIMIT (SpecValidationError)."""
    if n > SPEC_LENGTH_LIMIT:
        raise SpecValidationError(
            f"code length n = s*l*k = {n} is past the limit of {SPEC_LENGTH_LIMIT}")


@lru_cache(maxsize=None)
def _cell_tensors(ring: RingParams) -> np.ndarray:
    """The read-only (k*l, l, k) stack of the cell tensors e_j(y)*e_t(z), in
    (t, j) order, made once per ring from the families' coefficients.  Every
    member has full degree, so reversing both axes gives the dual's cells."""
    z, y = (fam.coefficients for fam in code_idempotents(ring))
    cells = np.einsum("jb,tc->tjbc", y, z).reshape(-1, ring.l, ring.k) % ring.field.p
    cells.setflags(write=False)
    return cells


def _coefficient_rows(polys, width: int) -> np.ndarray:
    """The (len(polys), width) int64 matrix of the polynomials' ascending
    coefficients, each zero-padded to width; needs deg f < width."""
    rows = np.zeros((len(polys), width), dtype=np.int64)
    for row, f in zip(rows, polys):
        row[:len(f.coeffs)] = f.coeffs
    return rows


def _folded_x_rows(ring: RingParams, x_grid) -> np.ndarray:
    """The (k*l, s) residues of a k x l grid of polynomials of degree <= s in
    (t, j) order, with x^s folded onto alpha."""
    x = _coefficient_rows([f for row in x_grid for f in row], ring.s + 1)
    x[:, 0] += ring.alpha * x[:, ring.s]
    return x[:, :ring.s] % ring.field.p


def cell_generators(ring: RingParams, x_grid) -> np.ndarray:
    """The products f_tj(x)*e_j(y)*e_t(z) for a k x l grid of polynomials of
    degree <= s (x^s folds onto alpha), as the (k*l, s, l, k) stack of
    coefficient tensors in (t, j) order.  On the divisor grid these are the
    code's ring generators; no matrix is built from them (_assemble)."""
    x = _folded_x_rows(ring, x_grid)
    return x[:, :, None, None] * _cell_tensors(ring)[:, None] % ring.field.p


def cell_product_zero_flags(ring: RingParams, left_grid, right_grid) -> np.ndarray:
    """The (k*l, k*l) boolean matrix whose entry (c, g) says that the product
    of the cell generators (cell_generators) of left_grid's cell c and
    right_grid's cell g is zero, cells in (t, j) order.

    Both are pure tensors f(x)*e_j(y)*e_t(z), and R is the tensor product of
    the three axis rings, so their product is the pure tensor of the three
    per-axis products, and it is zero iff one of them is: the flag is
    x[c, g] | y[j_c, j_g] | z[t_c, t_g], x from ring3d.axis_products on the
    folded x-rows, y and z from the supports of the families' values at
    their roots (idempotents.member_values).  No full ring product is formed."""
    x = ~axis_products(ring.s, ring.alpha, ring.field.p, _folded_x_rows(ring, left_grid)[:, None],
                       _folded_x_rows(ring, right_grid)[None]).any(axis=-1)
    supports = [(member_values(fam) != 0).astype(np.float64) for fam in code_idempotents(ring)]
    z, y = (support @ support.T == 0 for support in supports)   # no root where both are nonzero
    return x | (z[:, None, :, None] | y[None, :, None, :]).reshape(x.shape)


def _bands(x_blocks, s: int) -> np.ndarray:
    """The (C, s, s) stack of the rows x^i * f(x), i < count, of every
    x-block (f, count), zero-padded to s rows; needs count + deg f <= s or
    count = 0.  Row i is the strided window of f's coefficients, after s - 1
    zeros, that starts s - 1 - i in, masked by i < count: one (C, s, s) array."""
    coeffs = _coefficient_rows([f for f, _ in x_blocks], s + 1)
    padded = np.concatenate([np.zeros((len(coeffs), s - 1), dtype=np.int64), coeffs], axis=1)
    windows = ring3d._windows(padded, s)[:, s - 1::-1]
    counts = np.array([count for _, count in x_blocks])
    return windows * (np.arange(s) < counts[:, None])[:, :, None]


def _assemble(ring: RingParams, x_blocks, cells: np.ndarray) -> BuiltCode:
    """The construction path of the code and its dual: x-block c = (f, count)
    and the (l, k) tensor cells[c] give the block of the rows
    x^i * f(x) * cells[c], i < count.  All k*l blocks come from one
    kron_words call, as the stack of the band rows, padding dropped, each
    with its own cell (the sweep keeps the padding, _divisor_table); no row
    wraps, so the blocks do not depend on the ring's constants.  No
    elimination runs, since the rows are independent by construction: the
    cell tensors (_cell_tensors) and their reversals are independent, X_p is
    banded and in echelon form, as p is monic, and X_q* is banded with
    leading coefficient q(0) != 0; so the Kronecker blocks form a direct
    sum.  verify and the tests keep the rank as an oracle."""
    counts = np.array([count for _, count in x_blocks])
    rows = _bands(x_blocks, ring.s)[np.arange(ring.s) < counts[:, None]]
    words = kron_words(ring, rows[:, None], cells[np.repeat(np.arange(len(counts)), counts)])
    return BuiltCode(ring, words.reshape(len(rows), ring.n))


def build_code(spec: CodeSpec) -> BuiltCode:
    """Generator matrix and dimension of the code defined by the grid.

    Cell (t, j) with divisor p of degree a contributes the rows
    x^i * p(x) * e_j(y) * e_t(z) for i = 0..s-a-1.  In the z-major layout
    they form the block kron(e_t, kron(e_j, X_p)), where X_p is the banded
    (s-a) x s matrix of x^i * p(x); deg(x^i * p) < s, so no row wraps.  The
    rows are independent (_assemble), so the dimension is s*l*k minus the sum
    of divisor degrees.  The cells e_j(y)*e_t(z) are the ring's cached stack.
    """
    ring = spec.ring
    x_blocks = [(p, ring.s - p.degree) for row in spec.divisor_grid for p in row]
    return _assemble(ring, x_blocks, _cell_tensors(ring))


def _require_unit_constants(ring: RingParams, what: str):
    if not {ring.alpha, ring.beta, ring.gamma} <= {1, ring.field.p - 1}:   # c = c^-1 iff c = +-1
        raise UnsupportedConstantsError(
            f"{what} needs alpha = alpha^-1, beta = beta^-1, gamma = gamma^-1 "
            f"(constants 1 or -1); got ({ring.alpha}, {ring.beta}, {ring.gamma}) "
            f"over F_{ring.field.p}"
        )


def build_dual(spec: CodeSpec) -> BuiltCode:
    """The dual code, an ideal of the ring with inverted constants.

    Cell (t, j) contributes the rows x^i * q*(x) * e_j*(y) * e_t*(z) for
    i = 0..a-1, where p*q = x^s - alpha, a = deg p, and * is coefficient
    reversal: the block kron(e_t*, kron(e_j*, X_q*)).  The cells are the
    code's cached stack with both (y, z) axes reversed, and q* is the cached
    _reversed_complement; deg(x^i * q*) < s for i < a, so no row wraps.
    Cells with constant divisor contribute no rows.  The rows are independent
    (_assemble), so the rank is the divisor degree sum; G*H^T = 0, so H
    spans the kernel of G for any nonzero constants, and its row space is
    an ideal of F_q[x,y,z]/(x^s - alpha^-1, y^l - beta^-1, z^k - gamma^-1),
    the ring of the returned code.
    """
    ring = spec.ring
    x_blocks = [(_reversed_complement(ring.field, ring.s, ring.alpha, p), p.degree)
                for row in spec.divisor_grid for p in row]
    cells = _cell_tensors(ring)[:, ::-1, ::-1]   # e_j*(y)*e_t*(z), a view of the code's stack
    return _assemble(ring.inverse_constants(), x_blocks, cells)


@lru_cache(maxsize=None)
def cell_partners(ring: RingParams) -> np.ndarray:
    """The involution of the flattened cells t*l + j that the self-duality
    test pairs, read-only and made once per ring.  The reversal of the t-th
    z-idempotent is proportional to the member at the inverse root (and
    likewise along y), so cell (t, j) of the dual lies on the cell of the
    grid that the two families' reversal() indices name."""
    _require_unit_constants(ring, "cell pairing")
    z, y = (np.array(fam.reversal()) for fam in code_idempotents(ring))
    partners = (z[:, None] * ring.l + y).reshape(-1)
    partners.setflags(write=False)
    return partners


@dataclass(frozen=True)
class CrtBlocks:
    """The rows of a matrix in the CRT basis of a ring (crt_blocks): block
    b = t*l + j of a row is its x-word at (sigma_t, rho_j).  If every row
    has at most one nonzero block (per_block), stack[b] holds, zero-padded,
    the block-b words of the rows that lie in block b; otherwise stack[b]
    holds block b of every row.  stack is (k*l, r, s) float64 residues, r
    the most rows in one block if per_block, else the number of rows."""

    stack: np.ndarray
    per_block: bool

    def whole(self) -> np.ndarray:
        """The (1, rows, n) stack of every row's k*l blocks side by side;
        only for a matrix that is not per_block."""
        return np.swapaxes(self.stack, 0, 1).reshape(1, self.stack.shape[1], -1)


@lru_cache(maxsize=None)
def _evaluation_points(ring: RingParams, inverse: bool) -> tuple[tuple[int, ...], ...]:
    """The z- and y-roots of the ring's idempotent families, or their inverses."""
    roots = [fam.roots for fam in code_idempotents(ring)]
    if inverse:
        roots = [tuple(ring.field.inv(rho) for rho in family) for family in roots]
    return tuple(roots)


def crt_blocks(ring: RingParams, words: np.ndarray, inverse: bool = False) -> CrtBlocks:
    """Every row of words (rows, n) with z and y evaluated at the roots
    sigma_t and rho_j of the ring's two idempotent families, or at their
    inverses (the roots of the inverse-constant ring, where H lives): the
    CRT isomorphism onto k*l copies of F_p[x]/(x^s - alpha), as the roots
    are checked (linalg.root_powers).  Two float64 products, a slice of rows
    of at most linalg.PRODUCT_BYTES at a time, into x[b, row]: the z-product
    sums k products of residues and the y-product l of those times residues,
    so it is reduced mod p in between only when k*l*(p-1)^3 could reach 2^52.
    A row f(x)*e_j(y)*e_t(z) of G is f at block (t, j) and zero elsewhere,
    and so is a row of H at the inverse roots.  That is detected, never
    assumed: a row with two nonzero blocks makes the result whole, not
    per_block (CrtBlocks); else each block's rows move up to its first
    slots, in place.  Since sum_j rho_j^d = l*[d = 0] for |d| < l (and
    likewise along z), <u, v> = (k*l)^-1 * sum_b u(b) . v(b^-1) for u at the
    roots and v at their inverses: ranks and products are read block by
    block (crt_rank, crt_products_vanish)."""
    p = ring.field.p
    s, l, k = ring.shape()
    z, y = (linalg.root_powers(m, pow(c, -1 if inverse else 1, p), p, roots) for m, c, roots
            in zip((k, l), (ring.gamma, ring.beta), _evaluation_points(ring, inverse)))
    rows = len(words)
    x = np.empty((k * l, rows, s))
    step = max(1, linalg.PRODUCT_BYTES // (8 * ring.n))
    for start in range(0, rows, step):   # one product an axis a slice
        part = words[start:start + step].reshape(-1, k, l, s)   # a view: the last result is freed
        part = z @ part.transpose(1, 2, 0, 3).astype(np.float64, order="C").reshape(k, -1)
        if k * l * (p - 1) ** 3 >= 2 ** 52:   # else the y-product's sums stay below 2^52 unreduced
            part = linalg.float_residues(part, p)
        part = y @ part.reshape(k, l, -1)          # the z-product is freed before the reduction
        x[:, start:start + step] = linalg.float_residues(part, p).reshape(k * l, -1, s)
    nonzero = x @ np.ones(s) > 0                   # blocks of residues >= 0: BLAS, not .any
    if nonzero.sum(axis=0).max(initial=0) > 1:
        return CrtBlocks(x, False)
    block = nonzero.argmax(axis=0)                 # a zero row sits in block 0
    counts = np.bincount(block, minlength=k * l)
    order = np.argsort(block, kind="stable")       # the rows block by block
    slot = np.arange(rows) - np.repeat(np.cumsum(counts) - counts, counts)   # row order[i]'s
    move = slot != order
    moved = order[move]                            # rows that move up, each to slot < row
    moving = x[block[moved], moved]
    x[block[moved], moved] = 0                     # what is left past each block's rows is 0
    x[block[moved], slot[move]] = moving
    return CrtBlocks(np.ascontiguousarray(x[:, :counts.max(initial=0)]), True)


def crt_rank(blocks: CrtBlocks, p: int) -> int:
    """The rank of the matrix: the sum of its block ranks when per_block,
    else the rank of the whole transformed matrix, from one rank_stack call."""
    stack = blocks.stack if blocks.per_block else blocks.whole()
    return int(linalg.rank_stack(stack, p).sum())


def crt_products_vanish(left: CrtBlocks, right: CrtBlocks, p: int) -> bool:
    """Whether every row of left (at the roots) is orthogonal to every row of
    right (at the inverse roots), from products on the s-column blocks:
    when either side is per_block, a row of it meets the other side only in
    its one block, so the (rows, rows') products block by block are every
    product; when neither is, one product of the whole matrices."""
    if left.per_block or right.per_block:
        return linalg.products_vanish(left.stack, right.stack, p)
    return linalg.products_vanish(left.whole(), right.whole(), p)


def _crt_times(ring: RingParams, blocks: CrtBlocks, axis: str) -> CrtBlocks:
    """Rows at the roots (crt_blocks) multiplied by x, y or z: x shifts
    every block constacyclically, the wrapped entry times alpha, and y and z
    scale block (t, j) by its root rho_j or sigma_t."""
    p = ring.field.p
    if axis == "x":   # only the wrapped entries leave the residues
        out = np.roll(blocks.stack, 1, axis=-1)
        out[..., 0] = linalg.float_residues(out[..., 0] * ring.alpha, p)
    else:
        z, y = (np.array(roots, dtype=np.float64) for roots in _evaluation_points(ring, False))
        points = np.repeat(z, ring.l) if axis == "z" else np.tile(y, ring.k)
        out = linalg.float_residues(blocks.stack * points[:, None, None], p)
    return CrtBlocks(out, blocks.per_block)


def quasi_twisted_closure(code: BuiltCode, parity: np.ndarray) -> dict[str, bool]:
    """Closure of the row space under each axis shift, against a parity
    matrix spanning ker G: build_dual(spec)'s H for a spec's code, G for H.

    A word lies in the row space of G iff it is orthogonal to the parity
    rows, so an axis is closed iff shift(G) * parity^T = 0.  The product is
    taken in the CRT basis (crt_closure): G at the roots of its ring and the
    parity rows, which live in the inverse-constant ring, at the inverse
    roots.  No elimination runs; a parity matrix spanning less can pass a
    non-ideal.
    """
    ring = code.ring
    return crt_closure(ring, crt_blocks(ring, code.generator_matrix),
                       crt_blocks(ring, parity, inverse=True))


def crt_closure(ring: RingParams, g: CrtBlocks, parity: CrtBlocks) -> dict[str, bool]:
    """quasi_twisted_closure from G at the roots and the parity rows at the
    inverse roots (crt_blocks): for each axis, whether G's blocks times that
    variable (_crt_times), a slice of rows at a time, are orthogonal to the
    parity rows.  When either side is per_block the products are taken block
    by block, and y and z scale block b of G by a nonzero root, which keeps
    the zeros of every block product: their verdicts are G * parity^T's."""
    p = ring.field.p
    step = max(1, linalg.PRODUCT_BYTES // (8 * ring.n))
    slices = [CrtBlocks(g.stack[:, i:i + step], g.per_block)
              for i in range(0, g.stack.shape[1], step)]

    def closed(axis: str) -> bool:   # each product frees its slice's multiple before the next
        return all(crt_products_vanish(_crt_times(ring, part, axis), parity, p) for part in slices)

    if g.per_block or parity.per_block:
        plain = crt_products_vanish(g, parity, p)
        return {"x": closed("x"), "y": plain, "z": plain}
    return {axis: closed(axis) for axis in AXES}


def _inverse_block_order(ring: RingParams) -> np.ndarray | None:
    """For every block b, the block at the roots that is b at the inverse
    roots: the index of (sigma_t^-1, rho_j^-1) among the root pairs, read
    off the roots, not the cell pairing (cell_partners); None when some
    inverse root is no root (beta or gamma not +-1)."""
    index = {pair: b for b, pair in enumerate(itertools.product(*_evaluation_points(ring, False)))}
    order = [index.get(pair) for pair in itertools.product(*_evaluation_points(ring, True))]
    return None if None in order else np.array(order)


def direct_self_dual_check(code: BuiltCode, blocks: CrtBlocks | None = None) -> bool:
    """Self-duality straight from the matrix: dim = n/2 and G*G^T = 0, the
    product taken in the CRT basis, G at the roots against G at the inverse
    roots (crt_products_vanish).  blocks, if given, is crt_blocks of G at
    the roots, which verify has already made; G at the inverse roots is
    those blocks reordered (_inverse_block_order) when it can be."""
    ring, g = code.ring, code.generator_matrix
    if 2 * code.dimension != code.n:
        return False
    if blocks is None:
        blocks = crt_blocks(ring, g)
    order = _inverse_block_order(ring)
    at_inverses = (crt_blocks(ring, g, inverse=True) if order is None
                   else CrtBlocks(blocks.stack[order], blocks.per_block))
    return crt_products_vanish(blocks, at_inverses, ring.field.p)


def complement_grid(spec: CodeSpec) -> list[list[Poly]]:
    """The k x l grid of the complements (x^s - alpha)/p of the spec's
    divisors, each the reversal of the cached _reversed_complement q*:
    q(0) != 0, as q divides x^s - alpha and alpha != 0, so reversing q*
    gives q back exactly."""
    ring = spec.ring
    return [[_reversed_complement(ring.field, ring.s, ring.alpha, p).reciprocal() for p in row]
            for row in spec.divisor_grid]


def self_dual_decide(spec: CodeSpec, code: BuiltCode | None = None) -> tuple[bool, dict]:
    """Decide self-duality from the divisor grid alone.

    Two conditions: (i) the divisor degrees sum to half the length, and
    (ii) the grid is a fixed point of the dual map: for every cell, with q
    the complementary divisor (p*q = x^s - alpha) and * coefficient
    reversal, its partner (cell_partners) holds monic(q*).  This is the
    pair of divisibilities "partner p | q*" and "partner q* | p": they force
    equal degrees, and the reversal of x^s - alpha is a unit multiple of it
    for alpha = +-1.  The certificate records every cell comparison; given
    the spec's built code, the verdict is recomputed from its generator
    matrix (the certificate's direct_check) and a mismatch raises.
    """
    ring = spec.ring
    _require_unit_constants(ring, "self-duality test")
    total = spec.degree_sum()
    dim_ok = ring.n == 2 * total
    grid = [p for row in spec.divisor_grid for p in row]
    q_stars = [_reversed_complement(ring.field, ring.s, ring.alpha, p) for p in grid]
    cells = []
    for c, partner in enumerate(cell_partners(ring).tolist()):
        cells.append({
            "cell": list(divmod(c, ring.l)),
            "partner": list(divmod(partner, ring.l)),
            "p": list(grid[c].coeffs),
            "q_reciprocal": list(q_stars[c].coeffs),
            "partner_p": list(grid[partner].coeffs),
            "partner_q_reciprocal": list(q_stars[partner].coeffs),
            "ok": grid[partner] == q_stars[c].monic(),
        })
    first_failure = next((cell["cell"] for cell in cells if not cell["ok"]), None)
    verdict = dim_ok and first_failure is None
    certificate = {
        "length": ring.n,
        "divisor_degree_sum": total,
        "dimension_condition_ok": dim_ok,
        "cells": cells,
        "cell_conditions_ok": first_failure is None,
        "first_failure": first_failure,
    }
    if code is not None:
        direct = direct_self_dual_check(code)
        certificate["direct_check"] = direct
        if direct != verdict:
            raise RuntimeError(
                f"self-duality criteria disagree with the direct matrix test on {spec!r}"
            )
    return verdict, certificate


def self_dual_feasible(field: FieldSpec, s: int, l: int, k: int,
                       alpha: int, beta: int = 1, gamma: int = 1) -> tuple[bool, str]:
    """Cheap screen: can any (alpha, 1, 1)-code of length s*l*k be self-dual?

    Returns (False, reason) when the exclusion argument applies: with
    beta = gamma = 1 the cell (k-1, l-1) is paired with itself, so its
    divisor p would need reciprocal((x^s - alpha)/p) proportional to p; when
    gcd(s, q) = 1 (and s odd if alpha = -1) the factor x - alpha divides
    exactly one of p and its complement, which contradicts that relation.
    Returns (True, reason) when not excluded by this argument.
    """
    a = field.canon(alpha)
    if a not in (1, field.p - 1):
        raise UnsupportedConstantsError("feasibility screen requires alpha in {1, -1}")
    if (field.canon(beta), field.canon(gamma)) != (1, 1):
        return True, "not screened: the exclusion argument requires beta = gamma = 1"
    if math.gcd(s, field.p) != 1:
        return True, "not excluded: the characteristic divides s"
    if a == field.p - 1 and s % 2 == 0:
        return True, "not excluded: x + 1 does not divide x^s + 1 when s is even"
    return False, (
        "self-dual impossible: the self-paired grid cell would need a divisor p of "
        "x^s - alpha whose complementary divisor reverses onto p itself, but "
        "x - alpha divides exactly one of the pair when gcd(s, q) = 1"
    )


# --- divisor lattice and exhaustive sweeps -------------------------------

@lru_cache(maxsize=None)
def binomial_divisors(field: FieldSpec, s: int, alpha: int) -> tuple[Poly, ...]:
    """All monic divisors of x^s - alpha, sorted by (degree, coefficients).

    Cached: the grid sweep asks for the same binomial once per ring, and
    the result is a tuple of frozen polynomials, safe to share."""
    factored = factor_binomial(field, s, alpha)
    divisors = []
    for exps in itertools.product(*[range(m + 1) for _, m in factored]):
        d = Poly.one(field)
        for (f, _), e in zip(factored, exps):
            for _ in range(e):
                d = d * f
        divisors.append(d)
    divisors.sort(key=lambda f: (f.degree, f.coeffs))
    return tuple(divisors)


@lru_cache(maxsize=None)
def _reversed_complement(field: FieldSpec, s: int, alpha: int, p: Poly) -> Poly | None:
    """q* = reverse((x^s - alpha) / p), or None if p does not divide x^s - alpha;
    cached, so validation and the dual share one division per divisor."""
    q, r = divmod(Poly.binomial(field, s, alpha), p)
    return q.reciprocal() if r.is_zero() else None


@lru_cache(maxsize=None)
def _divisor_counts(field: FieldSpec, s: int, alpha: int) -> tuple[int, int]:
    """(#monic divisors d of x^s - alpha, #those with monic(q*) = d), from
    q-cyclotomic cosets, with nothing factored.  With s = s'*p^v, p not
    dividing s', x^s - alpha = (x^s' - alpha)^(p^v) over F_p, and the factors
    of x^s' - alpha match the cosets of its root exponents
    (poly.binomial_cosets): (p^v + 1)^#cosets divisors.  Reversal maps
    coset C to -C, so d = monic(q*) asks the powers of C and -C in d to sum
    to p^v: impossible if C = -C (p^v is odd) or -C is no coset (alpha != +-1),
    and one free power per pair {C, -C} otherwise."""
    power, modulus, cosets = binomial_cosets(field, s, alpha)
    cosets = {frozenset(c) for c in cosets}
    negated = [frozenset(-e % modulus for e in c) for c in cosets]
    paired = all(neg != c and neg in cosets for c, neg in zip(cosets, negated))
    return (power + 1) ** len(cosets), (power + 1) ** (len(cosets) // 2) if paired else 0


def _grid_counts(divisors: int, fixed: int, cells: int, self_paired: int) -> tuple[int, int]:
    """(#grids, #self-dual grids) of a +-1 ring of `cells` = k*l cells,
    self_paired of them their own partners (cell_partners), over `divisors`
    monic divisors of x^s - alpha, `fixed` of them their own monic q*
    (_divisor_counts).  A grid is self-dual iff each cell's partner holds the
    monic reversal of its complement, as reversal distributes over
    x^s - alpha = p*q, a unit times its own reversal for alpha = +-1; paired
    cells then have degrees a and s - a, so sum(a) = n/2.  Hence a free
    divisor per paired orbit and a fixed one per self-paired cell."""
    return divisors ** cells, fixed ** self_paired * divisors ** ((cells - self_paired) // 2)


def count_divisor_grids(ring: RingParams) -> int:
    """The number of divisor grids over the ring, (#divisors)^(k*l), from the
    coset counts (_grid_counts, whose grid count reads no pairing): no
    divisor is built or factored."""
    return _grid_counts(*_divisor_counts(ring.field, ring.s, ring.alpha), ring.k * ring.l, 0)[0]


def admissible_sign_rings(field: FieldSpec, s: int, l: int, k: int) -> list[RingParams]:
    """Rings with alpha, beta, gamma in {1, -1} whose root hypotheses hold."""
    out = []
    units = (1, field.p - 1)
    for alpha, beta, gamma in itertools.product(units, repeat=3):
        ring = RingParams(field, s, l, k, alpha, beta, gamma)
        try:
            code_idempotents(ring)
        except ValueError:
            continue
        out.append(ring)
    return out


def self_dual_grid_count(ring: RingParams) -> int:
    """Number of divisor grids over the ring that give a self-dual code, from the coset
    counts and the self-paired cells (_grid_counts); checked against enumeration in tests."""
    _require_unit_constants(ring, "self-dual grid count")
    return _grid_counts(*_divisor_counts(ring.field, ring.s, ring.alpha), ring.k * ring.l,
                        _self_paired(ring))[1]


def _self_paired(ring: RingParams) -> int:
    """The number of cells that cell_partners pairs with themselves."""
    return int((cell_partners(ring) == np.arange(ring.k * ring.l)).sum())


def _scan_lengths(field: FieldSpec, m_max: int) -> list[int]:
    """The y- or z-block lengths m <= m_max that the root hypothesis admits
    over beta = gamma = 1: the divisors of q - 1."""
    return [m for m in range(1, min(m_max, field.p - 1) + 1) if (field.p - 1) % m == 0]


def check_scan_length(field: FieldSpec, s_max: int, l_max: int, k_max: int):
    """Refuse a cyclic_yz_selfdual_scan with a bound below 1, or whose
    longest record, the largest s <= s_max prime to q times the largest
    admissible l and k, has n = s*l*k past SPEC_LENGTH_LIMIT
    (SpecValidationError), before any record is counted."""
    if min(s_max, l_max, k_max) < 1:
        raise SpecValidationError(f"scan bounds s, l, k must be positive, got {s_max}, {l_max}, {k_max}")
    s = s_max if s_max % field.p else s_max - 1   # s_max - 1 >= q - 1 >= 1
    _check_length(s * _scan_lengths(field, l_max)[-1] * _scan_lengths(field, k_max)[-1])


def cyclic_yz_selfdual_scan(field: FieldSpec, s_max: int, l_max: int, k_max: int) -> list[dict]:
    """Exact self-duality existence scan over beta = gamma = 1 rings.

    Covers alpha in {1, -1}, s <= s_max with gcd(s, q) = 1 (s odd when
    alpha = -1), and all l, k admitted by the root hypothesis (divisors of
    q - 1).  Each record carries the exact counts of grids and self-dual
    grids and the feasibility screen's verdict, read from two tables made
    once per call: per (s, alpha) the coset counts and the screen, and per
    (l, k) the self-paired cells of one ring with s = alpha = 1, since the
    pairing depends only on the y- and z-families (_grid_counts).  No ring
    is made per record and nothing is factored.  A record past
    SPEC_LENGTH_LIMIT is refused before any is made (check_scan_length).
    """
    check_scan_length(field, s_max, l_max, k_max)
    shapes = [(l, k, l * k, _self_paired(RingParams(field, 1, l, k, 1, 1, 1)))
              for l in _scan_lengths(field, l_max) for k in _scan_lengths(field, k_max)]
    records = []
    for alpha in (1, field.p - 1):
        for s in range(1, s_max + 1):
            if math.gcd(s, field.p) != 1 or alpha == field.p - 1 and s % 2 == 0:
                continue
            counts = _divisor_counts(field, s, alpha)
            feasible, reason = self_dual_feasible(field, s, 1, 1, alpha)   # l and k play no part
            for l, k, cells, self_paired in shapes:
                grids, self_dual = _grid_counts(*counts, cells, self_paired)
                records.append({"q": field.p, "s": s, "l": l, "k": k, "alpha": alpha, "beta": 1,
                                "gamma": 1, "selfdual_grid_count": self_dual, "grid_count": grids,
                                "feasible": feasible, "reason": reason})
    return records


def sign_grid_sweep_report(field: FieldSpec, s: int, l: int, k: int) -> dict:
    """Exhaustive per-grid sweep over all admissible +-1 sign choices.

    For every divisor grid: checks the dimension formula against rank G, dual
    orthogonality, that the dual matrix spans the kernel of G, and agreement
    of the grid-based self-dual verdict with the direct matrix test.  Returns
    aggregate counts.

    No spec is made and no G or H is built: a grid is a row of indices into
    the divisor table of its alpha (_sweep_checks), and every check is read
    from per-divisor and per-cell tables.  Row c*s + i of G is the band row
    x^i * p_c(x) tensored with the cell w_c = e_j(y)*e_t(z), and of H the
    band row x^i * q_c*(x) tensored with the reversed cell w_c*.  So:

    * rank G is the sum of the ranks of its cells' code bands, and rank H of
      their dual bands, since the k*l cell tensors of a ring are linearly
      independent (checked once per sweep, _cell_grams; a dependent stack
      raises RuntimeError);
    * the (c, c') block of G*H^T is X_c*Y_c'^T times <w_c, w_c'*>, since the
      inner product of two tensor products factors; so G*H^T != 0 iff some
      pair the ring's cell Gram keeps (<w_c, w_c'*> != 0 mod p) has
      X_c*Y_c'^T != 0, and likewise G*G^T with <w_c, w_c'>.

    H spans ker G iff G*H^T = 0 and rank H = n - rank G, since a subspace of
    ker G of the kernel's dimension is all of it.  A length past
    SPEC_LENGTH_LIMIT is refused before any work, and before any factoring a
    sweep of more than SWEEP_SPEC_LIMIT grids, or one whose int64 arrays
    would pass SWEEP_BYTE_LIMIT bytes: the two (D, s, s) band tables of each
    alpha and one chunk's gathered band pairs and their products, three
    (s, s) matrices for each pair a cell Gram keeps, with D and the grids
    counted from cosets.
    """
    n = s * l * k
    _check_length(n)
    p = field.p
    rings = admissible_sign_rings(field, s, l, k)
    total = sum(count_divisor_grids(ring) for ring in rings)
    if total > SWEEP_SPEC_LIMIT:
        raise SweepTooLargeError(
            f"sweep grid over F_{p} with (s, l, k) = ({s}, {l}, {k}) has {total} specs "
            f"over {len(rings)} sign rings, past the limit of {SWEEP_SPEC_LIMIT}"
        )
    grams = _cell_grams(rings, l * k)
    divisors = sum(_divisor_counts(field, s, alpha)[0] for alpha in {ring.alpha for ring in rings})
    pairs = min(SWEEP_CHUNK, total) * int(grams.sum(axis=(1, 2, 3)).max(initial=0))
    size = 8 * s * s * (2 * divisors + 3 * pairs)
    if size > SWEEP_BYTE_LIMIT:
        raise SweepTooLargeError(
            f"sweep grid over F_{p} with (s, l, k) = ({s}, {l}, {k}) needs {size} bytes "
            f"for its divisor band tables and one chunk of band pairs and products, "
            f"past the limit of {SWEEP_BYTE_LIMIT} bytes"
        )
    report = {
        "q": p, "s": s, "l": l, "k": k,
        "specs": 0, "self_dual": 0,
        "rank_mismatches": 0, "orthogonality_failures": 0,
        "kernel_mismatches": 0, "verdict_disagreements": 0,
        "rings": [{"alpha": ring.alpha, "beta": ring.beta, "gamma": ring.gamma} for ring in rings],
    }
    for _, _, rank_g, rank_h, dims, verdicts, self_orthogonal, not_orthogonal in \
            _sweep_checks(rings, grams):
        report["specs"] += len(dims)
        report["self_dual"] += int(verdicts.sum())
        report["rank_mismatches"] += int((rank_g != dims).sum())
        report["orthogonality_failures"] += int(not_orthogonal.sum())
        report["kernel_mismatches"] += int((not_orthogonal | (rank_h != n - rank_g)).sum())
        report["verdict_disagreements"] += int((verdicts != (self_orthogonal & (2 * dims == n))).sum())
    return report


def _divisor_table(field: FieldSpec, s: int, alpha: int):
    """The divisor side of the sweep, shared by every ring with this alpha:
    (code bands, dual bands, degrees, q_monic), indexed like
    binomial_divisors.  The bands are the (D, s, s) rows x^i * p for
    i < s - deg p and x^i * q* for i < deg p, zero-padded to s rows, of every
    divisor p; q_monic[i] is the index of monic(q*) of divisor i, or -1 if
    it is no divisor."""
    divisors = binomial_divisors(field, s, alpha)
    q_stars = [_reversed_complement(field, s, alpha, d) for d in divisors]
    index = {d: i for i, d in enumerate(divisors)}
    return (_bands([(d, s - d.degree) for d in divisors], s),
            _bands([(q, d.degree) for d, q in zip(divisors, q_stars)], s),
            np.array([d.degree for d in divisors]),
            np.array([index.get(q.monic(), -1) for q in q_stars]))


def _cell_grams(rings: list[RingParams], width: int) -> np.ndarray:
    """The (R, 2, C, C) boolean cell Grams of the rings of one sweep, C = width
    = k*l: entry (r, 0, c, c') says <w_c, w_c'> != 0 and (r, 1, c, c') says
    <w_c, w_c'*> != 0 (mod p), for ring r's cell tensors w (_cell_tensors)
    and their reversals w*, the cells of G and of H; flattened, a cell's
    reversal is the reversed vector.  One rank_stack call checks that each
    ring's cells are linearly independent, as the rank sums of _sweep_checks
    need, and raises RuntimeError naming the first ring whose cells are not."""
    if not rings:
        return np.zeros((0, 2, width, width), dtype=bool)
    p = rings[0].field.p
    cells = np.array([_cell_tensors(ring).reshape(width, width) for ring in rings])
    for ring, rank in zip(rings, linalg.rank_stack(cells, p).tolist()):
        if rank < width:
            raise RuntimeError(f"the {width} cell tensors of {ring} are linearly dependent "
                               f"(rank {rank}): the sweep's rank sums do not hold")
    return np.stack([cells @ other.transpose(0, 2, 1) % p != 0
                     for other in (cells, cells[:, :, ::-1])], axis=1)


def _sweep_checks(rings: list[RingParams], grams: np.ndarray):
    """The checks of every divisor grid of the +-1 sign rings of one sweep,
    which share n and p, SWEEP_CHUNK grids at a time: ring after ring, and
    within a ring in the order of itertools.product over binomial_divisors
    (the first cell most significant).  A chunk may hold grids of several
    rings; it is handled as one stream, with each row's ring, radix, cell
    pairing and cell Grams (grams, from _cell_grams) gathered per row.

    For each chunk of B grids yields (ring_of, grids, rank_g, rank_h, dims,
    verdicts, self_orthogonal, not_orthogonal), each indexed by grid:
    ring_of is the index of its ring in rings, grids the (B, k*l) divisor
    indices in (t, j) order, rank_g and rank_h the ranks of G and H, dims n
    minus the degree sum, verdicts the grid being a fixed point of the dual
    map (2*dim = n and every partner cell holds monic(q*) of its cell),
    self_orthogonal G*G^T = 0 and not_orthogonal G*H^T != 0.

    The divisor tables (_divisor_table) are built once per alpha and stacked,
    each alpha's indices offset past the ones before it; one rank_stack call
    ranks every code and dual band.  The ranks of G and H are sums of band
    ranks, and the products are taken only on the (grid, c, c') that the
    grid's ring's Grams keep: one s x s product for each distinct band pair
    of the chunk, since rings with the same alpha share their bands.  No
    ring, no chunk."""
    if not rings:
        return
    field, s, n, width = rings[0].field, rings[0].s, rings[0].n, rings[0].k * rings[0].l
    alphas = list(dict.fromkeys(ring.alpha for ring in rings))
    tables = [_divisor_table(field, s, alpha) for alpha in alphas]
    sizes = [len(degrees) for _, _, degrees, _ in tables]   # divisors per cell
    offsets = list(itertools.accumulate(sizes, initial=0))
    code_bands, dual_bands, degrees = (np.concatenate(part) for part in list(zip(*tables))[:3])
    q_monic = np.concatenate([np.where(q < 0, -1, q + offset)   # -1 matches no index
                              for (*_, q), offset in zip(tables, offsets)])
    dual = len(code_bands)                 # the dual band of divisor d is bands[dual + d]
    bands = np.concatenate([code_bands, dual_bands])
    ranks = linalg.rank_stack(bands, field.p)
    table_of = [alphas.index(ring.alpha) for ring in rings]
    radix = np.array(sizes)[table_of]
    offset = np.array(offsets)[table_of]
    partners = np.array([cell_partners(ring) for ring in rings])
    starts = np.concatenate([[0], np.cumsum(radix ** width)])   # ring r: starts[r]..
    powers = np.arange(width - 1, -1, -1)
    for start in range(0, starts[-1], SWEEP_CHUNK):
        index = np.arange(start, min(start + SWEEP_CHUNK, starts[-1]))
        ring_of = np.searchsorted(starts, index, side="right") - 1
        size = radix[ring_of, None]
        grids = (index - starts[ring_of])[:, None] // size ** powers % size
        grid = grids + offset[ring_of, None]
        dims = n - degrees[grid].sum(axis=1)
        verdicts = (2 * dims == n) & (
            np.take_along_axis(grid, partners[ring_of], axis=1) == q_monic[grid]).all(axis=1)
        b, kind, c, c2 = np.nonzero(grams[ring_of])   # kind 0: G*G^T, kind 1: G*H^T
        pairs, which = np.unique(grid[b, c] * len(bands) + dual * kind + grid[b, c2],
                                 return_inverse=True)
        left, right = np.divmod(pairs, len(bands))
        nonzero = (bands[left] @ bands[right].transpose(0, 2, 1) % field.p).any(axis=(1, 2))[which]
        flags = np.bincount(2 * b[nonzero] + kind[nonzero], minlength=2 * len(index)).reshape(-1, 2)
        yield (ring_of, grids, ranks[grid].sum(axis=1), ranks[dual + grid].sum(axis=1), dims,
               verdicts, flags[:, 0] == 0, flags[:, 1] > 0)
