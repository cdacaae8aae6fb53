"""Elements of R = F_q[x,y,z]/(x^s - alpha, y^l - beta, z^k - gamma).

An element is a dense s*l*k coefficient tensor c[i, j, t] for the monomial
x^i y^j z^t.  The canonical codeword layout concatenates the z-slices:

    position(i, j, t) = t*(s*l) + j*s + i

so a flattened word reads (z^0 block | z^1 block | ... | z^(k-1) block), each
block listing the y^j runs of x-coefficients, low powers first.  This module
is the only place that knows the layout.  ``kron_words`` lays a stack of
x-rows against a stack of (l, k) tensors w_c, such as the cells
e_j(y)*e_t(z), as the blocks kron(w_c^T, X_c), reducing nothing.

R is the tensor product of the three univariate rings F_q[u]/(u^m - c), so
the ring product factors axis by axis.  ``axis_products`` multiplies two
broadcasting stacks in one such ring, as one batched matmul against the
twisted circulant of one operand, read as a strided view and never
gathered; every ring product that verify makes goes through it.  Its
identity check multiplies every pair of members of an idempotent family
(idempotents.identity_report), its complement check multiplies pure tensors
f(x)*e_j(y)*e_t(z) one axis at a time (codes.cell_product_zero_flags), and
its random-pair bridge between ring annihilators and Euclidean duality has
two independent sides: ``split_product_zero_flags`` takes the products
through the CRT split, with y and z evaluated at the roots of their split
moduli (the cached Vandermonde matrices of ``_root_powers``, which
codes.crt_blocks reads too) and the k*l components multiplied along x, and
``shift_orbit_orthogonal_flags`` walks the shift orbit and never multiplies.

``ring_products`` contracts two stacks of full tensors against one cached
multiplication table per axis, T[i, i', d] = c^((i+i')//m) where
d = (i+i') mod m and 0 elsewhere, and needs no split modulus.
RingElement3D wraps a single tensor with its ring and multiplies with it.
Nothing else in the package uses either; the tests use them as the oracle
of the products above, and ccbench traces RingElement3D.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import FieldMismatchError, FieldSpec, InputError

AXES = ("x", "y", "z")
_UNIT_STEPS = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}


@dataclass(frozen=True)
class RingParams:
    field: FieldSpec
    s: int
    l: int
    k: int
    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        if min(self.s, self.l, self.k) < 1:
            raise InputError("block lengths s, l, k must all be >= 1")
        for name in ("alpha", "beta", "gamma"):
            v = self.field.canon(getattr(self, name))
            if v == 0:
                raise InputError(f"{name} must be nonzero")
            object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return self.s * self.l * self.k

    def shape(self) -> tuple[int, int, int]:
        return (self.s, self.l, self.k)

    def inverse_constants(self) -> "RingParams":
        f = self.field
        return RingParams(f, self.s, self.l, self.k,
                          f.inv(self.alpha), f.inv(self.beta), f.inv(self.gamma))


def _as_tensor(params: RingParams, data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.int64) % params.field.p
    if arr.shape != params.shape():
        raise ValueError(f"expected tensor of shape {params.shape()}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RingElement3D:
    params: RingParams
    coeffs: np.ndarray   # shape (s, l, k), canonical residues, read-only

    @staticmethod
    def from_tensor(params: RingParams, data) -> "RingElement3D":
        return RingElement3D(params, _as_tensor(params, data))

    @staticmethod
    def from_axis_polys(params: RingParams, fx, gy, hz) -> "RingElement3D":
        """Product f(x)*g(y)*h(z) from ascending coefficient sequences.

        Each factor is reduced modulo its axis relation first (coefficient i
        folds onto i mod m with a wrap-constant power), so inputs of any
        degree are accepted.
        """
        xv = _reduce_axis(params.field, fx, params.s, params.alpha)
        yv = _reduce_axis(params.field, gy, params.l, params.beta)
        zv = _reduce_axis(params.field, hz, params.k, params.gamma)
        tensor = np.einsum("i,j,t->ijt", xv, yv, zv) % params.field.p
        return RingElement3D.from_tensor(params, tensor)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def _check(self, other: "RingElement3D"):
        if self.params != other.params:
            raise FieldMismatchError("ring parameters differ")

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement3D):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.coeffs, other.coeffs)

    def __mul__(self, other: "RingElement3D") -> "RingElement3D":
        """Ring product: 3-D convolution where an index overflow along x, y, z
        contributes a factor alpha, beta, gamma per full wrap (ring_products)."""
        self._check(other)
        return RingElement3D.from_tensor(self.params,
                                         ring_products(self.params, self.coeffs, other.coeffs))

    def shift(self, axis: str) -> "RingElement3D":
        """Constacyclic shift along one axis; equals multiplication by that
        variable, rotating blocks with the wrapped block scaled by the axis
        constant."""
        return RingElement3D.from_tensor(
            self.params, _monomial_shift(self.coeffs, self.params, *_UNIT_STEPS[axis])
        )

    def flatten(self) -> np.ndarray:
        """Canonical z-major codeword layout (see module docstring)."""
        vec = _to_words(self.params, self.coeffs).copy()
        vec.setflags(write=False)
        return vec

    def __repr__(self) -> str:
        return f"RingElement3D({self.params.s}x{self.params.l}x{self.params.k} over F_{self.params.field.p})"


def unflatten(params: RingParams, vec) -> RingElement3D:
    arr = np.asarray(vec, dtype=np.int64)
    if arr.shape != (params.n,):
        raise ValueError(f"expected vector of length {params.n}, got shape {arr.shape}")
    return RingElement3D.from_tensor(params, _to_tensors(params, arr))


def kron_words(params: RingParams, x_rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Flattened words f(x)*w_c(y, z) for a stack of x-rows laid against a
    stack of (l, k) residue tensors w_c: x_rows is (..., C, r, s), cells is
    (C, l, k), and row i of cell c in the (..., C, r, n) result is, in the
    z-major layout, row i of kron(w_c^T, X_c).  Formed by one broadcast,
    since np.kron is several times slower on small blocks; the leading axes
    batch, so one call builds every block of a code, or of a stack of codes.
    Only the products are reduced."""
    zy = np.swapaxes(cells, -1, -2).reshape(len(cells), 1, params.k * params.l, 1)
    words = zy * x_rows[..., None, :]                               # (..., C, r, k*l, s)
    words %= params.field.p
    return words.reshape(*x_rows.shape[:-1], params.n)


def _to_words(params: RingParams, tensors: np.ndarray) -> np.ndarray:
    """(..., s, l, k) coefficient tensors to (..., n) z-major words."""
    return np.swapaxes(tensors, -1, -3).reshape(*tensors.shape[:-3], params.n)


def _to_tensors(params: RingParams, words: np.ndarray) -> np.ndarray:
    """(..., n) z-major words to (..., s, l, k) coefficient tensors."""
    return np.swapaxes(words.reshape(*words.shape[:-1], params.k, params.l, params.s), -1, -3)


@lru_cache(maxsize=None)
def axis_table(m: int, constant: int, p: int) -> np.ndarray:
    """Read-only multiplication table of F_p[u]/(u^m - constant): the (m, m, m)
    array with T[i, i', d] = constant^((i+i') // m) when d = (i+i') mod m
    and 0 otherwise, so u^i * u^i' = sum_d T[i, i', d] u^d.  Cached per
    (m, constant, p) and shared by every product in that ring."""
    i = np.arange(m)
    total = i[:, None] + i[None, :]
    table = np.zeros((m, m, m), dtype=np.int64)
    table[i[:, None], i[None, :], total % m] = np.where(total < m, 1, constant % p)
    table.setflags(write=False)
    return table


def ring_products(params: RingParams, a, b) -> np.ndarray:
    """The products a * b of two stacks of coefficient tensors, (..., s, l, k)
    each, as a stack of canonical tensors.  The leading axes broadcast as in
    np.matmul: (P, ...) by (P, ...) gives the P pairwise products, (A, 1, ...)
    by (1, B, ...) all A*B products, and two single tensors their product.

    Computed as the contraction sum a[i,j,t] b[i',j',t'] Tx[i,i',d]
    Ty[j,j',e] Tz[t,t',f] against the per-axis tables of ``axis_table``,
    one axis at a time in int64 with a reduction mod p after each stage; the
    middle stage is one batched matmul of (..., l*k*s, s) by (..., s, l*k).
    Overflow bound: every term is a product of two residues, < p^2 < 2^32
    for p < 2^16, and each output sums at most max(s, l, k) nonzero
    terms, since T[i, :, d] has a single nonzero entry; so no partial sum
    reaches 2^63 while max(s, l, k) < 2^31.
    """
    p = params.field.p
    s, l, k = params.shape()
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    tx = axis_table(s, params.alpha, p).reshape(s, s * s)
    ty = axis_table(l, params.beta, p)
    tz = axis_table(k, params.gamma, p)
    w = np.moveaxis(a, -3, -1) @ tx                          # (..., j, t, i'd)
    w %= p
    w = np.swapaxes(w.reshape(*a.shape[:-3], l * k, s, s), -1, -2)
    w = w.reshape(*a.shape[:-3], l * k * s, s) @ b.reshape(*b.shape[:-3], s, l * k)
    w %= p                                                  # (..., jtd, j't')
    w = w.reshape(*w.shape[:-2], l, k, s, l, k)
    w = np.tensordot(w, ty, axes=([-5, -2], [0, 1]))        # (..., t, d, t', e)
    w %= p
    w = np.tensordot(w, tz, axes=([-4, -2], [0, 1]))        # (..., d, e, f)
    w %= p
    return w


def axis_products(m: int, constant: int, p: int, a, b) -> np.ndarray:
    """The products a * b in F_p[u]/(u^m - constant) of two stacks of
    canonical coefficient vectors, (..., m) each, whose leading axes
    broadcast as in np.matmul.

    (a*b)[d] = sum_i' b[i'] * C[i', d] for the twisted circulant of a,
    C[i', d] = a[(d - i') mod m] times constant where d < i' (the terms that
    wrap).  Row i' of C is the window of length m that starts m - i' into
    (constant * a | a), so C is a strided view of that (..., 2m) array and
    is never gathered: the products take O(m) memory a vector, not O(m^2).
    The sum is one batched matmul, reduced mod p.  Overflow bound: each
    output sums m products of two residues, below m * p^2 < 2^63 for
    p < 2^16 and m < 2^31.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    twisted = np.concatenate([a * (constant % p) % p, a], axis=-1)
    circulant = np.lib.stride_tricks.sliding_window_view(twisted, m, axis=-1)[..., m:0:-1, :]
    out = (b[..., None, :] @ circulant)[..., 0, :]
    out %= p
    return out


@lru_cache(maxsize=None)
def _root_powers(m: int, constant: int, p: int, roots: tuple[int, ...]) -> np.ndarray:
    """The read-only Vandermonde matrix V[r, i] = roots[r]^i, made once per
    family; raises ValueError unless roots are the m distinct roots of
    u^m - constant over F_p, the condition under which evaluating at them
    is the CRT split of F_p[u]/(u^m - constant)."""
    if len({rho % p for rho in roots}) != m or any(pow(rho, m, p) != constant % p for rho in roots):
        raise ValueError(f"{list(roots)} are not the {m} distinct roots of u^{m} - {constant} "
                         f"over F_{p}")
    powers = np.array([[pow(rho, i, p) for i in range(m)] for rho in roots], dtype=np.int64)
    powers.setflags(write=False)
    return powers


def split_product_zero_flags(params: RingParams, y_roots, z_roots, f, g) -> np.ndarray:
    """For two (P, s, l, k) stacks of canonical tensors, the boolean (P,)
    array f[u]*g[u] == 0, taken through the CRT split.

    y_roots and z_roots must be the l and k distinct roots of y^l - beta and
    z^k - gamma (ValueError otherwise).  Evaluating y and z at them maps R
    isomorphically onto the k*l copies of F_p[x]/(x^s - alpha), so a product
    is zero iff all k*l components of the two evaluated tensors multiply to
    zero along x (axis_products).  Each evaluation stage sums l or k
    products of residues and is reduced mod p before the next.
    """
    p = params.field.p
    vy = _root_powers(params.l, params.beta, p, tuple(y_roots))
    vz = _root_powers(params.k, params.gamma, p, tuple(z_roots))

    def split(tensors):   # (P, s, l, k) -> (P, k, l, s): tensor u at (sigma_t, rho_j)
        out = np.asarray(tensors, dtype=np.int64) @ vz.T % p
        return np.moveaxis(np.swapaxes(out, -1, -2) @ vy.T % p, -3, -1)

    products = axis_products(params.s, params.alpha, p, split(f), split(g))
    return ~products.reshape(len(products), params.n).any(axis=1)


def shift_orbit_orthogonal_flags(params: RingParams, f, g) -> np.ndarray:
    """For two (P, s, l, k) stacks of canonical tensors, the boolean (P,)
    array: f[u] is orthogonal to the whole shift orbit of reverse(g[u]).
    The bridge between ring annihilators and Euclidean duality says that
    this holds exactly when f[u]*g[u] == 0.

    This side never multiplies: it dots f's word with x^i y^j z^t times g's
    reversed word, read in the ring with the inverse constants, one monomial
    at a time for all pairs still orthogonal.  A pair drops out at its first
    nonzero dot product, and the walk stops when no pair is left; its first
    step, (0, 0, 0), is the plain dot product f . reverse(g).  Each dot sums
    n products of residues, below 2^63 for p < 2^16 and n < 2^31.
    """
    p = params.field.p
    f = np.asarray(f, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    inv = params.inverse_constants()
    words = _to_words(params, f)
    reversed_g = _to_tensors(inv, _to_words(params, g)[:, ::-1])
    ortho = np.ones(len(f), dtype=bool)
    for i, j, t in itertools.product(range(inv.s), range(inv.l), range(inv.k)):
        live = np.flatnonzero(ortho)
        if not live.size:
            break
        shifted = _to_words(inv, _monomial_shift(reversed_g[live], inv, i, j, t))
        ortho[live] = (words[live] * shifted).sum(axis=1) % p == 0
    return ortho


def _reduce_axis(field: FieldSpec, coeffs, m: int, constant: int) -> np.ndarray:
    out = np.zeros(m, dtype=np.int64)
    for i, c in enumerate(coeffs):
        out[i % m] = (out[i % m] + c * field.pow(constant, i // m)) % field.p
    return out


def _monomial_shift(tensor: np.ndarray, params: RingParams, i: int, j: int, t: int) -> np.ndarray:
    """Multiply coefficient tensors by x^i y^j z^t.

    The trailing three axes are (x, y, z), so a stack of tensors shifts in
    one call.  Each full wrap of an axis multiplies by that axis constant;
    the residual rotation scales only the wrapped leading slices.
    """
    p = params.field.p
    out = tensor
    for axis, steps, const in ((0, i, params.alpha), (1, j, params.beta), (2, t, params.gamma)):
        wraps, steps = divmod(steps, (params.s, params.l, params.k)[axis])
        if wraps:
            out = (out * pow(const, wraps, p)) % p
        if steps == 0:
            continue
        out = np.roll(out, steps, axis=axis - 3)
        sl = [Ellipsis, slice(None), slice(None), slice(None)]
        sl[1 + axis] = slice(0, steps)
        out[tuple(sl)] = (out[tuple(sl)] * const) % p
    return out % p
