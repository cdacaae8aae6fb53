"""Exact linear algebra over F_p on integer numpy arrays.

Matrices are 2-D int64 arrays of canonical residues; every function takes the
prime modulus explicitly and never mutates its inputs.  ``rank_stack`` takes
a 3-D stack (B, rows, cols) and runs one column loop for all B matrices: zero
rows do not change a rank, so matrices of different heights are zero-padded
into one stack.  ``products_vanish`` tests a stack of products for zero in
float64, where BLAS multiplies exactly while each sum stays below 2^53.
The package ranks and multiplies its matrices block by block in the CRT
basis (codes.crt_blocks) with these two; ``rref``, ``rank`` and the int64
``matmul`` have no caller left in the package and stay as the tests'
references.  Rows H inside ker m span it iff rank H = cols - rank m.
"""

from __future__ import annotations

from functools import cache

import numpy as np

PRODUCT_BYTES = 1 << 26   # the most bytes of products that products_vanish forms at once


def as_matrix(data, p: int) -> np.ndarray:
    m = np.atleast_2d(np.asarray(data, dtype=np.int64)) % p
    return m


def matmul(a, b, p: int) -> np.ndarray:
    """(a @ b) mod p; inputs small enough that int64 products cannot overflow."""
    return (as_matrix(a, p) @ as_matrix(b, p)) % p


def rref(m, p: int) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """Unique reduced row echelon form, rank, and pivot columns.

    Each pivot is one whole-block update of columns c.. (columns < c of rows
    r.. are zero; rows zero in column c subtract zero).  Entries are reduced
    mod p only in the pivot column and row and once at the end: each update
    adds less than p^2 in magnitude, so entries stay below p + rank * p^2,
    within int64 for p < 2^16.
    """
    a = as_matrix(m, p).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col = a[r:, c] % p
        pr = int(col.argmax())   # any nonzero pivot row: the reduced form is unique
        if col[pr] == 0:
            continue
        pivot = a[r + pr, c:] * pow(int(col[pr]), -1, p) % p
        if pr:
            a[r + pr] = a[r]
        rest = a[:, c:]
        rest -= rest[:, :1] % p * pivot
        a[r, c:] = pivot
        pivots.append(c)
        r += 1
    return a % p, r, tuple(pivots)


@cache
def _inverses(p: int) -> np.ndarray:
    """x^-1 mod p at index x, 0 at 0."""
    return np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)


def rank_stack(m, p: int) -> np.ndarray:
    """The rank of every matrix of a (B, rows, cols) stack, as (B,).

    One column loop serves the stack, with no row exchange.  At column c
    each matrix takes any row with a nonzero entry there as its pivot
    (none when the column is zero), scales it by the inverse table and
    subtracts it from every row, itself included: the other rows lose
    column c and the pivot row becomes zero.  The rows left are zero at c
    and the pivot row was not, so it is independent of them and the rank
    is one more than theirs.  A matrix with no pivot subtracts a zero row.
    Entries are reduced lazily, as in rref: each column adds less than p^2
    in magnitude, so they stay below p + cols * p^2, and a pivot row times
    an inverse stays within int64 for p < 2^16 and cols <= 4096.
    """
    a = np.asarray(m, dtype=np.int64) % p
    count, rows, cols = a.shape
    ranks = np.zeros(count, dtype=np.intp)
    if not rows:
        return ranks
    inverse = _inverses(p)
    every = np.arange(count)
    for c in range(cols):
        col = a[:, :, c] % p
        pr = col.argmax(axis=1)                     # a nonzero row, if the column has one
        lead = col[every, pr]
        ranks += lead != 0
        pivot = a[every, pr, c:] * inverse[lead][:, None] % p
        a[:, :, c:] -= col[:, :, None] * pivot[:, None, :]
    return ranks


def float_residues(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, for a float64 array of integers 0 <= x < 2^52.

    x / p then rounds to a value whose floor is the exact quotient (a
    multiple of p divides exactly, and x / p = q + r/p with 0 < r < p stays
    below q + 1 by more than half an ulp), and q * p and x - q * p are
    exact; np.fmod gives the same residues, many times slower on large x.
    """
    quotient = x / p
    np.floor(quotient, out=quotient)
    quotient *= -p
    x += quotient
    return x


def products_vanish(a, b, p: int) -> bool:
    """True iff a[i] @ b[i].T = 0 mod p for every i, for two float64 stacks
    of canonical residues, (B, r, c) and (B, r', c).

    BLAS multiplies them exactly: every partial sum is an integer below
    c * (p - 1)^2, under 2^44 for c <= 4096 and p < 2^16, which is exactly
    representable whatever the order of the sums (float_residues reduces it).  a's rows are taken in
    slices whose products take at most PRODUCT_BYTES bytes, and the test
    stops at the first slice with a nonzero product.
    """
    count, rows, _ = a.shape
    step = max(1, PRODUCT_BYTES // max(1, 8 * count * b.shape[1]))
    right = np.swapaxes(b, 1, 2)
    return not any(float_residues(a[:, i:i + step] @ right, p).any() for i in range(0, rows, step))


def rank(m, p: int) -> int:
    return rref(m, p)[1]


def row_space_contains(m, v, p: int) -> bool:
    """True iff v, or every row of a 2-D stack v, is a linear combination of
    the rows of m.

    One rref of m serves the whole stack: a vector w lies in the row space
    iff it equals sum_r w[pivot_r] * rref_row_r, since the reduced rows are
    the identity on the pivot columns.
    """
    a = as_matrix(m, p)
    vecs = np.asarray(v, dtype=np.int64) % p
    if vecs.ndim not in (1, 2) or vecs.shape[-1] != a.shape[1]:
        raise ValueError(f"vector shape {vecs.shape} does not match {a.shape[1]} columns")
    reduced, rk, pivots = rref(a, p)
    w = np.atleast_2d(vecs)
    return not ((w - w[:, list(pivots)] @ reduced[:rk]) % p).any()


def null_space(m, p: int) -> np.ndarray:
    """Row basis of the right kernel {v : m @ v == 0}; cols - rank rows.  Row i
    is 1 at the i-th free column, 0 at the others, -reduced[:, free_i] on pivots."""
    reduced, rk, pivots = rref(m, p)
    cols = reduced.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[:, free] = np.eye(len(free), dtype=np.int64)
    basis[:, list(pivots)] = (-reduced[:rk][:, free].T) % p
    return basis
