"""Exact minimum Hamming distance of a built code.

The search enumerates candidate codewords by increasing weight w: supports
i_1 < ... < i_w with coefficient patterns whose first entry is 1, in
lexicographic (support, pattern) order, each tested for a zero syndrome
against a parity-check matrix.  The first hit is the exact distance; the cost
scales with the distance rather than with the message count.  Two reductions
find the same first hit with less work:

* The last coefficient is solved, not enumerated.  A prefix i_1 < ... <
  i_(w-1) with its coefficients has syndrome S, and it completes to a
  codeword iff S = -c*h_j for a column h_j with j > i_(w-1) and some c in
  1..p-1, that is iff S and h_j, each scaled to a leading 1, are equal.
  The n scaled columns are indexed once per search, for every weight: each
  S is first projected to r <= m coordinates by a fixed matrix over F_p,
  and one gather from a bit filter of at most 2^20 entries, marked with the
  projected multiples' keys, rejects nearly every S that completes nothing.
  Only a survivor gets its full syndrome, scaled to a leading 1, which must
  match a 64-bit linear key of some scaled column and then equal it exactly,
  so neither a filter nor a key collision can make a false hit.
* When the code is an ideal of the ring (its row space is closed under the
  x, y and z shifts, tested against the parity matrix), every support starts
  at coordinate 0.  The monomial x^a y^b z^c moves coordinate 0 to coordinate
  (a, b, c) and scales it by a power of the constants, so it preserves weight
  and every codeword has a shift with coordinate 0 in its support; the
  lexicographically first support of minimum weight therefore starts at 0.
  Other codes scan every first coordinate.

``candidates_tested`` stays the unreduced count, the sum of
C(n, w)*(p-1)^(w-1) over the weights searched, and the budget is compared
against it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .codes import BuiltCode, quasi_twisted_closure
from .gf import InputError

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class DistanceResult:
    """The outcome of min_distance.

    ``witness`` is the first zero-syndrome word in lexicographic (support,
    pattern) order; for an ideal its support contains coordinate 0.
    ``candidates_tested`` is the unreduced count sum C(n, w)*(p-1)^(w-1)
    over the weights searched, the quantity the budget caps, not the number
    of syndromes computed.
    """
    d: int | None                     # exact distance, or None if only bounded
    weight_checked: int               # highest weight exhaustively cleared
    witness: tuple[int, ...] | None   # a codeword of weight d, when exact
    candidates_tested: int

    @property
    def exact(self) -> bool:
        return self.d is not None


_BLOCK = 1 << 14           # syndrome entries per batched product
_PATTERN_CHUNK = 1 << 12   # prefix patterns per product
_KEY_BASE = 0x9E3779B97F4A7C15
_FILTER_BITS = (10, 20)    # the filter has 2^bits entries, bits clamped to this range


@functools.cache
def _key_weights(m: int) -> np.ndarray:
    """The weights of the linear key of a length-m syndrome: the odd powers
    _KEY_BASE^1..m mod 2^64, built on first use for each m."""
    return np.array([pow(_KEY_BASE, r + 1, 1 << 64) for r in range(m)], dtype=np.uint64)


def _filter_bits(p: int, n: int) -> int:
    """log2 of the filter's size for a length-n code over F_p: at least 64
    entries per multiple -c*h_j, clamped so the table never passes 1 MiB."""
    low, high = _FILTER_BITS
    return min(max((64 * (p - 1) * n).bit_length(), low), high)


def _projection_width(p: int, m: int, n: int) -> int:
    """The number r <= m of coordinates a syndrome is projected to: enough
    that p^r exceeds the filter's size p-fold."""
    return min(m, math.ceil(_filter_bits(p, n) / math.log2(p)) + 1)


@dataclass(frozen=True)
class _ColumnIndex:
    """The lookup of the columns h_j of a parity matrix, each scaled to a
    leading 1, built once per min_distance call and shared by every weight.

    ``filter`` marks the top bits of the _key_weights(r) keys of the
    projected multiples -c*h_j*P mod p, where P is the fixed (m, r) matrix
    [I_r; A] of rank r, A's entries a fixed multiplicative hash of their
    position reduced mod p.  A syndrome S equal to some -c*h_j has
    S*P = -c*h_j*P, so its key's top bits are marked: a syndrome the filter
    rejects completes nothing.  S = -c*h_j iff S and h_j scaled to a leading
    1 are equal, so the exact check takes the n ``scaled`` columns, their
    sorted full ``keys``, and the leading entries ``lead`` that give c."""
    columns: np.ndarray     # (n, m) float64: h_j
    projected: np.ndarray   # (n, r) float64: h_j*P mod p
    scaled: np.ndarray      # (n, m) int64: h_j over its first nonzero entry, 0 for a zero column
    lead: np.ndarray        # (n,) int64: the first nonzero entry of h_j, 0 for a zero column
    keys: np.ndarray        # sorted uint64 keys of scaled
    filter: np.ndarray      # (2^bits,) bool
    shift: np.uint64        # 64 - bits: a key's top bits index the filter


def _leading(rows: np.ndarray) -> np.ndarray:
    """The first nonzero entry of each row of an (s, m) stack, 0 for a zero row."""
    if not rows.shape[1]:
        return np.zeros(len(rows), dtype=rows.dtype)
    return rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]


def _column_index(parity: np.ndarray, p: int) -> _ColumnIndex:
    """The index of an (m, n) parity matrix.  The filter is marked slice by
    slice of projected multiples, until it is full or every multiple is in."""
    m, n = parity.shape
    r = _projection_width(p, m, n)
    bits = _filter_bits(p, n)
    mix = (np.arange(1, (m - r) * r + 1, dtype=np.uint64) * np.uint64(_KEY_BASE)
           >> np.uint64(32)) % np.uint64(p)
    cols = parity.T
    projected = (cols[:, :r] + cols[:, r:] @ mix.astype(np.int64).reshape(m - r, r)) % p
    shift = np.uint64(64 - bits)
    marked = np.zeros(1 << bits, dtype=bool)
    slices = math.ceil((p - 1) * n / len(marked))   # about 2^bits keys a slice
    for mults in np.array_split(-np.arange(1, p)[:, None, None], slices):
        marked[(mults * projected % p).view(np.uint64) @ _key_weights(r) >> shift] = True
        if marked.all():
            break
    lead = _leading(cols)
    scaled = cols * linalg._inverses(p)[lead][:, None] % p
    keys = np.sort(scaled.view(np.uint64) @ _key_weights(m))
    return _ColumnIndex(cols.astype(np.float64), projected.astype(np.float64), scaled, lead,
                        keys, marked, shift)


@functools.lru_cache(maxsize=64)
def _prefix_patterns(p: int, w: int, chunk: int) -> np.ndarray:
    """Chunk ``chunk`` of the coefficient patterns of a length-(w-1) prefix:
    first entry 1, the others in 1..p-1, in lexicographic order, as float64
    for the products of _scan."""
    base = p - 1
    count = base ** max(w - 2, 0)
    idx = np.arange(chunk * _PATTERN_CHUNK, min((chunk + 1) * _PATTERN_CHUNK, count))
    radices = base ** np.arange(w - 3, -1, -1)
    tails = idx[:, None] // radices % base + 1
    patterns = np.hstack([np.ones((len(idx), min(w - 1, 1))), tails])   # float64
    patterns.setflags(write=False)
    return patterns


def _scan(index: _ColumnIndex, p: int, w: int, firsts):
    """First weight-w (support, pattern) with zero syndrome in lexicographic
    order, among supports whose first coordinate lies in ``firsts``, or None.
    Weight 1 checks every column (in an ideal, a zero column makes all zero).

    Prefixes are batched into blocks of about _BLOCK syndrome entries; a
    larger block mostly computes syndromes past the first hit.  In a block,
    the projected prefix syndromes S*P are one float64 product reduced mod
    p in place (linalg.float_residues), exact while (w-1)*(p-1)^2 < 2^52,
    which holds for p < 2^16 and n <= 4096.  One gather from the index's
    filter rejects a syndrome that completes nothing.  A survivor gets its
    full m-row syndrome, scaled to a leading 1, which must match some full
    key of the scaled columns and then equal one of them exactly, so neither
    a filter nor a key collision can make a false hit; the least (prefix,
    j, pattern) with j > i_(w-1) wins, with c = -S_lead/h_j_lead.  A zero
    syndrome matches only a zero column, at w = 1, where c = 1.
    """
    n, m = index.columns.shape
    r = index.projected.shape[1]
    short_weights, full_weights = _key_weights(r), _key_weights(m)
    inverse = linalg._inverses(p)
    npat = (p - 1) ** max(w - 2, 0)
    per_block = max(1, _BLOCK // (min(npat, _PATTERN_CHUNK) * max(r, 1)))
    prefixes = iter([()]) if w == 1 else (
        (i,) + rest for i in firsts for rest in itertools.combinations(range(i + 1, n - 1), w - 2))
    while block := list(itertools.islice(prefixes, per_block)):
        block = np.array(block, dtype=np.intp).reshape(len(block), w - 1)
        last = block[:, -1] if w > 1 else np.full(1, -1)
        projected = index.projected[block]                          # (B, w-1, r)
        best = None
        for chunk in range(-(-npat // _PATTERN_CHUNK)):
            patterns = _prefix_patterns(p, w, chunk)
            keys = linalg.float_residues(patterns @ projected, p).astype(np.uint64)
            keys = keys @ short_weights                                 # (B, P)
            passed = index.filter[keys >> index.shift]
            if not passed.any():
                continue
            b, a = np.nonzero(passed)
            syn = (patterns[a, None, :] @ index.columns[block[b]])[:, 0]
            syn = linalg.float_residues(syn, p).astype(np.int64)
            lead = _leading(syn)
            scaled = syn * inverse[lead][:, None] % p
            keys = scaled.view(np.uint64) @ full_weights
            found = index.keys[np.minimum(np.searchsorted(index.keys, keys), len(index.keys) - 1)] == keys
            if not found.any():
                continue
            b, a, lead, scaled = b[found], a[found], lead[found], scaled[found]
            exact = (scaled[:, None, :] == index.scaled).all(axis=2)    # (s, n)
            exact &= np.arange(n) > last[b][:, None]
            t, j = np.nonzero(exact)
            c = np.maximum(-lead[t] * inverse[index.lead[j]] % p, 1)   # 0 only for a zero column
            hits = [*zip(b[t].tolist(), j.tolist(), (a[t] + chunk * _PATTERN_CHUNK).tolist(),
                         c.tolist())] + ([best] if best else [])
            best = min(hits, default=None)
        if best is not None:
            b, j, a, c = best
            pattern = _prefix_patterns(p, w, a // _PATTERN_CHUNK)[a % _PATTERN_CHUNK]
            return (*block[b].tolist(), j), (*map(int, pattern), c)
    return None


def min_distance(code: BuiltCode, parity: np.ndarray, max_weight: int | None = None,
                 budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Increasing-weight syndrome search for the exact minimum distance
    against a parity-check matrix, whose rows must span ker G.

    Stops with a lower bound (d = None, d > weight_checked) if the candidate
    budget or max_weight is exhausted first.
    """
    if code.dimension < 1:
        raise InputError("a zero-dimensional code has no nonzero codeword")
    p, n = code.ring.field.p, code.n
    parity = linalg.as_matrix(parity, p)
    index = _column_index(parity, p)
    firsts = (0,) if all(quasi_twisted_closure(code, parity).values()) else range(n)
    cap = n if max_weight is None else min(max_weight, n)
    tested = 0
    for w in range(1, cap + 1):
        candidates = math.comb(n, w) * (p - 1) ** (w - 1)
        if tested + candidates > budget:
            return DistanceResult(None, w - 1, None, tested)
        hit = _scan(index, p, w, firsts)
        tested += candidates
        if hit is not None:
            support, pattern = hit
            witness = np.zeros(n, dtype=np.int64)
            witness[list(support)] = pattern
            return DistanceResult(w, w - 1, tuple(int(v) for v in witness), tested)
    return DistanceResult(None, cap, None, tested)
