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
  1..p-1.  Each S is looked up among the (p-1)*n multiples -c*h_j by a
  64-bit linear key, and every key match is re-checked exactly, so a key
  collision cannot make a false hit.
* When the code is an ideal of the ring (its row space is closed under the
  x, y and z shifts, tested against the parity matrix), every support starts
  at coordinate 0.  The monomial x^a y^b z^c moves coordinate 0 to coordinate
  (a, b, c) and scales it by a power of the constants, so it preserves weight
  and every codeword has a shift with coordinate 0 in its support; the
  lexicographically first support of minimum weight therefore starts at 0.
  Other codes scan every first coordinate.

``candidates_tested`` stays the unreduced count, the sum of
C(n, w)*(p-1)^(w-1) over the weights searched, and the budget is compared
against it.  A full message-enumeration oracle is included for
cross-checking on small codes.
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
BRUTE_FORCE_LIMIT = 10**7


class SearchBudgetError(InputError):
    """The requested enumeration exceeds the allowed candidate count."""


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


@functools.cache
def _key_weights(m: int) -> np.ndarray:
    """The weights of the linear key of a length-m syndrome: the odd powers
    _KEY_BASE^1..m mod 2^64, built on first use for each m."""
    return np.array([pow(_KEY_BASE, r + 1, 1 << 64) for r in range(m)], dtype=np.uint64)


@functools.lru_cache(maxsize=64)
def _prefix_patterns(p: int, w: int, chunk: int) -> np.ndarray:
    """Chunk ``chunk`` of the coefficient patterns of a length-(w-1) prefix:
    first entry 1, the others in 1..p-1, in lexicographic order."""
    base = p - 1
    count = base ** max(w - 2, 0)
    idx = np.arange(chunk * _PATTERN_CHUNK, min((chunk + 1) * _PATTERN_CHUNK, count))
    radices = base ** np.arange(w - 3, -1, -1)
    tails = idx[:, None] // radices % base + 1
    patterns = np.hstack([np.ones((len(idx), min(w - 1, 1)), dtype=np.int64), tails])
    patterns.setflags(write=False)
    return patterns


def _scan(parity: np.ndarray, p: int, w: int, firsts):
    """First weight-w (support, pattern) with zero syndrome in lexicographic
    order, among supports whose first coordinate lies in ``firsts``, or None.
    Weight 1 checks every column (in an ideal, a zero column makes all zero).

    Prefixes are batched into blocks of about _BLOCK syndrome entries; a
    larger block mostly computes syndromes past the first hit.  In a block,
    every prefix syndrome whose key matches some -c*h_j is compared exactly
    with all of them, and the least (prefix, j, pattern, c) with j > i_(w-1)
    wins; past w = 1 the columns are nonzero, so c is unique.
    """
    m, n = parity.shape
    cols = parity.T
    neg = -np.arange(1, p)[:, None, None] * cols % p             # (p-1, n, m): -c*h_j
    weights = _key_weights(m)
    table = np.sort(neg.reshape((p - 1) * n, m).view(np.uint64) @ weights)
    npat = (p - 1) ** max(w - 2, 0)
    per_block = max(1, _BLOCK // (min(npat, _PATTERN_CHUNK) * max(m, 1)))
    prefixes = iter([()]) if w == 1 else (
        (i,) + rest for i in firsts for rest in itertools.combinations(range(i + 1, n - 1), w - 2))
    later = np.arange(n)
    while block := list(itertools.islice(prefixes, per_block)):
        block = np.array(block, dtype=np.intp).reshape(len(block), w - 1)
        last = block[:, -1] if w > 1 else np.full(1, -1)
        gathered = cols[block]                                     # (B, w-1, m)
        best = None
        for chunk in range(-(-npat // _PATTERN_CHUNK)):
            syn = _prefix_patterns(p, w, chunk) @ gathered % p      # (B, P, m)
            keys = syn.view(np.uint64) @ weights
            found = table[np.minimum(np.searchsorted(table, keys), len(table) - 1)] == keys
            if not found.any():
                continue
            b, a = np.nonzero(found)
            exact = (syn[b, a][:, None, None, :] == neg).all(axis=3)   # (r, p-1, n)
            exact &= (later > last[b][:, None])[:, None, :]
            r, c, j = np.nonzero(exact)
            hits = [*zip(b[r].tolist(), j.tolist(), (a[r] + chunk * _PATTERN_CHUNK).tolist(),
                         c.tolist())] + ([best] if best else [])
            best = min(hits, default=None)
        if best is not None:
            b, j, a, c = best
            pattern = _prefix_patterns(p, w, a // _PATTERN_CHUNK)[a % _PATTERN_CHUNK]
            return (*block[b].tolist(), j), (*pattern.tolist(), c + 1)
    return None


def min_distance(code: BuiltCode, max_weight: int | None = None,
                 budget: int = DEFAULT_BUDGET,
                 parity: np.ndarray | None = None) -> DistanceResult:
    """Increasing-weight syndrome search for the exact minimum distance.

    Stops with a lower bound (d = None, d > weight_checked) if the candidate
    budget or max_weight is exhausted first.  ``parity`` may supply a
    precomputed parity-check matrix, whose rows must span ker G; by default
    the kernel of the generator matrix is used.
    """
    if code.dimension < 1:
        raise InputError("a zero-dimensional code has no nonzero codeword")
    ring = code.ring
    p = ring.field.p
    n = code.n
    if parity is None:
        parity = linalg.null_space(code.generator_matrix, p)
    else:
        parity = linalg.as_matrix(parity, p)
    firsts = (0,) if all(quasi_twisted_closure(code, parity).values()) else range(n)
    cap = n if max_weight is None else min(max_weight, n)
    tested = 0
    for w in range(1, cap + 1):
        candidates = math.comb(n, w) * (p - 1) ** (w - 1)
        if tested + candidates > budget:
            return DistanceResult(None, w - 1, None, tested)
        hit = _scan(parity, p, w, firsts)
        tested += candidates
        if hit is not None:
            support, pattern = hit
            witness = np.zeros(n, dtype=np.int64)
            witness[list(support)] = pattern
            return DistanceResult(w, w - 1, tuple(int(v) for v in witness), tested)
    return DistanceResult(None, cap, None, tested)


def min_distance_bruteforce(code: BuiltCode, limit: int = BRUTE_FORCE_LIMIT) -> int:
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
