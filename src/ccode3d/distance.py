"""Exact minimum Hamming distance of a built code.

The search enumerates candidate codewords by increasing weight: supports of
size w combined with coefficient patterns whose first nonzero entry is
normalized to 1, each tested for a zero syndrome against a parity-check
matrix.  The first hit is the exact distance; the cost scales with the
distance rather than with the message count.  A full message-enumeration
oracle is included for cross-checking on small codes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .codes import BuiltCode

DEFAULT_BUDGET = 10**8
BRUTE_FORCE_LIMIT = 10**7


class SearchBudgetError(ValueError):
    """The requested enumeration exceeds the allowed candidate count."""


@dataclass(frozen=True)
class DistanceResult:
    d: int | None                     # exact distance, or None if only bounded
    weight_checked: int               # highest weight exhaustively cleared
    witness: tuple[int, ...] | None   # a codeword of weight d, when exact
    candidates_tested: int

    @property
    def exact(self) -> bool:
        return self.d is not None


_PATTERN_CHUNK = 1 << 15


def _pattern_chunks(p: int, w: int):
    """Length-w coefficient patterns, first entry fixed to 1, remaining
    entries in 1..p-1, yielded as arrays in mixed-radix order."""
    if w == 1:
        yield np.ones((1, 1), dtype=np.int64)
        return
    base = p - 1
    count = base ** (w - 1)
    radices = np.array([base**c for c in range(w - 2, -1, -1)], dtype=np.int64)
    for start in range(0, count, _PATTERN_CHUNK):
        idx = np.arange(start, min(start + _PATTERN_CHUNK, count), dtype=np.int64)
        tails = (idx[:, None] // radices[None, :]) % base + 1
        yield np.hstack([np.ones((len(idx), 1), dtype=np.int64), tails])


def _scan_supports(parity: np.ndarray, p: int, w: int, supports):
    """First (support, pattern) with zero syndrome, in enumeration order."""
    for sup in supports:
        cols = parity[:, sup]                           # (m, w)
        for patterns in _pattern_chunks(p, w):
            syndromes = (patterns @ cols.T) % p         # (chunk, m)
            hits = ~syndromes.any(axis=1)
            if hits.any():
                idx = int(np.argmax(hits))
                return tuple(int(c) for c in sup), patterns[idx]
    return None


def min_distance(code: BuiltCode, max_weight: int | None = None,
                 budget: int = DEFAULT_BUDGET,
                 parity: np.ndarray | None = None) -> DistanceResult:
    """Increasing-weight syndrome search for the exact minimum distance.

    Stops with a lower bound (d = None, d > weight_checked) if the candidate
    budget or max_weight is exhausted first.  ``parity`` may supply a
    precomputed parity-check matrix; by default the kernel of the generator
    matrix is used.
    """
    if code.dimension < 1:
        raise ValueError("a zero-dimensional code has no nonzero codeword")
    ring = code.ring
    p = ring.field.p
    n = code.n
    if parity is None:
        parity = linalg.null_space(code.generator_matrix, p)
    else:
        parity = linalg.as_matrix(parity, p)
    cap = n if max_weight is None else min(max_weight, n)
    tested = 0
    for w in range(1, cap + 1):
        candidates = math.comb(n, w) * (p - 1) ** (w - 1)
        if tested + candidates > budget:
            return DistanceResult(None, w - 1, None, tested)
        hit = _scan_supports(parity, p, w, itertools.combinations(range(n), w))
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
