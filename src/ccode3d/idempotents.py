"""Primitive central idempotents of F_q[z]/(z^k - gamma) and of the full
cyclotomic quotient F_q[z]/(z^(rk) - 1), where r is the order of gamma.

The same constructors serve the y-block: call them with (l, beta) to get the
idempotents of F_q[y]/(y^l - beta).  Construction requires an element omega
of order r*k with omega**k == gamma, hence q = 1 (mod r*k); under that
hypothesis both moduli split into distinct linear factors.  A family is its
roots and its int64 coefficients E[t, i] = m^-1 * roots[t]^-i (member t is
1 at roots[t], 0 at the other roots), m^-1 times the Vandermonde matrix at
the inverse roots; members are polynomials only when printed.  The modulus
is z^m - roots[0]^m, and the coefficient reversal of member t is
proportional to the member at the inverse root (``IdempotentFamily.reversal``).
Products of members are read from their values at the roots of the
modulus (``member_values``, once a family): no ring product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .gf import FieldSpec, InputError, element_order, find_root
from .poly import Poly


class RepeatedRootsError(InputError):
    """The modulus has repeated roots (characteristic divides r*k)."""


@dataclass(frozen=True, eq=False)
class IdempotentFamily:
    """The idempotents of F_q[z]/(z^m - c) for a split modulus with the m
    distinct roots ``roots``: member t, 1 at roots[t] and 0 at the rest, has
    the ascending coefficients E[t] = coefficients[t].  Equal by identity."""

    field: FieldSpec
    roots: tuple[int, ...]
    coefficients: np.ndarray

    @property
    def size(self) -> int:
        return len(self.roots)

    @property
    def members(self) -> tuple[Poly, ...]:
        """The members as polynomials, made from E on each read, for printing."""
        return tuple(Poly.from_coeffs(self.field, row) for row in self.coefficients.tolist())

    def modulus(self) -> Poly:
        return Poly.binomial(self.field, self.size, self.field.pow(self.roots[0], self.size))

    def reversal(self) -> tuple[int, ...]:
        """For each member e_rho, the index of e_(1/rho), to which its reversal
        z^(m-1) * e_rho(1/z) is proportional.  Needs the roots closed under
        inversion (c = c^-1, or the full family), else raises KeyError."""
        index = {rho: t for t, rho in enumerate(self.roots)}
        return tuple(index[self.field.inv(rho)] for rho in self.roots)


def _root_data(field: FieldSpec, k: int, gamma: int) -> tuple[int, int]:
    """(r, omega): the order of gamma and the fixed root find_root gives."""
    if k < 1:   # before the repeated-roots test, which k = 0 would pass as r*k = 0
        raise InputError(f"block length must be positive, got {k}")
    r = element_order(field, gamma)
    if (r * k) % field.p == 0:
        raise RepeatedRootsError(
            f"z^{r * k} - 1 has repeated roots over F_{field.p} "
            f"(characteristic divides {r * k})"
        )
    return r, find_root(field, k, gamma)


def _geometric_family(field: FieldSpec, roots: tuple[int, ...]) -> IdempotentFamily:
    """The family whose member t is m^-1 * sum_{i<m} (z/roots[t])^i, for the m
    roots of a split modulus: E is m^-1 times the cached Vandermonde matrix
    at the inverse roots.  At another root rho' the sum runs over the powers
    of rho'/roots[t], an m-th root of unity other than 1, and vanishes."""
    m, p = len(roots), field.p
    inverses = tuple(field.inv(rho) for rho in roots)
    coefficients = linalg.root_powers(m, pow(inverses[0], m, p), p, inverses).astype(np.int64)
    coefficients *= field.inv(m % p)
    coefficients %= p
    coefficients.setflags(write=False)
    return IdempotentFamily(field, roots, coefficients)


@lru_cache(maxsize=None)
def build_full_idempotents(field: FieldSpec, k: int, gamma: int) -> IdempotentFamily:
    """The rk idempotents of F_q[z]/(z^(rk) - 1).

    Member t is the geometric sum (1/rk) * sum_{i<rk} (z/omega^t)^i; it
    evaluates to 1 at omega^t and to 0 at every other rk-th root of unity.
    """
    r, omega = _root_data(field, k, gamma)
    roots = tuple(field.pow(omega, t) for t in range(r * k))
    return _geometric_family(field, roots)


@lru_cache(maxsize=None)
def build_constacyclic_idempotents(field: FieldSpec, k: int, gamma: int) -> IdempotentFamily:
    """The k idempotents of F_q[z]/(z^k - gamma).

    Member t is the geometric sum (1/k) * sum_{i<k} (z/rho_t)^i at the root
    rho_t = omega^(1 + t*r): the polynomial of degree < k that is 1 at rho_t
    and 0 at the other roots of z^k - gamma (its Lagrange interpolant).
    """
    r, omega = _root_data(field, k, gamma)
    roots = tuple(field.pow(omega, 1 + t * r) for t in range(k))
    return _geometric_family(field, roots)


def _evaluations(coefficients: np.ndarray, points, p: int) -> np.ndarray:
    """The float64 residues E[t](points[r]), one float64 product of E by the
    Vandermonde matrix of the points (linalg.powers): exact, as every partial
    sum stays below m * (p - 1)^2 < 2^48 for m, p < 2^16."""
    table = linalg.powers(points, coefficients.shape[1], p).astype(np.float64)
    return linalg.float_residues(coefficients @ table.T, p)


@lru_cache(maxsize=None)
def member_values(fam: IdempotentFamily) -> np.ndarray | None:
    """The read-only residues V[t, r] = e_t(zeta_r) at the roots zeta_0 <
    zeta_1 < ... of the modulus z^m - c, found by scanning F_p (fam.roots
    are on trial), or None if F_p holds fewer than m.  Evaluation at m
    distinct roots is the CRT isomorphism F_p[z]/(z^m - c) ~ F_p^m, so
    e_t * e_t' = 0 iff rows t and t' of V have disjoint supports."""
    p, m = fam.field.p, fam.size
    constant = fam.field.pow(fam.roots[0], m)
    roots = [zeta for zeta in range(1, p) if pow(zeta, m, p) == constant]
    if len(roots) < m:
        return None
    values = _evaluations(fam.coefficients, roots, p)
    values.setflags(write=False)
    return values


def identity_report(fam: IdempotentFamily) -> dict[str, bool]:
    """Self-check of the defining identities on the coefficients E; used by
    the verify command.  Completeness (members sum to 1 mod the modulus)
    from E's column sums; orthogonality from member_values, whose residues
    at each root must sum to at most 1, so be 0 but for at most one 1
    (failed if F_p holds fewer than m roots); the delta evaluations from E
    at fam.roots; and z*e_t = roots[t]*e_t mod the modulus as the row
    rotated one place, the wrapped coefficient times the modulus constant.
    """
    p, m = fam.field.p, fam.size
    constant = fam.field.pow(fam.roots[0], m)
    e = fam.coefficients
    values = member_values(fam)
    roots = np.array(fam.roots, dtype=np.int64) % p
    identity = np.eye(m, dtype=np.int64)
    shifted = np.roll(e, 1, axis=1)
    shifted[:, 0] = shifted[:, 0] * constant % p
    return {
        "completeness": np.array_equal(e.sum(axis=0) % p, identity[0]),
        "orthogonality": values is not None and bool(values.sum(axis=0).max() <= 1),
        "root_evaluations": np.array_equal(_evaluations(e, roots, p), identity),
        "shift_eigenvalue": np.array_equal(shifted, e * roots[:, None] % p),
    }
