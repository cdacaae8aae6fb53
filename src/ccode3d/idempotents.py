"""Primitive central idempotents of F_q[z]/(z^k - gamma) and of the full
cyclotomic quotient F_q[z]/(z^(rk) - 1), where r is the order of gamma.

The same constructors serve the y-block: call them with (l, beta) to get the
idempotents of F_q[y]/(y^l - beta).  Construction requires an element omega
of order r*k with omega**k == gamma, hence q = 1 (mod r*k); under that
hypothesis both moduli split into distinct linear factors.  A family is its
roots: member t is 1 at roots[t] and 0 at the other roots, the modulus is
z^m - roots[0]^m, and the coefficient reversal of member t is proportional
to the member at the inverse root (``IdempotentFamily.reversal``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .gf import FieldSpec, InputError, element_order, find_root
from .poly import Poly
from .ring3d import axis_products


class RepeatedRootsError(InputError):
    """The modulus has repeated roots (characteristic divides r*k)."""


@dataclass(frozen=True)
class IdempotentFamily:
    """The idempotents of F_q[z]/(z^m - c) for a split modulus with the m
    distinct roots ``roots``: members[t] is 1 at roots[t], 0 at the rest."""

    field: FieldSpec
    roots: tuple[int, ...]
    members: tuple[Poly, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def modulus(self) -> Poly:
        return Poly.binomial(self.field, self.size, self.field.pow(self.roots[0], self.size))

    def eigenvalue(self, t: int) -> int:
        """The root at which members[t] evaluates to 1."""
        if not 0 <= t < self.size:
            raise IndexError(f"index {t} out of range for family of size {self.size}")
        return self.roots[t]

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


def _geometric_members(field: FieldSpec, roots: tuple[int, ...]) -> tuple[Poly, ...]:
    """The idempotent m^-1 * sum_{i<m} (z/rho)^i for each root rho, where the
    m roots are those of a split modulus z^m - c.

    At another root rho' the sum runs over the powers of rho'/rho, an m-th
    root of unity other than 1, and vanishes; at rho itself it is m.
    """
    m = len(roots)
    inv_m = field.inv(m % field.p)
    members = []
    for rho in roots:
        w = field.inv(rho)
        coeffs = [inv_m]
        for _ in range(m - 1):
            coeffs.append(field.mul(coeffs[-1], w))
        members.append(Poly.from_coeffs(field, coeffs))
    return tuple(members)


@lru_cache(maxsize=None)
def build_full_idempotents(field: FieldSpec, k: int, gamma: int) -> IdempotentFamily:
    """The rk idempotents of F_q[z]/(z^(rk) - 1).

    Member t is the geometric sum (1/rk) * sum_{i<rk} (z/omega^t)^i; it
    evaluates to 1 at omega^t and to 0 at every other rk-th root of unity.
    """
    r, omega = _root_data(field, k, gamma)
    roots = tuple(field.pow(omega, t) for t in range(r * k))
    return IdempotentFamily(field, roots, _geometric_members(field, roots))


@lru_cache(maxsize=None)
def build_constacyclic_idempotents(field: FieldSpec, k: int, gamma: int) -> IdempotentFamily:
    """The k idempotents of F_q[z]/(z^k - gamma).

    Member t is the geometric sum (1/k) * sum_{i<k} (z/rho_t)^i at the root
    rho_t = omega^(1 + t*r): the polynomial of degree < k that is 1 at rho_t
    and 0 at the other roots of z^k - gamma (its Lagrange interpolant).
    """
    r, omega = _root_data(field, k, gamma)
    roots = tuple(field.pow(omega, 1 + t * r) for t in range(k))
    return IdempotentFamily(field, roots, _geometric_members(field, roots))


def identity_report(fam: IdempotentFamily) -> dict[str, bool]:
    """Self-check of the defining identities; used by the verify command.

    Checks completeness (members sum to 1 mod the modulus), pairwise
    orthogonality, the delta evaluations at the roots, and the eigenvalue
    identity z*e_t = eigenvalue(t)*e_t mod the modulus, on the (m, m)
    matrix E of the members' coefficients (each of degree < m, so a
    residue): completeness from its column sums, orthogonality from
    axis_products on every pair of rows (one call, or one a slice of rows
    where the m^3 products would pass linalg.PRODUCT_BYTES), the
    evaluations from E times the Vandermonde matrix of the roots, and z*e_t
    as the row rotated one place with the wrapped coefficient times the
    modulus constant.  The Vandermonde matrix is built here, unchecked, as
    the roots are on trial.
    """
    p, m = fam.field.p, fam.size
    constant = fam.field.pow(fam.roots[0], m)
    members = np.zeros((m, m), dtype=np.int64)
    for row, member in zip(members, fam.members):
        row[:len(member.coeffs)] = member.coeffs
    roots = np.array(fam.roots, dtype=np.int64) % p
    powers = np.ones((m, m), dtype=np.int64)
    for i in range(1, m):
        powers[:, i] = powers[:, i - 1] * roots % p
    identity = np.eye(m, dtype=np.int64)
    shifted = np.roll(members, 1, axis=1)
    shifted[:, 0] = shifted[:, 0] * constant % p
    step = max(1, linalg.PRODUCT_BYTES // (8 * m * m))
    return {
        "completeness": np.array_equal(members.sum(axis=0) % p, identity[0]),
        "orthogonality": all(
            np.array_equal(axis_products(m, constant, p, members[i:i + step, None], members),
                           identity[i:i + step, :, None] * members[i:i + step, None])
            for i in range(0, m, step)),
        "root_evaluations": np.array_equal(members @ powers.T % p, identity),
        "shift_eigenvalue": np.array_equal(shifted, members * roots[:, None] % p),
    }
