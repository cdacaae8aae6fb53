"""Exact arithmetic in prime fields F_p, multiplicative orders, roots of unity.

Field elements are plain ints, canonical residues in [0, p); every layer
(scalars, polynomials, tensors, matrices) takes the ``FieldSpec`` alongside
them and uses its int-level helpers.  ``FieldMismatchError`` is raised where
two polynomials or ring elements over different fields meet.
"""

from __future__ import annotations

from dataclasses import dataclass


class FieldMismatchError(ValueError):
    """Two operands belong to different fields."""


class InputError(ValueError):
    """Invalid input to a construction: the CLI reports it and exits 2."""


class MissingRootOfUnityError(InputError):
    """F_p lacks a root of unity required by a construction.

    Carries ``r`` (order of the constant), ``k`` (block length) and ``p``.
    """

    def __init__(self, r: int, k: int, p: int):
        self.r = r
        self.k = k
        self.p = p
        super().__init__(
            f"field F_{p} lacks the required root of unity: need an element of "
            f"order {r}*{k}={r * k}, but {r * k} does not divide p-1={p - 1} "
            f"(or no such root exists)"
        )


def is_prime(n: int) -> bool:
    """Deterministic, by the trial division of _prime_factors; moduli here are < 2**16."""
    return n > 1 and _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_p with 2 < p < 2**16."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not (2 < self.p < 2**16):
            raise InputError(f"field modulus must satisfy 2 < p < 2**16, got {self.p!r}")
        if not is_prime(self.p):
            raise InputError(f"field modulus {self.p} is not prime")

    # --- int-level helpers (canonical residues in, canonical residues out) ---

    def canon(self, v: int) -> int:
        return v % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse via a**(p-2); exact and branch-free."""
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p})"


def element_order(field: FieldSpec, a: int) -> int:
    """Smallest positive t with a**t == 1 in F_p; always divides p-1."""
    p = field.p
    a %= p
    if a == 0:
        raise InputError("0 has no multiplicative order")
    order = p - 1
    for f in _prime_factors(p - 1):
        while order % f == 0 and pow(a, order // f, p) == 1:
            order //= f
    return order


def find_root(field: FieldSpec, k: int, gamma: int) -> int:
    """Smallest w in F_p with w**k == gamma and multiplicative order r*k.

    ``r`` is the order of gamma.  Requires r*k to divide p-1; the smallest
    valid residue is returned so constructions are reproducible.
    """
    if k < 1:
        raise InputError(f"block length must be positive, got {k}")
    p = field.p
    gamma %= p
    if gamma == 0:
        raise InputError("constant must be nonzero")
    r = element_order(field, gamma)
    if (p - 1) % (r * k) != 0:
        raise MissingRootOfUnityError(r, k, p)
    target_order = r * k
    factors = _prime_factors(target_order)
    for w in range(1, p):
        if pow(w, k, p) != gamma:
            continue
        if pow(w, target_order, p) != 1:
            continue
        if all(pow(w, target_order // f, p) != 1 for f in factors):
            return w
    raise MissingRootOfUnityError(r, k, p)
