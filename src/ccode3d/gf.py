"""Exact arithmetic in prime fields F_p, multiplicative orders, roots of unity.

Field elements are canonical residues in [0, p).  The scalar wrapper
``FieldElement`` carries its ``FieldSpec`` so mixed-field operations fail
loudly; the heavier layers (polynomials, tensors, matrices) store plain ints
and use the int-level helpers on ``FieldSpec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class FieldMismatchError(ValueError):
    """Two operands belong to different fields."""


class MissingRootOfUnityError(ValueError):
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
    """Deterministic trial division; moduli here are < 2**16."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


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
            raise ValueError(f"field modulus must satisfy 2 < p < 2**16, got {self.p!r}")
        if not is_prime(self.p):
            raise ValueError(f"field modulus {self.p} is not prime")

    # --- int-level helpers (canonical residues in, canonical residues out) ---

    def canon(self, v: int) -> int:
        return v % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

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

    def element(self, v: int) -> "FieldElement":
        return FieldElement(self.canon(v), self)

    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p})"


@dataclass(frozen=True)
class FieldElement:
    """A canonical residue in [0, p)."""

    value: int
    field: FieldSpec

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.field.p)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot mix F_{self.field.p} and F_{other.field.p} elements"
                )
            return other
        if isinstance(other, int):
            return FieldElement(other, self.field)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value + other.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value - other.value, self.field)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value * other.value, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.field)

    def __pow__(self, e: int):
        return FieldElement(self.field.pow(self.value, e), self.field)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.value == 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.p})"


def element_order(a: FieldElement) -> int:
    """Smallest positive t with a**t == 1; always divides p-1."""
    if a.value == 0:
        raise ValueError("0 has no multiplicative order")
    p = a.field.p
    order = p - 1
    for f in _prime_factors(p - 1):
        while order % f == 0 and pow(a.value, order // f, p) == 1:
            order //= f
    return order


def find_root(k: int, gamma: FieldElement) -> FieldElement:
    """Smallest w in F_p with w**k == gamma and multiplicative order r*k.

    ``r`` is the order of gamma.  Requires r*k to divide p-1; the smallest
    valid residue is returned so constructions are reproducible.
    """
    if k < 1:
        raise ValueError(f"block length must be positive, got {k}")
    if gamma.value == 0:
        raise ValueError("constant must be nonzero")
    field = gamma.field
    p = field.p
    r = element_order(gamma)
    if (p - 1) % (r * k) != 0:
        raise MissingRootOfUnityError(r, k, p)
    target_order = r * k
    factors = _prime_factors(target_order)
    for w in range(1, p):
        if pow(w, k, p) != gamma.value:
            continue
        if pow(w, target_order, p) != 1:
            continue
        if all(pow(w, target_order // f, p) != 1 for f in factors):
            return FieldElement(w, field)
    raise MissingRootOfUnityError(r, k, p)
