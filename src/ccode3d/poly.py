"""Dense univariate polynomial arithmetic over a prime field.

Coefficients are stored ascending (constant term first) as canonical
residues, with trailing zeros trimmed; the zero polynomial has an empty
coefficient tuple and degree -1.

Binomials x**s - alpha are factored along their q-cyclotomic cosets
(binomial_cosets): the coset sizes are the factor degrees, so
factor_binomial trial-divides only at those degrees, and factor_plan sizes
its work before any division.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

from .gf import FieldMismatchError, FieldSpec, InputError, element_order


@dataclass(frozen=True)
class Poly:
    field: FieldSpec
    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(field: FieldSpec, coeffs) -> "Poly":
        vals = [c % field.p for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        return Poly(field, tuple(vals))

    @staticmethod
    def zero(field: FieldSpec) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field: FieldSpec) -> "Poly":
        return Poly(field, (1,))

    @staticmethod
    def x_power(field: FieldSpec, n: int, scale: int = 1) -> "Poly":
        return Poly.from_coeffs(field, [0] * n + [scale])

    @staticmethod
    def binomial(field: FieldSpec, s: int, constant: int) -> "Poly":
        """x**s - constant."""
        return Poly.from_coeffs(field, [-constant] + [0] * (s - 1) + [1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check_field(self, other: "Poly"):
        if self.field != other.field:
            raise FieldMismatchError(
                f"cannot mix polynomials over F_{self.field.p} and F_{other.field.p}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Poly.from_coeffs(self.field, [x + y for x, y in zip(a, b)])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.from_coeffs(self.field, out)

    def scale(self, c: int) -> "Poly":
        return Poly.from_coeffs(self.field, [c * a for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.leading()))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.p
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = self.field.inv(other.leading())
        quo = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] % p
            if c == 0:
                continue
            q = (c * lead_inv) % p
            quo[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] = (rem[i - d + j] - q * b) % p
        return Poly.from_coeffs(self.field, quo), Poly.from_coeffs(self.field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def evaluate(self, a: int) -> int:
        """Horner evaluation at the residue a."""
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % p
        return acc

    __call__ = evaluate

    def reciprocal(self) -> "Poly":
        """Coefficient reversal over [0, degree]; the zero poly maps to itself."""
        return Poly.from_coeffs(self.field, self.coeffs[::-1])

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly(F_{self.field.p}, {list(self.coeffs)})"


def format_poly(f: Poly, var: str = "x", signed: bool = False) -> str:
    """Render ascending; signed form maps residues into (-p/2, p/2]."""
    if f.is_zero():
        return "0"
    p = f.field.p
    parts = []
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        v = c - p if (signed and c > p // 2) else c
        if i == 0:
            term = str(v)
        else:
            mag = abs(v)
            coef = "" if mag == 1 else str(mag)
            term = f"{coef}{var}" if i == 1 else f"{coef}{var}^{i}"
            if v < 0:
                term = "-" + term
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _monic_candidates(field: FieldSpec, degree: int):
    """All monic polynomials of the given degree, lexicographic by low coeffs."""
    for tail in itertools.product(range(field.p), repeat=degree):
        yield Poly(field, tuple(tail) + (1,))


FACTOR_WORK_LIMIT = 3 * 10**7   # the most coefficient updates factor_binomial's divisions may make


def binomial_cosets(field: FieldSpec, s: int, alpha: int) -> tuple[int, int, list[list[int]]]:
    """(p^v, r*s', cosets) for x**s - alpha over F_p, with nothing factored.

    With s = s'*p^v and p not dividing s', x**s - alpha = (x**s' - alpha)**(p^v),
    and the irreducible factors of x**s' - alpha match the cosets
    constacyclic_exponent_cosets(s', r, p) of its root exponents modulo r*s',
    r the order of alpha: a factor's degree is its coset's size.  So every
    factor of x**s - alpha has multiplicity p^v, and its degrees are the
    coset sizes (factor_plan reads them).
    """
    power = 1
    while s % field.p == 0:
        s, power = s // field.p, power * field.p
    r = element_order(field, alpha)
    return power, r * s, constacyclic_exponent_cosets(s, r, field.p)


def factor_plan(field: FieldSpec, s: int, alpha: int) -> tuple[int, int, dict[int, int], int]:
    """(p^v, s', searches, work): how factor_binomial factors x**s - alpha,
    read from its cosets (binomial_cosets) with nothing divided.

    ``searches`` maps each degree to trial-divide, ascending, to the number
    of factors of x**s' - alpha to find there: the cosets of that size, but
    one fewer at the largest size, whose last factor is what remains.  At
    most q^d candidates of degree d are drawn, each dividing a polynomial of
    degree <= s', so ``work`` = sum of q^d*(d+1)*(s'+1) over the searched d
    bounds the coefficient updates of the divisions.
    """
    power, _, cosets = binomial_cosets(field, s, alpha)
    sizes = collections.Counter(len(c) for c in cosets)
    sizes[max(sizes)] -= 1
    searches = {d: sizes[d] for d in sorted(sizes) if sizes[d]}
    s_free = s // power
    return power, s_free, searches, sum(field.p ** d * (d + 1) * (s_free + 1) for d in searches)


def factor_binomial(field: FieldSpec, s: int, alpha: int) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of x**s - alpha, with multiplicities.

    Trial division of the squarefree x**s' - alpha along factor_plan: at
    each searched degree the monic candidates are tried in order until that
    degree's factors are found, and what remains is the largest factor;
    each factor has multiplicity p^v.  Before any division it refuses a
    plan whose work passes FACTOR_WORK_LIMIT with InputError.  Output is
    sorted by (degree, ascending coefficient tuple) and multiplies back to
    x**s - alpha.
    """
    alpha = field.canon(alpha)
    if s < 1:
        raise InputError(f"exponent must be positive, got {s}")
    if alpha == 0:
        raise InputError("constant must be nonzero")
    power, s_free, searches, work = factor_plan(field, s, alpha)
    if work > FACTOR_WORK_LIMIT:
        raise InputError(
            f"factoring x^{s} - {alpha} over F_{field.p} by trial division would pass "
            f"the limit of {FACTOR_WORK_LIMIT} coefficient updates")
    remaining = Poly.binomial(field, s_free, alpha)
    factors = []
    for degree, wanted in searches.items():
        for cand in _monic_candidates(field, degree):
            quo, rem = divmod(remaining, cand)
            if rem.is_zero():
                factors.append(cand)
                remaining = quo
                wanted -= 1
                if not wanted:
                    break
    factors.append(remaining)
    factors.sort(key=lambda f: (f.degree, f.coeffs))
    return [(f, power) for f in factors]


def cyclotomic_cosets(modulus: int, q: int, residues=None) -> list[list[int]]:
    """Orbits of i -> q*i (mod modulus), sorted by minimum element.

    ``residues`` restricts the universe to a subset that must be closed under
    multiplication by q; by default all residues 0..modulus-1 are used.
    """
    if math.gcd(q, modulus) != 1:
        raise ValueError(f"gcd({q}, {modulus}) != 1; cosets are not well-defined")
    universe = list(range(modulus)) if residues is None else sorted(set(r % modulus for r in residues))
    allowed = set(universe)
    seen: set[int] = set()
    cosets = []
    for start in universe:
        if start in seen:
            continue
        orbit = []
        i = start
        while i not in seen:
            if i not in allowed:
                raise ValueError(
                    f"residue set is not closed under multiplication by {q} mod {modulus}"
                )
            seen.add(i)
            orbit.append(i)
            i = (i * q) % modulus
        cosets.append(sorted(orbit))
    cosets.sort(key=lambda c: c[0])
    return cosets


def constacyclic_exponent_cosets(k: int, r: int, q: int) -> list[list[int]]:
    """q-cyclotomic cosets inside {1 + r*t : t < k} modulo r*k.

    These exponents pick out the roots of z**k - gamma among the r*k-th roots
    of unity (r the order of gamma); when q = 1 (mod r*k) every coset is a
    singleton.  For gcd(k, q) = 1 the cosets match the monic irreducible
    factors of z**k - gamma over F_q (codes._divisor_counts counts with them).
    """
    return cyclotomic_cosets(r * k, q, residues=[1 + r * t for t in range(k)])
