import itertools
import math

import pytest
from hypothesis import given, strategies as st

from ccode3d import poly
from ccode3d.gf import FieldSpec, InputError
from ccode3d.poly import (
    FACTOR_TRIAL_LIMIT,
    Poly,
    constacyclic_exponent_cosets,
    cyclotomic_cosets,
    factor_binomial,
    format_poly,
    trial_candidates,
)

F5 = FieldSpec(5)
F7 = FieldSpec(7)

fields = st.sampled_from([FieldSpec(p) for p in (5, 7, 11, 13)])


@st.composite
def polys(draw, nonzero=False, min_deg=0, max_deg=6):
    field = draw(fields)
    coeffs = draw(st.lists(st.integers(0, field.p - 1), min_size=min_deg, max_size=max_deg + 1))
    f = Poly.from_coeffs(field, coeffs)
    if nonzero and f.is_zero():
        f = Poly.one(field)
    return f


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def test_mul_examples():
    xm1 = Poly.from_coeffs(F5, [-1, 1])
    xp1 = Poly.from_coeffs(F5, [1, 1])
    assert xm1 * xp1 == Poly.from_coeffs(F5, [-1, 0, 1])
    quo, rem = divmod(Poly.from_coeffs(F5, [-1, 0, 1]), xm1)
    assert quo == xp1 and rem.is_zero()
    a = Poly.from_coeffs(F7, [1, 1])
    b = Poly.from_coeffs(F7, [1, -1, 1])
    assert a * b == Poly.binomial(F7, 3, -1)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.one(F5), Poly.zero(F5))


def test_eval_examples():
    assert Poly.from_coeffs(F5, [-1, 0, 1]).evaluate(1) == 0
    assert Poly.from_coeffs(F5, [3, -1]).evaluate(2) == 1
    assert Poly.zero(F5).evaluate(3) == 0


def test_reciprocal_examples():
    assert Poly.from_coeffs(F5, [-1, 1]).reciprocal() == Poly.from_coeffs(F5, [1, -1])
    self_rec = Poly.from_coeffs(F5, [1, -1, 1])
    assert self_rec.reciprocal() == self_rec
    assert Poly.zero(F5).reciprocal() == Poly.zero(F5)


@given(polys())
def test_reciprocal_involution(f):
    if not f.is_zero() and f.coeffs[0] != 0:
        assert f.reciprocal().reciprocal() == f


@given(polys(), polys(nonzero=True))
def test_divmod_reconstructs(f, g):
    if f.field != g.field:
        return
    quo, rem = divmod(f, g)
    assert quo * g + rem == f
    assert rem.degree < g.degree


@given(polys(nonzero=True), polys(nonzero=True))
def test_degree_additivity(f, g):
    if f.field != g.field:
        return
    assert (f * g).degree == f.degree + g.degree


def test_factor_binomial_golden():
    fs5 = factor_binomial(F5, 2, 1)
    assert [(list(f.coeffs), m) for f, m in fs5] == [([1, 1], 1), ([4, 1], 1)]
    fs7 = factor_binomial(F7, 3, -1)
    # full splitting: -1 has three cube roots in F_7
    assert [(list(f.coeffs), m) for f, m in fs7] == [([1, 1], 1), ([2, 1], 1), ([4, 1], 1)]
    prod = Poly.one(F7)
    for f, m in fs7:
        for _ in range(m):
            prod = prod * f
    assert prod == Poly.binomial(F7, 3, -1)
    # the two non -1 roots multiply to the quadratic the construction uses
    quad = Poly.from_coeffs(F7, [2, 1]) * Poly.from_coeffs(F7, [4, 1])
    assert quad == Poly.from_coeffs(F7, [1, -1, 1])
    # derived via exhaustive cube table: roots of x^3 = 1 in F_7
    roots = [a for a in range(7) if pow(a, 3, 7) == 1]
    assert roots == [1, 2, 4]
    fs = factor_binomial(F7, 3, 1)
    assert sorted((-f.coeffs[0]) % 7 for f, _ in fs) == roots


def test_factor_binomial_repeated_roots():
    # characteristic divides the exponent: x^5 - 1 = (x - 1)^5 over F_5
    fs = factor_binomial(F5, 5, 1)
    assert [(list(f.coeffs), m) for f, m in fs] == [([4, 1], 5)]


def _is_irreducible_by_trial_division(f: Poly) -> bool:
    field = f.field
    for d in range(1, f.degree // 2 + 1):
        for tail in itertools.product(range(field.p), repeat=d):
            cand = Poly(field, tuple(tail) + (1,))
            if (f % cand).is_zero():
                return False
    return True


@pytest.mark.parametrize("p,s,alpha", [(5, 2, 1), (5, 4, 1), (7, 3, 1), (7, 3, 6), (7, 4, 6), (11, 3, 2)])
def test_factor_binomial_properties(p, s, alpha):
    field = FieldSpec(p)
    factors = factor_binomial(field, s, alpha)
    prod = Poly.one(field)
    for f, m in factors:
        assert f.is_monic()
        assert _is_irreducible_by_trial_division(f)
        for _ in range(m):
            prod = prod * f
    assert prod == Poly.binomial(field, s, alpha)
    if math.gcd(s, p) == 1:
        for (f, _), (g, _) in itertools.combinations(factors, 2):
            assert poly_gcd(f, g) == Poly.one(field)


def test_trial_candidates_bound_the_candidates_tried(monkeypatch):
    # the coset count is at least the candidates the degree loop draws, and
    # equal when the last degree entered holds no factor
    tried = []
    candidates = poly._monic_candidates

    def counting(field, degree):
        for cand in candidates(field, degree):
            tried.append(cand)
            yield cand

    monkeypatch.setattr(poly, "_monic_candidates", counting)
    exact = 0
    for p in (3, 5, 7, 11, 13):
        field = FieldSpec(p)
        for s, alpha in itertools.product(range(1, 17), range(1, p)):
            count = trial_candidates(field, s, alpha)
            if count > 3_000:
                continue
            tried.clear()
            factor_binomial(field, s, alpha)
            assert len(tried) <= count, (p, s, alpha)
            exact += len(tried) == count
    assert exact > 100
    # x^11 - 1 over F_5 has two quintic factors: 5 + 25 + 125 + 625 + 3125
    assert trial_candidates(F5, 11, 1) == 3905
    assert trial_candidates(F5, 25, 1) == 5           # (x - 1)^25
    assert trial_candidates(FieldSpec(13), 11, 1) == 402_233
    assert trial_candidates(F7, 29, 1) == 960_799


def test_factor_binomial_refuses_past_the_trial_limit(monkeypatch):
    def no_division(self, other):
        raise AssertionError("divided before the trial count")

    monkeypatch.setattr(Poly, "__divmod__", no_division)
    for field, s in ((F7, 29), (FieldSpec(13), 11)):
        with pytest.raises(InputError, match=f"x\\^{s} - 1 over F_{field.p} .* would try "
                                             f"{trial_candidates(field, s, 1)} "):
            factor_binomial(field, s, 1)
    monkeypatch.setattr(poly, "FACTOR_TRIAL_LIMIT", 3904)
    with pytest.raises(InputError, match="3905 monic candidates, past the limit of 3904"):
        factor_binomial(F5, 11, 1)
    assert FACTOR_TRIAL_LIMIT == 10**5


def test_cyclotomic_cosets_examples():
    assert cyclotomic_cosets(4, 5) == [[0], [1], [2], [3]]
    assert constacyclic_exponent_cosets(3, 2, 7) == [[1], [3], [5]]
    assert cyclotomic_cosets(3, 2) == [[0], [1, 2]]
    with pytest.raises(ValueError):
        cyclotomic_cosets(10, 5)


def test_cosets_singletons_under_unity_hypothesis():
    # q = 1 (mod rk) forces every coset inside the exponent set to be a singleton
    for q, r, k in [(5, 2, 2), (7, 2, 3), (13, 2, 6), (13, 1, 4)]:
        assert (q - 1) % (r * k) == 0
        cosets = constacyclic_exponent_cosets(k, r, q)
        assert all(len(c) == 1 for c in cosets)
        assert sorted(c[0] for c in cosets) == sorted((1 + r * t) % (r * k) for t in range(k))


def test_format_poly_signed():
    f = Poly.from_coeffs(F5, [3, 4])
    assert format_poly(f, "z") == "3 + 4z"
    # balanced representatives: 3 = -2 and 4 = -1 (mod 5)
    assert format_poly(f, "z", signed=True) == "-2 - z"
    g = Poly.from_coeffs(F7, [5, 4, 6])
    assert format_poly(g, "z", signed=True) == "-2 - 3z - z^2"
    assert format_poly(Poly.zero(F5)) == "0"
