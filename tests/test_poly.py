import itertools
import math

import pytest
from hypothesis import given, strategies as st

from ccode3d import poly
from ccode3d.gf import FieldSpec, InputError
from ccode3d.poly import (
    FACTOR_WORK_LIMIT,
    Poly,
    binomial_cosets,
    constacyclic_exponent_cosets,
    cyclotomic_cosets,
    factor_binomial,
    factor_plan,
    format_poly,
)

from conftest import reference_factor_binomial, reference_trial_candidates

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


# direction 4's oracle ranges: q, s <= 24 and alpha in {1, -1, 2, 3}
ORACLE_BINOMIALS = [(FieldSpec(p), s, alpha)
                    for p in (3, 5, 7, 11, 13) for s in range(1, 25)
                    for alpha in sorted({a % p for a in (1, -1, 2, 3)} - {0})]


@pytest.fixture(scope="module")
def factored_oracle_range():
    """{(field, s, alpha): (factors, {degree: candidates drawn})} for every
    binomial of ORACLE_BINOMIALS that factor_binomial factors, in one pass
    with poly._monic_candidates counting what it yields."""
    candidates = poly._monic_candidates
    drawn: dict[int, int] = {}

    def counting(field, degree):
        for cand in candidates(field, degree):
            drawn[degree] = drawn.get(degree, 0) + 1
            yield cand

    out = {}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(poly, "_monic_candidates", counting)
        for key in ORACLE_BINOMIALS:
            drawn.clear()
            try:
                factors = factor_binomial(*key)
            except InputError:
                continue
            out[key] = (factors, dict(drawn))
    return out


def test_factor_binomial_matches_the_degree_loop(factored_oracle_range):
    # wherever the old count of 10^5 candidates admitted a binomial, the
    # coset plan factors it to the degree loop's list, and refuses none
    compared = 0
    for key in ORACLE_BINOMIALS:
        if reference_trial_candidates(*key) > 10**5:
            continue
        assert key in factored_oracle_range, key
        assert factored_oracle_range[key][0] == reference_factor_binomial(*key), key
        compared += 1
    assert compared == 330
    # those it adds: x^11 - 1 over F_13 is x - 1 times one factor of degree 10
    assert len(factored_oracle_range) == 390
    factors = factored_oracle_range[(FieldSpec(13), 11, 1)][0]
    assert [(f.degree, m) for f, m in factors] == [(1, 1), (10, 1)]


def test_factored_binomials_match_their_cosets(factored_oracle_range):
    # each factor list multiplies back, has the coset sizes as its degrees and
    # p^v as every multiplicity; the candidates drawn at each degree d, times
    # (d + 1)*(s' + 1) coefficient updates a division, stay within the plan
    for (field, s, alpha), (factors, drawn) in factored_oracle_range.items():
        power, _, cosets = binomial_cosets(field, s, alpha)
        assert [f.degree for f, _ in factors] == sorted(len(c) for c in cosets)
        assert all(m == power for _, m in factors)
        prod = Poly.one(field)
        for f, m in factors:
            for _ in range(m):
                prod = prod * f
        assert prod == Poly.binomial(field, s, alpha), (field, s, alpha)
        _, s_free, searches, work = factor_plan(field, s, alpha)
        assert sorted(drawn) == list(searches)
        assert sum(n * (d + 1) * (s_free + 1) for d, n in drawn.items()) <= work <= FACTOR_WORK_LIMIT


def test_factor_plan_reads_the_cosets():
    F13 = FieldSpec(13)
    # one coset of size 12: irreducible, nothing to search
    assert factor_plan(F13, 12, 6) == (1, 12, {}, 0)
    assert factor_binomial(F13, 12, 6) == [(Poly.binomial(F13, 12, 6), 1)]
    # x - 1 and one factor of degree 10: the 13 linear candidates at most
    assert factor_plan(F13, 11, 1) == (1, 11, {1: 1}, 13 * 2 * 12)
    # x - 1 and two quintics: search the quintics for one, the other remains
    assert factor_plan(F5, 11, 1) == (1, 11, {1: 1, 5: 1}, 5 * 2 * 12 + 5**5 * 6 * 12)
    # (x - 1)^25: nothing is divided
    assert factor_plan(F5, 25, 1) == (25, 1, {}, 0)
    # x - 1 and four septics over F_7
    assert factor_plan(F7, 29, 1) == (1, 29, {1: 1, 7: 3}, 7 * 2 * 30 + 7**7 * 8 * 30)


def test_factor_binomial_refuses_past_the_trial_limit(monkeypatch):
    def no_division(self, other):
        raise AssertionError("divided before the plan was sized")

    monkeypatch.setattr(Poly, "__divmod__", no_division)
    F65521 = FieldSpec(65521)
    # x^4091 - 1 over F_65521 is x - 1 times two factors of degree 2045: a plan sum of
    # thousands of digits, which the message does not print
    assert factor_plan(F65521, 4091, 1)[3] > 10**4300
    for field, s in ((F7, 29), (F65521, 720), (F65521, 3019), (F65521, 4091)):
        with pytest.raises(InputError) as exc:
            factor_binomial(field, s, 1)
        assert str(exc.value) == (f"factoring x^{s} - 1 over F_{field.p} by trial division "
                                  f"would pass the limit of {FACTOR_WORK_LIMIT} coefficient updates")
    work = factor_plan(F5, 11, 1)[3]
    monkeypatch.setattr(poly, "FACTOR_WORK_LIMIT", work - 1)
    with pytest.raises(InputError, match=f"pass the limit of {work - 1} "):
        factor_binomial(F5, 11, 1)
    monkeypatch.undo()
    monkeypatch.setattr(poly, "FACTOR_WORK_LIMIT", work)
    assert [(f.degree, m) for f, m in factor_binomial(F5, 11, 1)] == [(1, 1), (5, 1), (5, 1)]
    assert FACTOR_WORK_LIMIT == 3 * 10**7


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
