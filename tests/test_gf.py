import pytest
from hypothesis import given, strategies as st

from ccode3d.gf import (
    FieldMismatchError,
    FieldSpec,
    MissingRootOfUnityError,
    element_order,
    find_root,
)
from ccode3d.poly import Poly

PRIMES = [5, 7, 11, 13]

fields = st.sampled_from([FieldSpec(p) for p in PRIMES])


def test_field_spec_rejects_nonprime():
    with pytest.raises(ValueError):
        FieldSpec(9)
    with pytest.raises(ValueError):
        FieldSpec(2)
    with pytest.raises(ValueError):
        FieldSpec(1 << 17)


def test_mul_against_exhaustive_table():
    # independent oracle: the full multiplication table of F_7
    F7 = FieldSpec(7)
    for a in range(7):
        for b in range(7):
            assert F7.mul(a, b) == (a * b) % 7


def test_mismatched_fields_rejected():
    with pytest.raises(FieldMismatchError):
        Poly.one(FieldSpec(5)) + Poly.one(FieldSpec(7))


def test_inverse_examples():
    assert FieldSpec(5).inv(1) == 1
    # oracle: exhaustive search for the inverse
    assert next(x for x in range(1, 7) if (3 * x) % 7 == 1) == 5
    assert FieldSpec(7).inv(3) == 5
    assert next(x for x in range(1, 5) if (2 * x) % 5 == 1) == 3
    assert FieldSpec(5).inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        FieldSpec(5).inv(0)


def test_order_examples():
    assert element_order(FieldSpec(5), 4) == 2
    assert element_order(FieldSpec(7), 2) == 3
    assert element_order(FieldSpec(11), 1) == 1
    assert element_order(FieldSpec(5), -1) == 2   # reduced mod p first
    with pytest.raises(ValueError):
        element_order(FieldSpec(5), 0)


@given(fields, st.integers(min_value=1, max_value=1 << 14))
def test_order_properties(field, raw):
    a = field.canon(raw)
    if a == 0:
        return
    t = element_order(field, a)
    assert (field.p - 1) % t == 0
    assert field.pow(a, t) == 1
    # minimality against a brute scan
    for smaller in range(1, t):
        assert field.pow(a, smaller) != 1


def test_find_root_golden():
    assert find_root(FieldSpec(5), 2, -1) == 2
    assert find_root(FieldSpec(7), 3, -1) == 3
    assert find_root(FieldSpec(7), 2, 2) == 3
    with pytest.raises(MissingRootOfUnityError) as err:
        find_root(FieldSpec(5), 3, 1)
    assert (err.value.r, err.value.k, err.value.p) == (1, 3, 5)


def test_find_root_properties():
    for p in PRIMES:
        field = FieldSpec(p)
        for gamma in range(1, p):
            r = element_order(field, gamma)
            for k in range(1, 7):
                if (p - 1) % (r * k) != 0:
                    with pytest.raises(MissingRootOfUnityError):
                        find_root(field, k, gamma)
                    continue
                w = find_root(field, k, gamma)
                assert field.pow(w, k) == gamma
                assert element_order(field, w) == r * k
                # smallest valid residue, by exhaustive rescan
                for cand in range(1, w):
                    ok = (
                        field.pow(cand, k) == gamma
                        and element_order(field, cand) == r * k
                    )
                    assert not ok


@given(fields, st.integers(), st.integers())
def test_field_ops_match_int_arithmetic(field, x, y):
    a, b = field.canon(x), field.canon(y)
    assert 0 <= a < field.p and a == x % field.p
    assert field.mul(a, b) == (x * y) % field.p
    assert field.pow(a, 3) == (x ** 3) % field.p
    if b != 0:
        assert field.mul(field.inv(b), b) == 1
        assert field.pow(b, -2) == field.mul(field.inv(b), field.inv(b))
