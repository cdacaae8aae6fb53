import pytest

from ccode3d import linalg
from ccode3d.gf import FieldSpec, element_order, find_root
from ccode3d.idempotents import (
    IdempotentFamily,
    build_constacyclic_idempotents,
    build_full_idempotents,
    identity_report,
)
from ccode3d.poly import Poly

from conftest import identity_report_loop, reciprocal_index

F5 = FieldSpec(5)
F7 = FieldSpec(7)


def lagrange_family_oracle(field, points):
    """Independent interpolation oracle: product/quotient form, one inversion
    per member, no shared code with the library constructors."""
    members = []
    for t, pt in enumerate(points):
        num = Poly.one(field)
        den = 1
        for u, other in enumerate(points):
            if u == t:
                continue
            num = num * Poly.from_coeffs(field, [-other, 1])
            den = (den * (pt - other)) % field.p
        members.append(num.scale(pow(den, -1, field.p)))
    return members


def valid_triples(qs=(5, 7, 11, 13), k_max=6):
    for q in qs:
        field = FieldSpec(q)
        for gamma in range(1, q):
            r = element_order(field, gamma)
            for k in range(1, k_max + 1):
                if (q - 1) % (r * k) == 0:
                    yield field, k, gamma, r


def test_constacyclic_golden_values():
    fam = build_constacyclic_idempotents(F5, 2, -1)
    assert [list(m.coeffs) for m in fam.members] == [[3, 4], [3, 1]]
    fam7 = build_constacyclic_idempotents(F7, 3, -1)
    assert [list(m.coeffs) for m in fam7.members] == [[5, 4, 6], [5, 2, 5], [5, 1, 3]]
    triv = build_constacyclic_idempotents(F5, 1, 2)
    assert [list(m.coeffs) for m in triv.members] == [[1]]


def test_full_family_golden_values():
    fam = build_full_idempotents(F5, 1, 1)
    assert [list(m.coeffs) for m in fam.members] == [[1]]
    fam2 = build_full_idempotents(F5, 2, 1)
    assert [list(m.coeffs) for m in fam2.members] == [[3, 3], [3, 2]]
    # evaluation pattern at the fixed root: 1 on own index, 0 elsewhere
    fam3 = build_full_idempotents(F5, 2, -1)
    assert fam3.roots == (1, 2, 4, 3)   # the powers of omega = 2, of order 4
    for t, m in enumerate(fam3.members):
        for u in range(fam3.size):
            assert m.evaluate(pow(2, u, 5)) == (1 if t == u else 0)


def test_families_match_interpolation_oracle():
    for field, k, gamma, r in valid_triples():
        omega = find_root(field, k, gamma)
        con = build_constacyclic_idempotents(field, k, gamma)
        points = [field.pow(omega, 1 + t * r) for t in range(k)]
        assert list(con.members) == lagrange_family_oracle(field, points)
        full = build_full_idempotents(field, k, gamma)
        full_points = [field.pow(omega, t) for t in range(r * k)]
        assert list(full.members) == lagrange_family_oracle(field, full_points)
        # the moduli, z^m - roots[0]^m, are the two binomials
        assert con.modulus() == Poly.binomial(field, k, gamma % field.p)
        assert full.modulus() == Poly.binomial(field, r * k, 1)


def test_reciprocal_index_examples():
    assert reciprocal_index(2, 0, constant_is_one=False) == 1
    assert reciprocal_index(3, 2, constant_is_one=True) == 2
    assert reciprocal_index(3, 0, constant_is_one=True) == 1
    with pytest.raises(IndexError):
        reciprocal_index(3, 3, constant_is_one=True)


def test_reversal_matches_closed_form():
    # the index of the inverse root is the closed-form reciprocal index
    for field, k, gamma, _ in valid_triples():
        if gamma in (1, field.p - 1):
            fam = build_constacyclic_idempotents(field, k, gamma)
            assert fam.reversal() == tuple(
                reciprocal_index(k, t, constant_is_one=(gamma == 1)) for t in range(k))


def test_full_family_reversal_inverts_roots():
    for field, k, gamma, _ in valid_triples():
        fam = build_full_idempotents(field, k, gamma)
        rev = fam.reversal()
        assert [rev[u] for u in rev] == list(range(fam.size))
        assert all(field.mul(fam.roots[t], fam.roots[u]) == 1 for t, u in enumerate(rev))


def test_identity_report_all_green():
    for field, k, gamma, _ in valid_triples(qs=(5, 7), k_max=4):
        for fam in (build_constacyclic_idempotents(field, k, gamma),
                    build_full_idempotents(field, k, gamma)):
            assert all(identity_report(fam).values())


@pytest.mark.parametrize("budget", [linalg.PRODUCT_BYTES, 1], ids=["one-product", "per-member"])
def test_identity_report_matches_the_polynomial_loop(monkeypatch, budget):
    # every family over q in {5, 7, 13, 31} (the full families of one
    # modulus, equal up to the order of their members, once), and each with
    # one coefficient of one member moved, which the two reports must fail
    # alike; orthogonality in one product, and then in one a member
    monkeypatch.setattr(linalg, "PRODUCT_BYTES", budget)
    checked, seen = 0, set()
    for field, k, gamma, _ in valid_triples(qs=(5, 7, 13, 31), k_max=6):
        for fam in (build_constacyclic_idempotents(field, k, gamma),
                    build_full_idempotents(field, k, gamma)):
            if frozenset(zip(fam.roots, fam.members)) in seen:
                continue
            seen.add(frozenset(zip(fam.roots, fam.members)))
            report = identity_report(fam)
            assert report == identity_report_loop(fam) == dict.fromkeys(report, True)
            members = list(fam.members)
            t = checked % fam.size
            coeffs = list(members[t].coeffs) + [0] * (fam.size - len(members[t].coeffs))
            coeffs[checked % fam.size] = (coeffs[checked % fam.size] + 1) % field.p
            members[t] = Poly.from_coeffs(field, coeffs)
            corrupted = IdempotentFamily(field, fam.roots, tuple(members))
            report = identity_report(corrupted)
            assert report == identity_report_loop(corrupted)
            assert not all(report.values())
            checked += 1
    assert checked > 100


def test_completeness_and_orthogonality_small():
    fam = build_constacyclic_idempotents(F7, 3, -1)
    modulus = fam.modulus()
    total = Poly.zero(F7)
    for m in fam.members:
        total = total + m
    assert total % modulus == Poly.one(F7)
    for t, a in enumerate(fam.members):
        for u, b in enumerate(fam.members):
            expected = a if t == u else Poly.zero(F7)
            assert (a * b) % modulus == expected


def test_shift_acts_as_eigenvalue():
    for field, k, gamma, _ in valid_triples(qs=(5, 7), k_max=4):
        fam = build_constacyclic_idempotents(field, k, gamma)
        z = Poly.x_power(field, 1)
        for t, m in enumerate(fam.members):
            lhs = (z * m) % fam.modulus()
            assert lhs == m.scale(fam.eigenvalue(t))


def test_quotient_lift_proportionality():
    # the constacyclic member times the complementary cyclotomic factor is a
    # scalar multiple of the matching full-cycle member; the scalar is the
    # factor's value at the shared root
    for field, k, gamma, r in valid_triples(qs=(5, 7, 11), k_max=4):
        con = build_constacyclic_idempotents(field, k, gamma)
        full = build_full_idempotents(field, k, gamma)
        rk = r * k
        big = Poly.binomial(field, rk, 1)
        small = Poly.binomial(field, k, gamma)
        cofactor, rem = divmod(big, small)
        assert rem.is_zero()
        for t in range(k):
            lifted = (con.members[t] * cofactor) % big
            scalar = cofactor.evaluate(con.eigenvalue(t))
            assert scalar != 0
            target_idx = (1 + t * r) % rk
            assert lifted == full.members[target_idx].scale(scalar)


def test_reciprocal_proportionality_map():
    # coefficient reversal permutes the family by the reciprocal index map,
    # up to a nonzero scalar fixed by evaluating at the partner's root
    for field, k, gamma, _ in valid_triples(qs=(5, 7, 13), k_max=6):
        if gamma not in (1, field.p - 1):
            continue
        fam = build_constacyclic_idempotents(field, k, gamma)
        for t, m in enumerate(fam.members):
            idx = reciprocal_index(k, t, constant_is_one=(gamma == 1))
            rec = m.reciprocal()
            scalar = rec.evaluate(fam.eigenvalue(idx))
            assert scalar != 0
            assert rec == fam.members[idx].scale(scalar)


def test_cyclic_case_reindexes_full_family():
    # when the constant is 1 the two families coincide up to an index shift
    for field, k in [(F5, 2), (F5, 4), (F7, 2), (F7, 3), (F7, 6)]:
        con = build_constacyclic_idempotents(field, k, 1)
        full = build_full_idempotents(field, k, 1)
        for t in range(k - 1):
            assert con.members[t] == full.members[t + 1]
        assert con.members[k - 1] == full.members[0]
