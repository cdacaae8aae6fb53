import numpy as np
import pytest

from ccode3d import idempotents, linalg
from ccode3d.gf import FieldSpec, element_order, find_root
from ccode3d.idempotents import (
    IdempotentFamily,
    build_constacyclic_idempotents,
    build_full_idempotents,
    identity_report,
    member_values,
)
from ccode3d.poly import Poly

from conftest import corrupted_family, identity_report_loop, reciprocal_index

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


@pytest.mark.parametrize("q, k, gamma", [(12289, 512, 1), (13, 12, 1), (13, 6, 12)])
def test_coefficients_and_vandermondes_match_python_powers(q, k, gamma):
    # for both constructors, E[t, i] = m^-1 * roots[t]^-i and the Vandermonde
    # matrices at the roots and at their inverses, against one Python pow an
    # entry, and V * E^T = I exactly: member t is the delta at roots[t]
    field = FieldSpec(q)
    for fam in (build_constacyclic_idempotents(field, k, gamma), build_full_idempotents(field, k, gamma)):
        m = fam.size
        at_roots = [[pow(rho, i, q) for i in range(m)] for rho in fam.roots]
        at_inverses = [[pow(rho, -i, q) for i in range(m)] for rho in fam.roots]
        assert fam.coefficients.tolist() == [[pow(m, -1, q) * v % q for v in row]
                                             for row in at_inverses]
        assert fam.coefficients.dtype == np.int64 and not fam.coefficients.flags.writeable
        constant = pow(fam.roots[0], m, q)
        powers = linalg.root_powers(m, constant, q, fam.roots)
        inverse = linalg.root_powers(m, pow(constant, -1, q), q,
                                     tuple(pow(rho, -1, q) for rho in fam.roots))
        assert powers.tolist() == at_roots and inverse.tolist() == at_inverses
        assert np.array_equal(powers @ fam.coefficients.T % q, np.eye(m, dtype=np.int64))


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


def evaluations_one_member_at_a_time(members, points, p):
    """members[t](points[r]) mod p, one member and one point at a time in
    Python integers: the reference for idempotents._evaluations."""
    points = [int(x) % p for x in points]
    return np.array([[sum(c * pow(x, i, p) for i, c in enumerate(row)) % p for x in points]
                     for row in members.tolist()], dtype=np.float64).reshape(len(members), len(points))


@pytest.mark.parametrize("per_member", [False, True], ids=["one-product", "per-member"])
def test_identity_report_matches_the_polynomial_loop(monkeypatch, request, per_member):
    # every family over q in {5, 7, 13, 31} (the full families of one
    # modulus, equal up to the order of their members, once), and each with
    # one coefficient of one row of E moved, or with one row doubled (a
    # single nonzero value at its root, 2, which e_t^2 = e_t refuses), which
    # the two reports must fail alike; the members' values at the roots in
    # one Vandermonde product, and then member by member
    if per_member:
        monkeypatch.setattr(idempotents, "_evaluations", evaluations_one_member_at_a_time)
    member_values.cache_clear()
    request.addfinalizer(member_values.cache_clear)
    checked, seen = 0, set()
    for field, k, gamma, _ in valid_triples(qs=(5, 7, 13, 31), k_max=6):
        for fam in (build_constacyclic_idempotents(field, k, gamma),
                    build_full_idempotents(field, k, gamma)):
            if frozenset(zip(fam.roots, fam.members)) in seen:
                continue
            seen.add(frozenset(zip(fam.roots, fam.members)))
            report = identity_report(fam)
            assert report == identity_report_loop(fam) == dict.fromkeys(report, True)
            t = checked % fam.size
            moved = fam.coefficients[t].copy()
            moved[t] += 1
            for corrupted in (corrupted_family(fam, t, moved),
                              corrupted_family(fam, t, 2 * fam.coefficients[t])):
                report = identity_report(corrupted)
                assert report == identity_report_loop(corrupted)
                assert not report["orthogonality"]
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
            assert lhs == m.scale(fam.roots[t])


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
            scalar = cofactor.evaluate(con.roots[t])
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
            scalar = rec.evaluate(fam.roots[idx])
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


def test_member_values_are_the_deltas_at_the_scanned_roots():
    # a family's values at the roots of its modulus, found by scanning F_p,
    # are its delta evaluations: column r is the unit vector of the member
    # whose root is the r-th smallest root
    for field, k, gamma, _ in valid_triples(qs=(5, 7, 13), k_max=6):
        for fam in (build_constacyclic_idempotents(field, k, gamma),
                    build_full_idempotents(field, k, gamma)):
            values = member_values(fam)
            assert np.array_equal(values, np.eye(fam.size)[:, np.argsort(fam.roots)])
            assert not values.flags.writeable


def test_identity_report_fails_a_modulus_with_too_few_roots():
    # z^3 - 1 has the one root 1 over F_5 (3 does not divide 4), so the
    # members cannot be read at three roots: orthogonality is reported
    # failed, and nothing raises
    fam = IdempotentFamily(F5, (1, 2, 3), np.full((3, 3), 2))
    assert member_values(fam) is None
    report = identity_report(fam)
    assert report["orthogonality"] is False
    assert report == identity_report_loop(fam) | {"orthogonality": False}
