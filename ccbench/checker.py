"""Independent checker for the benchmark's outputs.

Nothing here imports ccode3d.  Polynomials are ascending coefficient lists
over F_q (trailing zeros trimmed), matrices are int64 numpy arrays of
residues, and words use the z-major layout of the spec format:
position(i, j, t) = t*(s*l) + j*s + i.

The checker has its own Gaussian elimination mod q, its own axis shift
(block rotation, wrapped block times the axis constant), its own q-cyclotomic
coset count and its own construction of the code from a divisor grid, so that
a fault in the program cannot hide behind the same fault here.
"""

from __future__ import annotations

import itertools

import numpy as np

# --- prime field and polynomials -------------------------------------------


def mult_order(a: int, q: int) -> int:
    a %= q
    e, acc = 1, a
    while acc != 1:
        acc = acc * a % q
        e += 1
    return e


def prime_factors(m: int) -> list[int]:
    return [f for f in range(2, m + 1) if m % f == 0 and all(f % g for g in range(2, f))]


def trim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return trim(out)


def pdivmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    rem = [c % q for c in a]
    inv = pow(b[-1], q - 2, q)
    db = len(b) - 1
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv % q
        if c:
            quo[i - db] = c
            for j, y in enumerate(b):
                rem[i - db + j] = (rem[i - db + j] - c * y) % q
    return trim(quo), trim(rem)


def monic(a: list[int], q: int) -> list[int]:
    inv = pow(a[-1], q - 2, q)
    return [c * inv % q for c in a]


def binomial(s: int, alpha: int, q: int) -> list[int]:
    """x^s - alpha."""
    return [(-alpha) % q] + [0] * (s - 1) + [1]


def reduce_mod_binomial(a: list[int], m: int, const: int, q: int) -> list[int]:
    """Fold a polynomial onto degrees < m using x^m = const."""
    out = [0] * m
    for i, c in enumerate(a):
        out[i % m] = (out[i % m] + c * pow(const, i // m, q)) % q
    return out


# --- idempotents and the code of a divisor grid -----------------------------


def axis_roots(m: int, const: int, q: int) -> list[int]:
    """Roots of y^m - const in the order the spec format indexes them.

    omega is the smallest residue with omega^m = const and multiplicative
    order r*m (r the order of const); root t is omega^(1 + t*r).
    """
    r = mult_order(const, q)
    rm = r * m
    if (q - 1) % rm:
        raise ValueError(f"F_{q} has no element of order {rm}")
    factors = prime_factors(rm)
    for w in range(1, q):
        if pow(w, m, q) == const % q and pow(w, rm, q) == 1 and all(
                pow(w, rm // f, q) != 1 for f in factors):
            return [pow(w, 1 + t * r, q) for t in range(m)]
    raise ValueError(f"no root of y^{m} - {const} of order {rm} in F_{q}")


def lagrange_idempotents(m: int, const: int, q: int) -> list[list[int]]:
    """The m primitive idempotents of F_q[y]/(y^m - const), padded to length m."""
    roots = axis_roots(m, const, q)
    family = []
    for t, rt in enumerate(roots):
        num, den = [1], 1
        for u, ru in enumerate(roots):
            if u != t:
                num = pmul(num, [(-ru) % q, 1], q)
                den = den * (rt - ru) % q
        inv = pow(den, q - 2, q)
        member = [c * inv % q for c in num]
        family.append(member + [0] * (m - len(member)))
    return family


def grid_generator(spec: dict) -> np.ndarray:
    """Rows x^i p(x) e_j(y) e_t(z) of every cell, i < s - deg p (the code's basis)."""
    q, s, l, k = spec["q"], spec["s"], spec["l"], spec["k"]
    ey = lagrange_idempotents(l, spec["beta"], q)
    ez = lagrange_idempotents(k, spec["gamma"], q)
    rows = []
    for t in range(k):
        for j in range(l):
            p = spec["p"][t][j]
            yz = np.kron(np.array(ez[t], dtype=np.int64), np.array(ey[j], dtype=np.int64))
            for i in range(s - (len(p) - 1)):
                xv = reduce_mod_binomial([0] * i + list(p), s, spec["alpha"], q)
                rows.append(np.kron(yz, np.array(xv, dtype=np.int64)) % q)
    if not rows:
        return np.zeros((0, s * l * k), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


# --- linear algebra mod q ----------------------------------------------------


def echelon(m, q: int) -> tuple[np.ndarray, int]:
    """Reduced row echelon form and rank, eliminating a whole column per step."""
    a = np.array(m, dtype=np.int64).reshape(-1, np.shape(m)[-1]) % q
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        a[[r, pr]] = a[[pr, r]]
        a[r] = a[r] * pow(int(a[r, c]), q - 2, q) % q
        factors = a[:, c].copy()
        factors[r] = 0
        a = (a - np.outer(factors, a[r])) % q
        r += 1
    return a, r


def rank(m, q: int) -> int:
    if np.size(m) == 0:
        return 0
    return echelon(m, q)[1]


def same_row_space(a, b, q: int) -> bool:
    ra, rka = echelon(a, q)
    rb, rkb = echelon(b, q)
    return rka == rkb and np.array_equal(ra[:rka], rb[:rkb])


def in_row_space(g, v, q: int) -> bool:
    return rank(np.vstack([g, v]), q) == rank(g, q)


def kernel(g, q: int) -> np.ndarray:
    """Row basis of {v : g v = 0}."""
    red, rk = echelon(g, q)
    n = red.shape[1]
    pivots = [int(np.flatnonzero(red[i])[0]) for i in range(rk)]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for idx, fc in enumerate(free):
        basis[idx, fc] = 1
        for i, pc in enumerate(pivots):
            basis[idx, pc] = (-red[i, fc]) % q
    return basis


def axis_shift(words: np.ndarray, spec: dict, axis: str) -> np.ndarray:
    """Multiply each word by x, y or z: rotate that axis's blocks by one and
    scale the block that wrapped round by the axis constant."""
    q = spec["q"]
    cube = words.reshape(-1, spec["k"], spec["l"], spec["s"])
    dim = {"z": 1, "y": 2, "x": 3}[axis]
    const = {"z": spec["gamma"], "y": spec["beta"], "x": spec["alpha"]}[axis]
    out = np.roll(cube, 1, axis=dim)
    head = [slice(None)] * 4
    head[dim] = 0
    out[tuple(head)] = out[tuple(head)] * const % q
    return out.reshape(words.shape)


# --- counts for the sweeps ---------------------------------------------------


def coset_count(s: int, alpha: int, q: int) -> int:
    """Number of monic irreducible factors of x^s - alpha, gcd(s, q) = 1.

    The roots are w^(1 + r*i), i < s, for w of order r*s (r the order of
    alpha) in an extension field; Frobenius multiplies exponents by q, so
    factors correspond to the orbits of {1 + r*i} under e -> q*e mod r*s.
    """
    r = mult_order(alpha, q)
    rs = r * s
    todo = {(1 + r * i) % rs for i in range(s)}
    orbits = 0
    while todo:
        e = todo.pop()
        orbits += 1
        e = e * q % rs
        while e in todo:
            todo.remove(e)
            e = e * q % rs
    return orbits


def divisor_count(s: int, alpha: int, q: int) -> int:
    return 2 ** coset_count(s, alpha, q)


def axis_admissible(m: int, const: int, q: int) -> bool:
    return (q - 1) % (mult_order(const, q) * m) == 0


def sign_rings(q: int, s: int, l: int, k: int) -> list[tuple[int, int, int]]:
    units = (1, q - 1)
    return [(a, b, g) for a, b, g in itertools.product(units, repeat=3)
            if axis_admissible(l, b, q) and axis_admissible(k, g, q)]


def grid_sweep_count(q: int, s: int, l: int, k: int) -> int:
    return sum(divisor_count(s, a, q) ** (l * k) for a, _, _ in sign_rings(q, s, l, k))


def no_selfdual_records(q: int, s_max: int, l_max: int, k_max: int) -> list[tuple]:
    """(s, l, k, alpha, grid_count) for the beta = gamma = 1 scan over F_q."""
    lengths = [m for m in range(1, max(l_max, k_max) + 1) if (q - 1) % m == 0]
    out = []
    for alpha in (1, q - 1):
        for s in range(1, s_max + 1):
            if s % q == 0 or (alpha == q - 1 and s % 2 == 0):
                continue
            for l in (m for m in lengths if m <= l_max):
                for k in (m for m in lengths if m <= k_max):
                    out.append((s, l, k, alpha, divisor_count(s, alpha, q) ** (l * k)))
    return out


# --- minimum distance by meeting in the middle ------------------------------


def _normalized_rows(v: np.ndarray, q: int) -> list[bytes | None]:
    """Scale each row so its first nonzero entry is 1; None for zero rows."""
    out = []
    for row in v:
        nz = np.flatnonzero(row)
        out.append(None if nz.size == 0 else (row * pow(int(row[nz[0]]), q - 2, q) % q)
                   .astype(np.uint8).tobytes())
    return out


def _combinations(cols: np.ndarray, q: int, size: int):
    """(support, keys): the normalized sums of every combination of `size`
    columns with first coefficient 1 and the others nonzero."""
    n = cols.shape[0]
    patterns = list(itertools.product(range(1, q), repeat=size - 1))
    tails = np.array(patterns, dtype=np.int64).reshape(len(patterns), size - 1)
    for support in itertools.combinations(range(n), size):
        sums = (cols[support[0]] + tails @ cols[list(support[1:])]) % q
        yield support, _normalized_rows(sums, q)


def min_distance(g: np.ndarray, q: int, max_weight: int = 5) -> int:
    """Minimum distance of the row space of g, by meeting in the middle.

    A codeword of weight w is a dependency sum(c_i h_i) = 0 among w columns
    of a parity-check matrix h.  Split its support into a part of size
    ceil(w/2) and a part of size floor(w/2): the two partial sums are
    proportional, so their normalized forms are equal.  Weights are tried in
    increasing order, so a partial sum is never zero.  This shares nothing
    with the program's per-support pattern enumeration.
    """
    cols = kernel(g, q).T % q
    if any(not col.any() for col in cols):
        return 1
    for w in range(2, max_weight + 1):
        table: dict[bytes, list[tuple]] = {}
        for support, keys in _combinations(cols, q, w // 2):
            for key in keys:
                if key is not None:
                    table.setdefault(key, []).append(support)
        for support, keys in _combinations(cols, q, w - w // 2):
            used = set(support)
            for key in keys:
                for other in table.get(key, ()) if key is not None else ():
                    if used.isdisjoint(other):
                        return w
    raise ValueError(f"minimum distance exceeds {max_weight}")
