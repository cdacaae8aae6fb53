"""Command-line front end.

Reads a JSON spec file describing a code (field, block lengths, constants,
divisor grid), runs constructions and verifications, and writes a JSON result
file.  Exit codes: 0 success / verdict true, 1 verdict false or failed
verification, 2 invalid spec or usage, 3 search budget exhausted.  A result's
matrices (G, H and the cell generators) stay numpy arrays until
canonical_json writes them; one recursive function writes every value as the
stdlib's indented JSON would, a dict or list of scalars in one join, an
array's entries from a cached table of their digits, a row slice at a time
past linalg.PRODUCT_BYTES (_emit).  verify eliminates nothing and forms no
full ring product: it transforms G and H once each to the CRT basis, k*l
blocks of s columns (codes.crt_blocks), where every block is a band of rows
x^i * f(x) whose rank linalg.rank_stack reads off its leading columns, and
takes the closure, G*H^T and the self-dual cross-check G*G^T on those blocks;
its identity and complement checks read each idempotent family's values at
its roots (idempotents.member_values), and its random-pair bridge takes the
products through the CRT split, one component first, in chunks of PAIR_BYTES
bytes of words.  Only the idempotents command makes polynomial members of a
family (IdempotentFamily.members), to print them.

Spec file schema (all residues canonical, coefficient arrays ascending):

    {"q": 5, "s": 2, "l": 2, "k": 2,
     "alpha": 1, "beta": 4, "gamma": 4,
     "p": [[[4, 1], [1, 1]], [[4, 1], [1, 1]]]}     # p[t][j]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
from pathlib import Path

import numpy as np

from . import linalg
from .codes import (
    SPEC_LENGTH_LIMIT,
    SWEEP_SPEC_LIMIT,
    BuiltCode,
    CodeSpec,
    SpecValidationError,
    build_code,
    build_dual,
    cell_generators,
    cell_product_zero_flags,
    check_scan_length,
    code_idempotents,
    complement_grid,
    crt_blocks,
    crt_closure,
    crt_products_vanish,
    crt_rank,
    cyclic_yz_selfdual_scan,
    direct_self_dual_check,
    quasi_twisted_closure,
    self_dual_decide,
    sign_grid_sweep_report,
)
from .distance import DEFAULT_BUDGET, min_distance
from .gf import FieldSpec, InputError, element_order
from .idempotents import build_constacyclic_idempotents, build_full_idempotents, identity_report
from .poly import Poly, factor_binomial, format_poly
from .ring3d import RingParams, shift_orbit_orthogonal_flags, split_product_zero_flags

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

SEED_ENV = "CCODE_SEED"
PAIR_BYTES = 1 << 24   # bytes of random words f and g per chunk of verify's random pairs

TOKEN_LIMIT = 1 << 16   # entries below this are written from a cached table of their digits

_KEY = json.encoder.encode_basestring_ascii
_ENCODE = json.JSONEncoder().encode   # floats, and the TypeError on a value JSON cannot hold
_SCALARS = {str: _KEY, int: int.__repr__, float: _ENCODE,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


@functools.lru_cache(maxsize=None)
def _int_tokens(size: int) -> np.ndarray:
    """The object array of str(0), ..., str(size - 1)."""
    return np.array([str(i) for i in range(size)], dtype=object)


def _array_items(value: np.ndarray, pad: str) -> list[str]:
    """The texts of the axis-0 items of a nonempty numpy int array at pad, as
    _write writes them: each entry's token from _int_tokens (str past
    TOKEN_LIMIT or below 0), each run of shape[d] strings one list of axis d."""
    flat = value.reshape(-1)
    low, high = int(flat.min()), int(flat.max())
    if low < 0 or high >= TOKEN_LIMIT:
        tokens = list(map(str, flat.tolist()))
    else:
        tokens = _int_tokens(1 << high.bit_length())[flat].tolist()
    for d in range(value.ndim - 1, 0, -1):   # the lists of axis d, innermost first
        items_pad = pad + "  " * (d + 1)
        opening, sep, close = "[" + items_pad, "," + items_pad, pad + "  " * d + "]"
        runs = zip(*[iter(tokens)] * value.shape[d])   # consecutive runs of shape[d] strings
        tokens = [f"{opening}{items}{close}" for items in map(sep.join, runs)]
    return tokens


def _write(value, pad: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True), each line after the
    first starting with pad (a newline and the indent): a scalar by the
    _SCALARS function of its exact type, a dict or list of scalars in one
    pass, a numpy int array as its tolist() (_array_items), and any other
    value by the stdlib's encoder, which raises its TypeError on what JSON
    cannot hold."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted(value.items())
        try:
            texts = [f"{_KEY(key)}: {_SCALARS[type(item)](item)}" for key, item in items]
        except KeyError:   # an item that is no scalar
            texts = [f"{_KEY(key)}: {_write(item, inner)}" for key, item in items]
        texts = ("," + inner).join(texts)   # the list is freed before the braces add a copy
        return f"{{{inner}{texts}{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            texts = [_SCALARS[type(item)](item) for item in value]
        except KeyError:
            texts = [_write(item, inner) for item in value]
        texts = ("," + inner).join(texts)
        return f"[{inner}{texts}{pad}]"
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iu"):
        return _ENCODE(value)
    if 0 in value.shape:
        return _write(value.tolist(), pad)
    return f"[{inner}{(',' + inner).join(_array_items(value, pad))}{pad}]"


def canonical_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n", byte for byte, with
    each numpy int array written as its tolist() (_write)."""
    return _write(obj, "\n") + "\n"


def spec_to_dict(spec: CodeSpec) -> dict:
    ring = spec.ring
    return {
        "q": ring.field.p,
        "s": ring.s, "l": ring.l, "k": ring.k,
        "alpha": ring.alpha, "beta": ring.beta, "gamma": ring.gamma,
        "p": [[list(p.coeffs) for p in row] for row in spec.divisor_grid],
    }


def _json_int(value, where: str) -> int:
    """A genuine JSON integer; bool, float and str are rejected, not coerced."""
    if type(value) is not int:
        raise SpecValidationError(f"spec field {where} must be an integer, got {value!r}")
    return value


def spec_from_dict(data: dict) -> CodeSpec:
    try:
        field = FieldSpec(_json_int(data["q"], "q"))
        ring = RingParams(field, *(_json_int(data[key], key)
                                   for key in ("s", "l", "k", "alpha", "beta", "gamma")))
        # a coefficient's path is formatted only when it is rejected
        grid = tuple(
            tuple(Poly.from_coeffs(field, [c if type(c) is int else _json_int(c, f"p[{t}][{j}][{i}]")
                                           for i, c in enumerate(cell)])
                  for j, cell in enumerate(row))
            for t, row in enumerate(data["p"])
        )
    except (KeyError, TypeError) as exc:
        raise SpecValidationError(f"malformed spec file: {exc}") from exc
    return CodeSpec(ring, grid)


def load_spec(path: str) -> CodeSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:   # not UTF-8, not JSON, or an integer past int's digit limit
            raise InputError(str(exc)) from exc
    return spec_from_dict(data)


def _emit(result: dict, out: str | None):
    """Write canonical_json(result) to the file out, or to stdout, in one
    write, or, if its int arrays take more than linalg.PRODUCT_BYTES, each a
    slice of rows of at most that many bytes at a time: the text of every
    other value first, so what JSON cannot hold raises before a file is made."""
    arrays = {key for key, value in result.items()
              if isinstance(value, np.ndarray) and value.dtype.kind in "iu" and value.size}
    if sum(result[key].nbytes for key in arrays) <= linalg.PRODUCT_BYTES:
        parts = [canonical_json(result)]
    else:
        parts = []
        for i, key in enumerate(sorted(result)):
            parts += [("," if i else "{") + "\n  " + _KEY(key) + ": ",
                      result[key] if key in arrays else _write(result[key], "\n  ")]
        parts.append("\n}\n")
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        for part in parts:
            if isinstance(part, str):
                fh.write(part)
                continue
            step = max(1, linalg.PRODUCT_BYTES * len(part) // part.nbytes)   # rows a slice
            for start in range(0, len(part), step):
                fh.write(("," if start else "[") + "\n    ")
                fh.write(",\n    ".join(_array_items(part[start:start + step], "\n  ")))
            fh.write("\n  ]")


def _base_result(spec: CodeSpec, code: BuiltCode) -> dict:
    return {
        "spec": spec_to_dict(spec),
        "n": code.n,
        "dimension": code.dimension,
        "generators": cell_generators(spec.ring, spec.divisor_grid),
        "G": code.generator_matrix,
    }


def _print_family(fam, var: str):
    mod = format_poly(fam.modulus(), var)
    print(f"primitive idempotents of F_{fam.field.p}[{var}]/({mod}):")
    for t, member in enumerate(fam.members):
        canonical = format_poly(member, var)
        signed = format_poly(member, var, signed=True)
        line = f"  e_{t}({var}) = {canonical}"
        if signed != canonical:
            line += f"   (signed: {signed})"
        print(line)


def cmd_idempotents(args) -> int:
    field = FieldSpec(args.q)
    gamma = field.canon(args.gamma)
    # a family of m members has m coefficients each: refuse it before any is built
    size = element_order(field, gamma) * args.k if args.full else args.k
    if size > SPEC_LENGTH_LIMIT:
        raise InputError(f"idempotent family of {size} members is past the limit of "
                         f"{SPEC_LENGTH_LIMIT}")
    _print_family(build_constacyclic_idempotents(field, args.k, gamma), "z")
    if args.full:
        _print_family(build_full_idempotents(field, args.k, gamma), "z")
    return EXIT_OK


def cmd_factor(args) -> int:
    field = FieldSpec(args.q)
    # no x-modulus a spec admits is longer: refuse before the cosets or the binomial are built
    if args.s > SPEC_LENGTH_LIMIT:
        raise InputError(f"exponent s is past the limit of {SPEC_LENGTH_LIMIT}")
    factors = factor_binomial(field, args.s, args.alpha)   # invalid input exits 2 before any output
    binom = Poly.binomial(field, args.s, field.canon(args.alpha))
    print(f"{format_poly(binom, signed=True)} over F_{field.p}:")
    for f, mult in factors:
        suffix = f"  (multiplicity {mult})" if mult > 1 else ""
        print(f"  {format_poly(f)}   (signed: {format_poly(f, signed=True)}){suffix}")
    return EXIT_OK


def cmd_build(args) -> int:
    """build, and dual, which adds the dual's H and dimension."""
    spec = load_spec(args.spec)
    code, dual = build_code(spec), build_dual(spec)
    result = _base_result(spec, code)
    result["verdicts"] = {"quasi_twisted": quasi_twisted_closure(code, dual.generator_matrix)}
    if args.command == "dual":
        result["H"] = dual.generator_matrix
        result["dual_dimension"] = dual.dimension
    _emit(result, args.out)
    return EXIT_OK


def cmd_selfdual(args) -> int:
    spec = load_spec(args.spec)
    code = build_code(spec)
    verdict, certificate = self_dual_decide(spec, code)
    result = _base_result(spec, code)
    result["verdicts"] = {"self_dual": verdict}
    result["certificate"] = certificate
    _emit(result, args.out)
    if not verdict and certificate["first_failure"] is not None:
        t, j = certificate["first_failure"]
        cell = certificate["cells"][t * spec.ring.l + j]
        p_str = format_poly(Poly.from_coeffs(spec.ring.field, cell["p"]), signed=True)
        q_str = format_poly(Poly.from_coeffs(spec.ring.field, cell["partner_q_reciprocal"]), signed=True)
        print(f"not self-dual: cell (t={t}, j={j}) has p = {p_str} but the "
              f"partner cell {tuple(cell['partner'])} contributes {q_str}", file=sys.stderr)
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_mindist(args) -> int:
    spec = load_spec(args.spec)
    code = build_code(spec)
    res = min_distance(code, max_weight=args.max_weight, budget=args.budget,
                       parity=build_dual(spec).generator_matrix)
    result = _base_result(spec, code)
    result["distance"] = {
        "d": res.d,
        "exact": res.exact,
        "weight_checked": res.weight_checked,
        "witness": list(res.witness) if res.witness is not None else None,
        "candidates_tested": res.candidates_tested,
    }
    _emit(result, args.out)
    return EXIT_OK if res.exact else EXIT_BUDGET


def _verify_checks(spec: CodeSpec, pairs: int, seed: int):
    """Yield (name, ok) for the full invariant suite of one spec."""
    ring = spec.ring
    p = ring.field.p
    for axis, fam in zip("zy", code_idempotents(ring)):
        for name, ok in identity_report(fam).items():
            yield f"idempotents_{axis}_{name}", ok

    code = build_code(spec)
    dual = build_dual(spec)
    # G at the roots, H, of the inverse-constant ring, at the inverse roots: no elimination
    g = crt_blocks(ring, code.generator_matrix)
    h = crt_blocks(ring, dual.generator_matrix, inverse=True)
    rank_g, rank_h = crt_rank(g, p), crt_rank(h, p)
    yield "generator_rank_equals_dimension", ring.n - spec.degree_sum() == code.dimension == rank_g
    # tested against H, which dual_equals_kernel below ties to the kernel
    closure = crt_closure(ring, g, h)
    for axis in ("x", "y", "z"):
        yield f"quasi_twisted_closure_{axis}", closure[axis]

    orthogonal = crt_products_vanish(g, h, p)
    yield "dual_orthogonality", orthogonal
    yield "dual_rank_complement", ring.n - rank_g == dual.dimension == spec.degree_sum()
    # a subspace of ker G with the kernel's dimension is all of it
    yield "dual_equals_kernel", orthogonal and rank_h == ring.n - rank_g
    if dual.ring == ring:   # self-duality needs alpha = alpha^-1, beta = beta^-1, gamma = gamma^-1
        verdict, _ = self_dual_decide(spec)
        yield "self_dual_criteria_agree", verdict == direct_self_dual_check(code, g)
    yield ("complement_generators_annihilate",
           bool(cell_product_zero_flags(ring, complement_grid(spec), spec.divisor_grid).all()))
    yield "product_zero_matches_shift_orthogonality", _random_pairs_agree(ring, pairs, seed)


def _random_pairs_agree(ring: RingParams, pairs: int, seed: int) -> bool:
    """The bridge between ring annihilators and Euclidean duality on random
    pairs: f*g = 0 through the CRT split exactly when f is orthogonal to the
    shift orbit of reverse(g).  The pairs are drawn and tested in chunks of
    PAIR_BYTES bytes of words, at least one pair a chunk."""
    p = ring.field.p
    z_roots, y_roots = (fam.roots for fam in code_idempotents(ring))
    rng = random.Random(seed)
    chunk = max(1, PAIR_BYTES // (16 * ring.n))   # f and g: 2n int64 words a pair
    agree = True
    for start in range(0, pairs, chunk):
        count = min(chunk, pairs - start)
        # 32 random bits a coefficient, the same words as one randbytes(8 n) per pair;
        # numpy.random would add 6 MB of RSS
        words = np.frombuffer(rng.randbytes(8 * ring.n * count), dtype=np.uint32)
        f, g = np.swapaxes((words % p).reshape(count, 2, *ring.shape()), 0, 1)
        zero_flags = split_product_zero_flags(ring, y_roots, z_roots, f, g)
        agree &= bool((zero_flags == shift_orbit_orthogonal_flags(ring, f, g)).all())
    return agree


def cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    try:
        seed = int(os.environ.get(SEED_ENV, "20260810"))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    results = {}
    ok_all = True
    for name, ok in _verify_checks(spec, args.pairs, seed):
        results[name] = ok
        ok_all &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if args.out:
        _emit({"spec": spec_to_dict(spec), "checks": results, "all_passed": ok_all}, args.out)
    return EXIT_OK if ok_all else EXIT_FALSE


def _cas_script(spec: CodeSpec, code: BuiltCode, dual: BuiltCode) -> str:
    ring = spec.ring
    rows, cols = code.generator_matrix.shape
    flat = ", ".join(map(str, code.generator_matrix.reshape(-1).tolist()))
    lines = [
        "// generator matrix and standard queries; Magma-compatible syntax",
        f"K := GF({ring.field.p});",
        f"G := Matrix(K, {rows}, {cols}, [{flat}]);",
        "C := LinearCode(G);",
        "print Length(C), Dimension(C), MinimumDistance(C);",
        "print IsSelfDual(C);",
    ]
    if dual.generator_matrix.shape[0] > 0:
        hrows = dual.generator_matrix.shape[0]
        hflat = ", ".join(map(str, dual.generator_matrix.reshape(-1).tolist()))
        lines += [
            f"H := Matrix(K, {hrows}, {cols}, [{hflat}]);",
            "D := LinearCode(H);",
            "print D eq Dual(C);",
        ]
    return "\n".join(lines) + "\n"


def _csv_grids(code: BuiltCode, dual: BuiltCode) -> str:
    lines = ["# G"]
    lines += [",".join(map(str, row)) for row in code.generator_matrix.tolist()]
    lines.append("# H")
    lines += [",".join(map(str, row)) for row in dual.generator_matrix.tolist()]
    return "\n".join(lines) + "\n"


def cmd_export(args) -> int:
    spec = load_spec(args.spec)
    code = build_code(spec)
    if code.dimension == 0:
        raise InputError("refusing to export a zero-dimensional code")
    dual = build_dual(spec)
    text = _cas_script(spec, code, dual) if args.format == "cas-script" else _csv_grids(code, dual)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_sweep_grid(args) -> int:
    report = sign_grid_sweep_report(FieldSpec(args.q), args.s, args.l, args.k)
    _emit(report, args.out)
    failures = (report["rank_mismatches"] + report["orthogonality_failures"]
                + report["kernel_mismatches"] + report["verdict_disagreements"])
    return EXIT_OK if failures == 0 else EXIT_FALSE


def cmd_sweep_no_selfdual(args) -> int:
    fields = [FieldSpec(q) for q in args.q]
    for field in fields:   # every q is checked before any record is counted
        check_scan_length(field, args.s, args.l, args.k)
    records = [record for field in fields
               for record in cyclic_yz_selfdual_scan(field, args.s, args.l, args.k)]
    found = sum(r["selfdual_grid_count"] for r in records)
    _emit({"records": records, "tuples": len(records), "selfdual_grids_found": found}, args.out)
    return EXIT_OK if found == 0 else EXIT_FALSE


def _count(text: str) -> int:
    """An argparse type for counts: a negative value is a usage error (exit 2)
    whose message names the flag."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


@functools.cache   # filled on the first main call, so it binds the cmd_* bound at that time
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ccode3d",
                                 description="3-D constacyclic codes over prime fields")
    sub = ap.add_subparsers(dest="command", required=True)

    p_idem = sub.add_parser("idempotents", help="print the idempotent family of F_q[z]/(z^k - gamma)")
    p_idem.add_argument("--q", type=int, required=True)
    p_idem.add_argument("--k", type=int, required=True)
    p_idem.add_argument("--gamma", type=int, required=True)
    p_idem.add_argument("--full", action="store_true",
                        help="also print the family modulo z^(rk) - 1")
    p_idem.set_defaults(func=cmd_idempotents)

    p_factor = sub.add_parser("factor", help="factor x^s - alpha into irreducibles")
    p_factor.add_argument("--q", type=int, required=True)
    p_factor.add_argument("--s", type=int, required=True)
    p_factor.add_argument("--alpha", type=int, required=True)
    p_factor.set_defaults(func=cmd_factor)

    for name, func, extra in (
        ("build", cmd_build, "build the code and emit its generator matrix"),
        ("dual", cmd_build, "also build the dual code matrix H (any constants)"),
        ("selfdual", cmd_selfdual, "decide self-duality; exit 0 = yes, 1 = no"),
        ("verify", cmd_verify, "run the invariant suite; exit 0 iff all pass"),
    ):
        sp = sub.add_parser(name, help=extra)
        sp.add_argument("--spec", required=True, help="JSON spec file")
        sp.add_argument("--out", help="write the JSON result here instead of stdout")
        if name == "verify":
            sp.add_argument("--pairs", type=_count, default=50,
                            help="random pairs for the orthogonality equivalence check")
        sp.set_defaults(func=func)

    p_dist = sub.add_parser("mindist", help="exact minimum distance by low-weight search")
    p_dist.add_argument("--spec", required=True)
    p_dist.add_argument("--out")
    p_dist.add_argument("--max-weight", type=_count, default=None)
    p_dist.add_argument("--budget", type=_count, default=DEFAULT_BUDGET)
    p_dist.add_argument("--jobs", type=int, default=1, help="ignored: the search is serial")
    p_dist.set_defaults(func=cmd_mindist)

    p_exp = sub.add_parser("export", help="export matrices for external cross-checking")
    p_exp.add_argument("--spec", required=True)
    p_exp.add_argument("--format", choices=["cas-script", "csv"], default="cas-script")
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=cmd_export)

    p_sweep = sub.add_parser("sweep", help="exhaustive parameter scans")
    sweep_sub = p_sweep.add_subparsers(dest="mode", required=True)

    sg = sweep_sub.add_parser("grid", help="all divisor grids for all +-1 sign choices "
                              f"(at most {SWEEP_SPEC_LIMIT} specs)")
    sg.add_argument("--q", type=int, required=True)
    sg.add_argument("--s", type=int, required=True)
    sg.add_argument("--l", type=int, required=True)
    sg.add_argument("--k", type=int, required=True)
    sg.add_argument("--out")
    sg.set_defaults(func=cmd_sweep_grid)

    sn = sweep_sub.add_parser("no-selfdual",
                              help="self-duality existence scan for beta = gamma = 1")
    sn.add_argument("--q", type=int, nargs="+", required=True)
    sn.add_argument("--s", type=int, required=True, help="maximum s")
    sn.add_argument("--l", type=int, required=True, help="maximum l")
    sn.add_argument("--k", type=int, required=True, help="maximum k")
    sn.add_argument("--out")
    sn.set_defaults(func=cmd_sweep_no_selfdual)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:   # load_spec raises its JSON errors as InputError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
