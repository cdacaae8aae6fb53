"""Checks of each operation's exit code and output file against the checker.

An operation fails when its exit code differs from the expected one (0, or 1
for a "not self-dual" verdict) or when its output fails a check.  Each check
function returns None when the output is right, else a short reason.
"""

from __future__ import annotations

import json

import numpy as np

from . import checker


def _matrix(rows, n: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(-1, n)


def _code_checks(spec: dict, out: dict) -> tuple[str | None, np.ndarray]:
    """Spec echo, dimension, rank, row space and shift closure of G."""
    q = spec["q"]
    n = spec["s"] * spec["l"] * spec["k"]
    g = _matrix(out["G"], n)
    if out["spec"] != spec:
        return "spec echo differs from the input", g
    dim = n - sum(len(p) - 1 for row in spec["p"] for p in row)
    if out["n"] != n or out["dimension"] != dim or g.shape[0] != dim:
        return f"dimension {out['dimension']} with {g.shape[0]} rows, expected {dim}", g
    if checker.rank(g, q) != dim:
        return "G is not of full rank", g
    if not checker.same_row_space(g, checker.grid_generator(spec), q):
        return "G spans another code than the divisor grid's", g
    for axis in "xyz":
        if checker.rank(np.vstack([g, checker.axis_shift(g, spec, axis)]), q) != dim:
            return f"row space of G is not closed under the {axis} shift", g
    return None, g


def check_construct(op: dict, out: dict) -> tuple[str | None, int]:
    """(reason or None, expected exit code)."""
    spec, kind = op["spec"], op["kind"]
    if kind == "verify":
        if out["spec"] != spec:
            return "spec echo differs from the input", 0
        failing = [name for name, ok in out["checks"].items() if not ok]
        if failing or out["all_passed"] is not True:
            return f"verify checks failed: {failing}", 0
        return None, 0
    reason, g = _code_checks(spec, out)
    q, n = spec["q"], g.shape[1]
    dim = g.shape[0]
    if kind == "selfdual":
        truth = 2 * dim == n and not (g @ g.T % q).any()
        expected = 0 if truth else 1
        if reason is None and out["verdicts"]["self_dual"] is not truth:
            reason = f"self-dual verdict {out['verdicts']['self_dual']}, expected {truth}"
        return reason, expected
    if reason is None and out["verdicts"]["quasi_twisted"] != {"x": True, "y": True, "z": True}:
        reason = f"quasi_twisted verdicts {out['verdicts']['quasi_twisted']}"
    if reason is None and kind == "dual":
        h = _matrix(out["H"], n)
        if (g @ h.T % q).any():
            reason = "G H^T is not zero"
        elif checker.rank(h, q) != n - dim or out["dual_dimension"] != n - dim:
            reason = f"dual rank {checker.rank(h, q)}, expected {n - dim}"
    return reason, 0


def check_sweep(op: dict, out: dict) -> str | None:
    a = op["args"]
    if op["kind"] == "sweep-grid":
        counters = ("rank_mismatches", "orthogonality_failures", "kernel_mismatches",
                    "verdict_disagreements")
        bad = {c: out[c] for c in counters if out[c] != 0}
        if bad:
            return f"failure counters {bad}"
        want = checker.grid_sweep_count(a["q"], a["s"], a["l"], a["k"])
        if out["specs"] != want:
            return f"{out['specs']} specs swept, expected {want}"
        if len(out["rings"]) != len(checker.sign_rings(a["q"], a["s"], a["l"], a["k"])):
            return f"{len(out['rings'])} sign rings swept"
        return None
    want = sorted((q, *rec) for q in a["q"]
                  for rec in checker.no_selfdual_records(q, a["s"], a["l"], a["k"]))
    got = sorted((r["q"], r["s"], r["l"], r["k"], r["alpha"], r["grid_count"])
                 for r in out["records"])
    if got != want or out["tuples"] != len(want):
        diff = sorted(set(got) ^ set(want))[:1]     # (q, s, l, k, alpha, grid_count)
        return f"{len(got)} records, expected {len(want)}; first difference {diff}"
    if out["selfdual_grids_found"] != 0:
        return f"{out['selfdual_grids_found']} self-dual grids found with beta = gamma = 1"
    return None


def check_mindist(op: dict, out: dict) -> str | None:
    reason, g = _code_checks(op["spec"], out)
    if reason is not None:
        return reason
    q, n = op["spec"]["q"], g.shape[1]
    dist = out["distance"]
    if dist["d"] != op["d"] or dist["exact"] is not True:
        return f"d = {dist['d']} (exact {dist['exact']}), reference {op['d']}"
    if dist["d"] > n - g.shape[0] + 1:
        return f"d = {dist['d']} breaks the Singleton bound"
    witness = np.array(dist["witness"], dtype=np.int64)
    if np.count_nonzero(witness % q) != dist["d"] or not checker.in_row_space(g, witness, q):
        return "witness is not a codeword of weight d"
    return None


def check_all(workload: str, ops: list[dict], argvs: list[list[str]], codes: list) -> list[str]:
    failures = []
    for i, (op, argv, rc) in enumerate(zip(ops, argvs, codes)):
        out_path = argv[argv.index("--out") + 1]
        try:
            with open(out_path, encoding="utf-8") as fh:
                out = json.load(fh)
            if workload == "construct":
                reason, expected = check_construct(op, out)
            elif workload == "sweep":
                reason, expected = check_sweep(op, out), 0
            else:
                reason, expected = check_mindist(op, out), 0
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason, expected = f"unreadable output: {exc!r}", 0
        if rc != expected:
            reason = f"exit code {rc}, expected {expected}" + (f"; {reason}" if reason else "")
        if reason is not None:
            failures.append(f"op {i} {' '.join(argv[:2])}: {reason}")
    return failures
