#!/usr/bin/env python3
"""Survey self-duality across parameter ranges.

Part 1: for beta = gamma = 1 (plain cyclic y and z axes) and gcd(s, q) = 1,
count self-dual divisor grids exactly via the orbit factorization; the count
is zero throughout the range.

Part 2: for one small ring family, enumerate every divisor grid for every
admissible +-1 sign choice and tabulate how many are self-dual, confirming
the grid-based verdict against the direct matrix test.

Exits 1 when part 1 finds a self-dual grid or part 2 counts any failure,
0 otherwise.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ccode3d.codes import cyclic_yz_selfdual_scan, sign_grid_sweep_report
from ccode3d.gf import FieldSpec


def main():
    print("== beta = gamma = 1 existence scan (s, l, k <= 4) ==")
    total = 0
    for q in (5, 7):
        records = cyclic_yz_selfdual_scan(FieldSpec(q), 4, 4, 4)
        found = sum(r["selfdual_grid_count"] for r in records)
        grids = sum(r["grid_count"] for r in records)
        total += found
        print(f"  q={q}: {len(records)} parameter tuples, {grids} grids covered, "
              f"{found} self-dual")
    print(f"  total self-dual grids found: {total}")

    print("== full grid sweep, all +-1 signs, (q,s,l,k) = (5,2,2,2) ==")
    report = sign_grid_sweep_report(FieldSpec(5), 2, 2, 2)
    print(f"  specs: {report['specs']}  self-dual: {report['self_dual']}")
    counters = ("rank_mismatches", "orthogonality_failures", "kernel_mismatches",
                "verdict_disagreements")
    print("  " + "  ".join(f"{key.replace('_', ' ')}: {report[key]}" for key in counters))
    return 1 if total or any(report[key] for key in counters) else 0


if __name__ == "__main__":
    sys.exit(main())
