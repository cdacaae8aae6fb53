#!/usr/bin/env python3
"""Recompute the reference minimum distances of the mindist pool.

    python3 ccbench/make_reference.py

Builds each candidate code from its divisor grid with the checker's own
construction, finds d by the checker's column-dependence enumeration (no
ccode3d code runs), keeps codes with 2 <= d <= 5 whose search fits the mindist
command's default budget, sorts them into the cost tiers of workloads.py and
writes ccbench/reference_distances.json.
Run it again whenever the candidate rings or the pool rules in workloads.py
change.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ccbench import checker, workloads  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    found: dict[tuple[str, int, int], list[dict]] = {}
    seen = set()
    for spec in workloads.mindist_candidates():
        key = workloads.canonical(spec)
        if key in seen:
            continue
        seen.add(key)
        q, n = spec["q"], spec["s"] * spec["l"] * spec["k"]
        cap = max((d for d in range(1, 6)
                   if workloads.search_cost(n, q, d)[0] <= workloads.DEFAULT_BUDGET
                   and workloads.search_cost(n, q, d)[1] <= workloads.MAX_OP_SECONDS), default=0)
        g = checker.grid_generator(spec)
        try:
            d = checker.min_distance(g, q, max_weight=cap)
        except ValueError:
            continue
        tier = workloads.tier_of(d, workloads.search_cost(n, q, d)[1])
        if d >= 2 and tier is not None:
            found.setdefault((tier, q, d), []).append(
                {"spec": spec, "d": d, "n": n, "dimension": int(g.shape[0]), "tier": tier})
    codes = []
    for key in sorted(found):
        # spread each group over its lengths: take codes round-robin by n, longest first
        by_n: dict[int, list[dict]] = {}
        for entry in found[key]:
            by_n.setdefault(entry["n"], []).append(entry)
        queues = [by_n[n] for n in sorted(by_n, reverse=True)]
        keep = workloads.MINDIST_TIERS[key[0]][0]
        chosen = []
        while len(chosen) < keep and any(queues):
            for queue in queues:
                if queue and len(chosen) < keep:
                    chosen.append(queue.pop(0))
        codes += chosen
        print(f"{key[0]:6} q={key[1]:2} d={key[2]}: {len(found[key])} found, kept n = "
              f"{[e['n'] for e in chosen]}")
    workloads.REFERENCE_FILE.write_text(json.dumps(
        {"budget": workloads.DEFAULT_BUDGET, "max_op_seconds": workloads.MAX_OP_SECONDS,
         "codes": codes}, indent=1) + "\n", encoding="utf-8")
    print(f"{len(codes)} codes from {len(seen)} candidates in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
