#!/usr/bin/env python3
"""Run two sets of each workload at different times and compare them.

    python3 ccbench/steadiness.py [--runs 10] [--gap 60]

Every workload of BENCHMARK.json runs with its run_seconds.  Set A uses seeds
1..runs, set B seeds 101..100+runs, and B starts --gap seconds after A ends.
For each workload and end-to-end metric it prints the spread of each set (distance between the first and third quartile as a share
of the median, statistics.quantiles(n=4)), the change of B's median against
A's in the metric's worse direction, and the metric's bound from
BENCHMARK.json.  The failed share of operations must be the same in A and B.
Every run's result line is appended to ccbench/_out/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(workloads, seeds, seconds, log) -> dict:
    results = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                                  "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                                 cwd=ROOT, capture_output=True, text=True, timeout=600)
            if res.returncode != 0:
                sys.stderr.write(res.stderr)
                raise SystemExit(f"{w} seed {seed} exited with {res.returncode}")
            line = json.loads(res.stdout.strip().splitlines()[-1])
            results[w].append(line)
            log.write(json.dumps({"workload": w, "seed": seed, **line}) + "\n")
            log.flush()
            print(f"  {w} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
    return results


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--gap", type=float, default=60.0)
    args = ap.parse_args()
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in cfg["workloads"]]
    seconds = cfg["run_seconds"]
    (HERE / "_out").mkdir(exist_ok=True)
    with open(HERE / "_out" / "steadiness.jsonl", "a", encoding="utf-8") as log:
        print("set A")
        a = run_set(workloads, range(1, args.runs + 1), seconds, log)
        time.sleep(args.gap)
        print("set B")
        b = run_set(workloads, range(101, 101 + args.runs), seconds, log)
    ok = True
    print(f"{'workload':10} {'metric':12} {'spread A':>9} {'spread B':>9} "
          f"{'B vs A':>8} {'bound':>6}")
    for w in workloads:
        share_a = {r["failed"] / r["attempted"] for r in a[w]}
        share_b = {r["failed"] / r["attempted"] for r in b[w]}
        if share_a != share_b or len(share_a) != 1:
            ok = False
            print(f"{w}: failed shares differ: {share_a} vs {share_b}")
        for m in cfg["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[w]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[w]]
            sa, sb = spread(va), spread(vb)
            change = statistics.median(vb) / statistics.median(va) - 1
            worse = change if m["better"] == "lower" else -change
            flag = ""
            if worse > m["bound"] or max(sa, sb) > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif max(sa, sb) > m["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"{w:10} {m['name']:12} {sa:9.3f} {sb:9.3f} {worse:+8.3f} "
                  f"{m['bound']:6.2f}{flag}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
