#!/usr/bin/env python3
"""Build the three bundled example codes end to end and print their
parameters, self-duality verdicts, quasi-twisted closure, and distances."""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ccode3d.cli import load_spec
from ccode3d.codes import (
    build_code,
    build_dual,
    quasi_twisted_closure,
    self_dual_decide,
)
from ccode3d.distance import min_distance

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def main():
    for name in ("example1.json", "example2.json", "example3.json"):
        spec = load_spec(str(SPEC_DIR / name))
        ring = spec.ring
        start = time.perf_counter()
        code = build_code(spec)
        dual = build_dual(spec)
        res = min_distance(code, parity=dual.generator_matrix)
        if dual.ring == ring:
            verdict, cert = self_dual_decide(spec, code)
            sd = "self-dual" if verdict else "not self-dual"
        else:
            sd = "self-duality needs constants +-1"
        closure = quasi_twisted_closure(code, dual.generator_matrix)
        elapsed = time.perf_counter() - start
        consts = (ring.alpha, ring.beta, ring.gamma)
        print(f"{name}: q={ring.field.p} (s,l,k)=({ring.s},{ring.l},{ring.k}) "
              f"constants={consts}")
        print(f"  [{code.n},{code.dimension},{res.d}]  {sd}  "
              f"quasi-twisted closure={closure}  ({elapsed:.2f}s)")
        print(f"  dual matrix rows: {dual.generator_matrix.shape[0]}, constants "
              f"{(dual.ring.alpha, dual.ring.beta, dual.ring.gamma)}")


if __name__ == "__main__":
    main()
