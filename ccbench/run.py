#!/usr/bin/env python3
"""Benchmark of the ccode3d command line, run in-process.

    python3 ccbench/run.py --workload construct|sweep|mindist|all \
        --seed N --seconds S --trace 0|1

One process, one thread, closed loop: each operation is one call of
ccode3d.cli.main([...]) with --out into a scratch directory, run back to back;
between them, at even intervals, SETUP_PROBES fresh processes time set-up.
A run makes a fixed, seeded list of operations (one round, 20-25 s on a
2-vCPU x86 VM) and runs max(1, round(S / 25)) whole rounds of it.  Outputs
are checked by ccbench/checker.py after the timed loop.  The last line of
standard output is one JSON object: correct, attempted, failed and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1), as
named in BENCHMARK.json.
"""

import time

_T0 = time.perf_counter()   # set-up time is counted from here

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("construct", "sweep", "mindist")
ROUND_SECONDS = 25
SETUP_PROBES = 15         # fresh processes that repeat set-up; setup_s is their median

sys.path.insert(0, str(ROOT))


def op_argv(op: dict, spec_path: str | None, out: str) -> list[str]:
    kind = op["kind"]
    if kind in ("build", "dual", "selfdual", "verify"):
        return [kind, "--spec", spec_path, "--out", out]
    if kind == "mindist":
        return ["mindist", "--spec", spec_path, "--out", out, "--jobs", "1"]
    a = op["args"]
    if kind == "sweep-grid":
        return ["sweep", "grid", "--q", str(a["q"]), "--s", str(a["s"]), "--l", str(a["l"]),
                "--k", str(a["k"]), "--out", out]
    return ["sweep", "no-selfdual", "--q", *map(str, a["q"]), "--s", str(a["s"]),
            "--l", str(a["l"]), "--k", str(a["k"]), "--out", out]


def write_inputs(run_dir: Path, ops: list[dict], warmups: list[dict], rounds: int) -> dict:
    """Spec files and argument lists; the manifest is what set-up reads."""
    from ccbench.workloads import canonical

    spec_paths: dict[str, str] = {}

    def spec_file(spec):
        if spec is None:
            return None
        key = canonical(spec)
        if key not in spec_paths:
            path = run_dir / f"spec-{len(spec_paths)}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            spec_paths[key] = str(path)
        return spec_paths[key]

    timed = [op_argv(op, spec_file(op.get("spec")), str(run_dir / f"out-{r}-{i}.json"))
             for r in range(rounds) for i, op in enumerate(ops)]
    warm = [op_argv(op, spec_file(op.get("spec")), str(run_dir / f"warm-{i}.json"))
            for i, op in enumerate(warmups)]
    manifest = {"specs": list(spec_paths.values()), "warmup": warm, "timed": timed}
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest


class Quiet:
    """Send the commands' own prints (verify's PASS lines, selfdual's
    certificate message) to /dev/null while operations run."""

    def __enter__(self):
        self.saved = sys.stdout, sys.stderr
        self.sink = open(os.devnull, "w", encoding="utf-8")
        sys.stdout = sys.stderr = self.sink
        return self

    def __exit__(self, *exc):
        sys.stdout, sys.stderr = self.saved
        self.sink.close()


def call(main, argv) -> int | str:
    """The command's exit code, or what it raised: a crash is a failed
    operation, not the end of the run."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        return f"raised {exc!r}"


def program_setup(manifest: dict, tracer=None):
    """Everything before the first timed operation: importing ccode3d,
    reading every input spec, filling the idempotent caches and the first
    call of each operation kind."""
    sys.path.insert(0, str(SRC))
    import ccode3d
    import ccode3d.cli

    if Path(ccode3d.__file__).resolve().parent != SRC / "ccode3d":
        raise SystemExit(f"imported ccode3d from {ccode3d.__file__}, not from {SRC}")
    if tracer is not None:
        tracer.install()
    for path in manifest["specs"]:
        ccode3d.validate_spec(ccode3d.cli.load_spec(path))
    with Quiet():
        for argv in manifest["warmup"]:
            call(ccode3d.cli.main, argv)
    return ccode3d.cli


def probe(run_dir: str) -> int:
    manifest = json.loads((Path(run_dir) / "manifest.json").read_text(encoding="utf-8"))
    program_setup(manifest)
    print(time.perf_counter() - _T0)
    return 0


def set_up_once(run_dir: Path) -> float:
    """Set-up time of one fresh process (see probe)."""
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe", str(run_dir)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_workload(args, spec_cfg: dict) -> dict:
    from ccbench import checks, workloads

    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    ops = workloads.make_ops(args.workload, args.seed)
    run_dir = HERE / "_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        manifest = write_inputs(run_dir, ops, workloads.WARMUP_OPS[args.workload], rounds)

        tracer = None
        if args.trace:
            from ccbench.trace import Tracer
            tracer = Tracer()
        cli = program_setup(manifest, tracer)
        if tracer is not None:
            missing = tracer.unwrapped(m["name"] for m in spec_cfg["per_layer"])
            if missing:
                raise SystemExit(f"error: no traced function gives {', '.join(missing)}")
        # set-up probes start at even intervals between the timed operations,
        # so that setup_s samples the host over the whole run, as the
        # operations do, and not over a few seconds at its start
        n_timed = len(manifest["timed"])
        probe_at = set() if args.trace else {
            i * n_timed // SETUP_PROBES for i in range(SETUP_PROBES)}
        setups = []
        times = []
        codes = []
        with Quiet():
            for i, argv in enumerate(manifest["timed"]):
                if i in probe_at:
                    setups.append(set_up_once(run_dir))
                if tracer is not None:
                    tracer.op = i
                t = time.perf_counter()
                rc = call(cli.main, argv)
                times.append(time.perf_counter() - t)
                codes.append(rc)
        wall = sum(times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failures = checks.check_all(args.workload, ops * rounds, manifest["timed"], codes)
        for msg in failures[:10]:
            print(f"FAILED {msg}", file=sys.stderr)
        attempted = len(times)
        failed = len(failures)
        ops_per_s = attempted / wall
        if tracer is not None:
            tracer.write(HERE / "_traces" / f"{args.workload}-{args.seed}.npz")
            values = tracer.metric_values()
            metrics = {m["name"]: {"value": float(values.get(m["name"], 0)), "unit": m["unit"]}
                       for m in spec_cfg["per_layer"]}
        else:
            values = {
                "ops_per_s": ops_per_s,
                "op_p50_s": statistics.median(times),
                "op_p90_s": percentile(times, 90),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec_cfg["end_to_end"]}
        print(f"# {args.workload} seed={args.seed} rounds={rounds} ops={attempted} "
              f"failed={failed} wall={wall:.3f}s ops_per_s={ops_per_s:.4f} "
              f"trace={args.trace}")
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                              workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], capture_output=True, text=True,
                             timeout=900)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"workload {workload} exited with {res.returncode}", file=sys.stderr)
            return res.returncode or 1
        result = json.loads(res.stdout.strip().splitlines()[-1])
        print(f"{workload}: attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    if argv is None and len(sys.argv) == 3 and sys.argv[1] == "--probe":
        return probe(sys.argv[2])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ccode3d" / "__init__.py").is_file():
        print(f"error: no ccode3d sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args, json.loads(spec_path.read_text(encoding="utf-8")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
