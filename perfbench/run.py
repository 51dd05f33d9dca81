"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a qnz checkout; the program is imported from ``src``.
Each run starts fresh processes with the BLAS, OpenMP and qnz thread counts
pinned to 1. With ``--trace 0`` it first starts SETUP_SAMPLES - 1 processes
that only set up, then one that also measures, and reports the median
set-up time of all of them next to the measured end-to-end metrics. With
``--trace 1`` one process measures untraced, then again traced, and reports
the per-layer metrics. The last line of stdout is one JSON object; the
metric names and units are those declared in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-density", "infer-traj", "compile-grid", "eval-wide")
SETUP_SAMPLES = 3
DEADLINE_S = 175.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "QNZ_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args, deadline: float, setup_only: bool) -> dict:
    argv = [
        sys.executable, "-m", "perfbench.child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    if args.smoke:
        argv.append("--smoke")
    argv += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish within {DEADLINE_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "qnz" / "__init__.py").is_file():
            raise BenchError(f"no qnz sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        setup = [] if args.trace else [
            run_child(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
        ]
        result = run_child(args, deadline, setup_only=False)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setup + [values["setup_s"]])
    if set(values) != set(declared):
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": values[name], "unit": declared[name]} for name in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
