"""Run-to-run spread of every end-to-end metric, to set and verify the bounds
in BENCHMARK.json.

    python3 perfbench/spread.py [--sets 1]

Runs ``perfbench/run.py`` on every workload once per seed, one run at a
time, for `--sets` consecutive sets of ten seeds (1-10, 11-20, ...). For each
end-to-end metric it prints the median, the quartiles and the spread
(Q3 - Q1) / median of each set, as ``statistics.quantiles(values, n=4)``
gives them, next to the metric's bound; with two sets it also prints how
much the second median is worse than the first. Raw results go to
``perfbench/out/spread-<time>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS_PER_SET = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)
    raw: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(args.sets):
            seeds = range(1 + s * SEEDS_PER_SET, 1 + (s + 1) * SEEDS_PER_SET)
            sets.append([run_once(workload, seed, spec["run_seconds"]) for seed in seeds])
        raw[workload] = sets
        print(f"\n{workload}: {args.sets} set(s) of {SEEDS_PER_SET} runs")
        for i, runs in enumerate(sets):
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"  set {i + 1}: correct {all(r['correct'] for r in runs)}, failed share {shares}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells = []
            medians = []
            for runs in sets:
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                cells.append(f"median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {sp:.4f}")
            line = f"  {name:12s} " + " | ".join(cells) + f" | bound {bound} (a third: {bound / 3:.4f})"
            if len(medians) > 1 and medians[0]:
                line += f" | 2nd median worse by {(medians[1] - medians[0]) / medians[0]:+.4f}"
            print(line, flush=True)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spread-{int(time.time())}.json"
    path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    print(f"\nraw results: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
