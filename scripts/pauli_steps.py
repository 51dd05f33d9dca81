"""Time the exact engine's passes over Pauli coefficients, one JSON row per case.

Each case pulls an effect back (or pushes rho forward) through one whole
neuron's routed gates and bound events, as the evaluator does. Every neuron
has two -1 entries at seeded positions, the shape eval-wide scores:

  wide8-lone      the lone pull_back of eval-wide's width-8 neuron (32 entries,
                  chain:8, flip/phase 0.01);
  w4-lone         a lone pull_back at width 4 (8 entries, chain:4);
  w6-lone         a lone pull_back at width 6 (16 entries, chain:6);
  w6-stack16      a pull_back of 16 stacked effects at width 6;
  w6-stack256     a pull_back of 256 stacked effects at width 6;
  w6-push50       a push_forward of 50 inputs' rho at width 6;
  w6-depol-lone   a lone pull_back at width 6 under depol 0.01 as well;
  w8-bridge-lone  a lone pull_back at width 8 through a BRIDGE3 on each three
                  adjacent qubits, flip 0.05 and depol 0.01 (routed circuits
                  expand bridges to CX; a logical circuit may hold them whole).

Weights, inputs and coefficients are seeded, so two trees time the same
work. A row gives the median and quartiles of `--reps` timed passes after a
warm-up, and `build_ms`, the time to build the pass's steps once (absent on a
tree whose passes take gates and events). Run it on two trees, with BLAS
pinned to one thread as the benchmark pins it, and compare:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/pauli_steps.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=/other/tree/src python3 scripts/pauli_steps.py

Takes about 15 s on one core of a 2-vCPU VM.
"""
import argparse
import json
import time
from types import SimpleNamespace

import numpy as np

from qnz import simulator
from qnz.ir import Gate, GateKind
from qnz.noise import bind_gates
from qnz.noise import parse_noise_shorthand
from qnz.qnn import Dataset, Evaluator, Scoring, code_from_weights
from qnz.simulator import pull_back, push_forward, readout_effect
from qnz.topology import linear_chain

# (case, entries, chain length, noise, columns (0 for a lone effect), direction)
CASES = [
    ("wide8-lone", 32, 8, "flip:0.01,phase:0.01", 0, "back"),
    ("w4-lone", 8, 4, "flip:0.05,phase:0.05", 0, "back"),
    ("w6-lone", 16, 6, "flip:0.05,phase:0.05", 0, "back"),
    ("w6-stack16", 16, 6, "flip:0.05,phase:0.05", 16, "back"),
    ("w6-stack256", 16, 6, "flip:0.05,phase:0.05", 256, "back"),
    ("w6-push50", 16, 6, "flip:0.05,phase:0.05", 50, "forward"),
    ("w6-depol-lone", 16, 6, "flip:0.05,phase:0.05,depol:0.01", 0, "back"),
    ("w8-bridge-lone", 0, 8, "flip:0.05,depol:0.01", 0, "back"),
]


def prepare(gates, events):
    """What a pass takes after gates and events: built steps, or on a tree
    whose passes walk gates and events, those two."""
    if hasattr(simulator, "pauli_steps"):
        t0 = time.perf_counter()
        steps = simulator.pauli_steps(gates, events)
        return (steps,), (time.perf_counter() - t0) * 1e3
    return (gates, events), None


def bridge_plan(width: int, noise: str) -> SimpleNamespace:
    """A plan of one BRIDGE3 on each three adjacent qubits of `width`, one
    at each trailing extent from 4^(width - 3) down to 1, measuring qubit 0."""
    gates = [Gate(GateKind.BRIDGE3, (q, q + 1, q + 2)) for q in range(width - 2)]
    return SimpleNamespace(gates=gates, bound=bind_gates(parse_noise_shorthand(noise), gates),
                           n=width, measured=(0,))


def neuron_plan(entries: int, chain: int, noise: str, rng):
    """The dense plan of a neuron with two seeded -1 entries, as eval-wide
    scores, and its weight code; with no entries, `bridge_plan`'s and None."""
    if not entries:
        return bridge_plan(chain, noise), None
    x = np.ones(entries) / np.sqrt(entries)
    scoring = Scoring(Dataset(((tuple(x), 0),), 0), "density", parse_noise_shorthand(noise),
                      graph=linear_chain(chain))
    w = np.ones(entries, dtype=int)
    w[rng.choice(entries, size=2, replace=False)] = -1
    code = code_from_weights(w.tolist())
    return Evaluator(scoring).plan(code), code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=40, help="timed passes per case")
    parser.add_argument("--seed", type=int, default=27)
    parser.add_argument("--case", action="append", help="run only this case (repeatable)")
    args = parser.parse_args()
    for name, entries, chain, noise, columns, direction in CASES:
        if args.case and name not in args.case:
            continue
        plan, code = neuron_plan(entries, chain, noise, np.random.default_rng([args.seed, entries]))
        operands, build_ms = prepare(plan.gates, plan.bound.events)
        if columns:
            start = np.random.default_rng([args.seed, columns]).normal(size=(4,) * plan.n + (columns,))
        else:
            start = readout_effect(plan.n, plan.bound, plan.measured)
        run = pull_back if direction == "back" else push_forward
        times = []
        for rep in range(args.reps + 3):  # three warm-up passes
            c = start.copy()
            t0 = time.perf_counter()
            run(c, *operands)
            if rep >= 3:
                times.append((time.perf_counter() - t0) * 1e3)
        q1, med, q3 = np.percentile(times, [25, 50, 75])
        row = {
            "case": name, "width": plan.n, "columns": columns, "direction": direction,
            "gates": len(plan.gates), "events": sum(map(len, plan.bound.events)), "code": code,
            "ms_median": round(float(med), 4), "ms_q1": round(float(q1), 4), "ms_q3": round(float(q3), 4),
            "reps": args.reps,
        }
        if build_ms is not None:
            row["build_ms"] = round(build_ms, 4)
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
