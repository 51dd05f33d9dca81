"""Digest the trajectory engine's counts, to compare two source trees bit for bit.

Each line names one group of `simulator.trajectory_counts` calls and prints
the number of calls, one SHA-256 digest over all their count arrays and the
wall time the group took. The groups:

- infer-traj: `qnn.accuracy` on the trajectory backend of the noiseless
  optimum and of a seeded random model (2 and 3 entries -1), so four routed
  8-entry neurons on chain:4, at flip and phase 0.05 with per-qubit readout,
  50 samples x 64 shots, as the benchmark's infer-traj workload runs them;
- eval-wide: the evaluator's trajectory outputs of two seeded 32-entry
  neurons (2 entries -1) on chain:8 at flip and phase 0.01, 2 inputs x 128
  shots;
- criterion 5: the 16 oracle cases of tests/test_acceptance.py (8 noise
  settings x 2 neurons on chain:4) at 10^4 shots;
- all kinds: a width-4 logical circuit that uses every gate kind, under
  flip, phase and depol 0.05 and readout 0.02, 3 inputs x 150 shots, at
  threads 1 and 2.

Run it on two trees and diff the output (the times will differ):

    PYTHONPATH=src python3 scripts/trajectory_parity.py > a.txt
    PYTHONPATH=/other/tree/src python3 scripts/trajectory_parity.py > b.txt
    diff a.txt b.txt

Takes about 10 s on one core of a 2-vCPU VM.
"""
import argparse
import hashlib
import time

import numpy as np

from qnz import qnn, simulator
from qnz.ir import Gate, GateKind
from qnz.mapper import compile
from qnz.noise import NoiseModel, bind, bind_gates, parse_noise_shorthand
from qnz.qnn import Dataset, Model, Scoring, best_exhaustive_accuracy, bundled_dataset_path
from qnz.topology import linear_chain

K = GateKind
# the all-kinds circuit: every GateKind, with superpositions ahead of the
# three- and four-qubit gates so that pending Paulis reach them
ALL_KINDS = (
    Gate(K.H, (0,)), Gate(K.H, (1,)), Gate(K.H, (2,)), Gate(K.X, (3,)), Gate(K.T, (0,)),
    Gate(K.CX, (0, 1)), Gate(K.Y, (2,)), Gate(K.S, (1,)), Gate(K.CZ, (1, 2)), Gate(K.TDG, (2,)),
    Gate(K.SWAP, (0, 3)), Gate(K.Z, (3,)), Gate(K.BRIDGE3, (1, 2, 3)), Gate(K.CCX, (0, 1, 2)),
    Gate(K.H, (3,)), Gate(K.T, (1,)), Gate(K.CNZ, (0, 1, 2, 3)), Gate(K.H, (0,)), Gate(K.CX, (3, 2)),
    Gate(K.S, (2,)), Gate(K.H, (2,)),
)
CRITERION_5 = {
    "flip 0.1": NoiseModel(flip_p=0.1),
    "flip 0.01": NoiseModel(flip_p=0.01),
    "phase 0.1": NoiseModel(phase_p=0.1),
    "phase 0.01": NoiseModel(phase_p=0.01),
    "flip+phase 0.1": NoiseModel(flip_p=0.1, phase_p=0.1),
    "flip+phase 0.01": NoiseModel(flip_p=0.01, phase_p=0.01),
    "depolarizing 0.05": NoiseModel(depol_p=0.05),
    "readout 0.1": NoiseModel(readout=tuple((q, 0.1, 0.1) for q in range(8))),
}


class Recorder:
    """Stands in for `trajectory_counts` in `qnz.qnn` and keeps every result."""

    def __init__(self):
        self.real = simulator.trajectory_counts
        self.results: list[np.ndarray] = []

    def __call__(self, *args, **kwargs):
        out = self.real(*args, **kwargs)
        self.results.append(out)
        return out

    def __enter__(self):
        qnn.trajectory_counts = self
        return self

    def __exit__(self, *exc):
        qnn.trajectory_counts = self.real


def report(label: str, results, seconds: float) -> None:
    h = hashlib.sha256()
    for counts in results:
        h.update(np.ascontiguousarray(counts, dtype=np.int64).tobytes())
    print(f"{label} calls {len(results)} {h.hexdigest()[:16]} time {seconds:.2f} s")


def infer_traj(seed: int) -> list[np.ndarray]:
    dataset = qnn.load_dataset(bundled_dataset_path())
    _, optimum = best_exhaustive_accuracy(dataset)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7A1)))
    random = Model(tuple(weights_with_flips(rng, 8, flips) for flips in (2, 3)))
    noise = NoiseModel(flip_p=0.05, phase_p=0.05,
                       readout=tuple((q, 0.01 * (q + 1), 0.015 * (q + 1)) for q in range(4)))
    scoring = Scoring(dataset, "trajectories", noise, linear_chain(4), 64, seed)
    with Recorder() as rec:
        for model in (optimum, random):
            qnn.accuracy(model, scoring)
    return rec.results


def eval_wide(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7A2)))
    xs = rng.normal(size=(2, 32))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    dataset = Dataset(tuple((tuple(float(v) for v in x), i % 2) for i, x in enumerate(xs)), 0)
    scoring = Scoring(dataset, "trajectories", parse_noise_shorthand("flip:0.01,phase:0.01"),
                      linear_chain(8), 128, seed)
    with Recorder() as rec:
        for _ in range(2):
            qnn.Evaluator(scoring).neuron_outputs(weights_with_flips(rng, 32, 2))
    return rec.results


def criterion_5(seed: int) -> list[np.ndarray]:
    x = np.full(8, 1 / np.sqrt(8))
    results = []
    for nm in CRITERION_5.values():
        for code in (0b10010100, 0b00011101):
            mapped = compile(qnn.neuron_circuit(qnn.weights_from_code(code, 8)), linear_chain(4))
            plan = simulator.plan_mapped_run(mapped, bind(nm, mapped))
            results.append(simulator.trajectory_counts(
                plan.gates, plan.n, plan.bound, [plan.embed(x)], [seed], 10_000, list(plan.measured)))
    return results


def all_kinds(seed: int) -> list[np.ndarray]:
    bound = bind_gates(parse_noise_shorthand("flip:0.05,phase:0.05,depol:0.05,readout:0.02"), ALL_KINDS)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7A4)))
    inits = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
    inits /= np.linalg.norm(inits, axis=1, keepdims=True)
    seeds = [seed, seed + 1, seed + 2]
    return [simulator.trajectory_counts(ALL_KINDS, 4, bound, inits, seeds, 150, [0, 1, 2], threads)
            for threads in (1, 2)]


def weights_with_flips(rng: np.random.Generator, n: int, flips: int) -> tuple[int, ...]:
    w = np.ones(n, dtype=int)
    w[rng.choice(n, size=flips, replace=False)] = -1
    return tuple(int(v) for v in w)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=17)
    seed = parser.parse_args().seed
    for label, group in (("infer-traj", infer_traj), ("eval-wide", eval_wide),
                         ("criterion 5", criterion_5), ("all kinds", all_kinds)):
        t0 = time.perf_counter()
        results = group(seed)
        report(label, results, time.perf_counter() - t0)


if __name__ == "__main__":
    main()
