"""Digest the evaluator's outputs, to compare two source trees bit for bit.

For each noise configuration it prints one SHA-256 digest of the trainer
evaluator's rows for all 256 8-entry weights on the bundled dataset (chain:4),
and one of an exhaustive 2-neuron `train` run: its log (iteration, weights,
accuracy), best model, best and baseline accuracy, `evaluations`,
`cache_hits` and `work` without `steps` (which counts shared work and is
expected to move). Run it on two trees and diff the output:

    PYTHONPATH=src python3 scripts/evaluator_parity.py > a.txt
    PYTHONPATH=/other/tree/src python3 scripts/evaluator_parity.py > b.txt
    diff a.txt b.txt

Takes about 30 s on one core of a 2-vCPU VM.
"""
import hashlib
import json

import numpy as np

from qnz.noise import NoiseModel, parse_noise_shorthand
from qnz.qnn import best_exhaustive_accuracy, load_dataset, bundled_dataset_path, weights_from_code
from qnz.topology import linear_chain
from qnz.trainer import Evaluator, TrainConfig, train

# (label, backend, noise, shots); the trajectory row pins that its path is untouched
CONFIGS = [
    ("ideal", "ideal", NoiseModel(), 0),
    ("zero-noise", "density", NoiseModel(), 0),
    ("flip:0.05,phase:0.05", "density", parse_noise_shorthand("flip:0.05,phase:0.05"), 0),
    ("flip:1e-4,phase:1e-4", "density", parse_noise_shorthand("flip:1e-4,phase:1e-4"), 0),
    ("depol:0.01,readout:0.03", "density", parse_noise_shorthand("depol:0.01,readout:0.03"), 0),
    ("flip:0.05,phase:0.05", "trajectories", parse_noise_shorthand("flip:0.05,phase:0.05"), 64),
]


def digest(obj) -> str:
    h = hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(np.ascontiguousarray(obj, dtype=np.float64).tobytes())
    else:
        h.update(json.dumps(obj, sort_keys=True).encode())
    return h.hexdigest()[:16]


def main() -> None:
    dataset = load_dataset(bundled_dataset_path())
    _, baseline = best_exhaustive_accuracy(dataset)
    for label, backend, noise, shots in CONFIGS:
        cfg = TrainConfig(
            strategy="exhaustive", max_iters=2**16 + 1, seed=7, backend=backend, noise=noise,
            initial=baseline, dataset=dataset, graph=linear_chain(4), shots=shots,
        )
        ev = Evaluator(cfg)
        rows = np.array([ev.neuron_outputs(weights_from_code(c, 8)) for c in range(256)])
        print(f"{label} {backend} rows {digest(rows)}")
        if backend == "trajectories":
            continue
        result = train(cfg)
        run = {
            "log": [[e.iteration, e.weights, e.accuracy] for e in result.log],
            "best": result.best.neurons,
            "best_accuracy": result.best_accuracy,
            "baseline_accuracy": result.baseline_accuracy,
            "evaluations": result.evaluations,
            "cache_hits": result.cache_hits,
            "work": {k: v for k, v in result.work.items() if k != "steps"},
        }
        print(f"{label} {backend} train {digest(run)} best {result.best_accuracy} work {run['work']}")


if __name__ == "__main__":
    main()
