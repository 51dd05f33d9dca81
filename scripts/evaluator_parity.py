"""Digest the evaluator's outputs, to compare two source trees bit for bit.

For each noise configuration it prints one SHA-256 digest of the trainer
evaluator's rows for all 256 8-entry weights on the bundled dataset (chain:4),
scored one neuron at a time, one of the same rows scored as one batch
(`neuron_rows` of the 256 codes, as the exhaustive strategy asks for them),
and one of `qnn.accuracy` and its `work` over 16 seeded 2-neuron models, the
`qnz infer` path. It prints one more per search strategy of a 2-neuron `train` run (exhaustive, skipped on
trajectories, and 400-proposal hill climbing and random search): its log
(iteration, weights, accuracy), best model, best and baseline accuracy,
`evaluations`, `cache_hits` and `work` without `steps` and `walks`. Those
two count the exact engine's passes and gate steps, which depend on how the
evaluator splits and shares work, so they are printed beside the digest,
outside it: a change meant to keep that work as it was shows when it moves
it; the inference line prints their sums the same way. One more digest covers the rows of 64 seeded 16-entry weights on a
synthetic dataset (linear_chain(6)), scored one at a time, and one the rows
of 16 seeded 32-entry weights on four seeded unit inputs (linear_chain(8),
flip and phase 0.01: eval-wide's shape), scored one at a time.
Run it on two trees and diff the output:

    PYTHONPATH=src python3 scripts/evaluator_parity.py > a.txt
    PYTHONPATH=/other/tree/src python3 scripts/evaluator_parity.py > b.txt
    diff a.txt b.txt

A change that moves row bits by design (new arithmetic) is compared with a
tolerance instead: `--dump FILE` saves every row array and the accuracy of
every log entry, and `--against FILE` adds, per row array, the max |delta|
against such a dump, and per train log and inference line the number of
entries whose accuracy differs, then one line per such entry (index, weight
codes, accuracy in the dump and here):

    PYTHONPATH=/other/tree/src python3 scripts/evaluator_parity.py --dump base.npz
    PYTHONPATH=src python3 scripts/evaluator_parity.py --against base.npz

Takes about 35 s on one core of a 2-vCPU VM.
"""
import argparse
import hashlib
import json
from dataclasses import replace

import numpy as np

from qnz.noise import NoiseModel, parse_noise_shorthand
from qnz.qnn import (
    Dataset,
    Model,
    accuracy,
    best_exhaustive_accuracy,
    bundled_dataset_path,
    code_from_weights,
    load_dataset,
    make_synthetic_dataset,
    weights_from_code,
)
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
# the weight codes of the 2-neuron models scored by `qnn.accuracy`
MODELS = [tuple(pair) for pair in np.random.default_rng(22).integers(256, size=(16, 2)).tolist()]
# (strategy, max_iters): the exhaustive run covers the 2^16-model space and the baseline
STRATEGIES = [("exhaustive", 2**16 + 1), ("hill_climb", 400), ("random_search", 400)]
# work counters of the exact engine's passes and gate steps, which depend on
# how the evaluator splits and shares work; printed outside the train digests
SHARED = ("steps", "walks")


def digest(obj) -> str:
    h = hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(np.ascontiguousarray(obj, dtype=np.float64).tobytes())
    else:
        h.update(json.dumps(obj, sort_keys=True).encode())
    return h.hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", help="save the rows and log accuracies to this .npz file")
    parser.add_argument("--against", help="compare with the rows and logs of this .npz dump")
    args = parser.parse_args()
    base = dict(np.load(args.against)) if args.against else None
    kept: dict[str, np.ndarray] = {}

    def report(key: str, values: np.ndarray, codes=None) -> str:
        """Keep `values` under `key`; against a dump, the max |delta| of rows,
        or the count of differing accuracies and a line per entry i whose
        accuracy differs, with its weight codes `codes(i)`."""
        kept[key] = values
        if base is None:
            return ""
        if key not in base:  # a dump from before this key was kept
            return " not in the dump"
        if key.endswith("rows"):
            return f" max|d| {np.max(np.abs(values - base[key])):.3g}"
        if values.shape != base[key].shape:
            return f" length {len(values)} against {len(base[key])}"
        moved = np.flatnonzero(values != base[key])
        return f" moved {len(moved)}/{len(values)}" + "".join(
            f"\n  moved entry {i} codes {codes(i)}"
            f" {float(base[key][i])} -> {float(values[i])}"
            for i in moved
        )

    dataset = load_dataset(bundled_dataset_path())
    _, baseline = best_exhaustive_accuracy(dataset)
    for label, backend, noise, shots in CONFIGS:
        cfg = TrainConfig(
            strategy="exhaustive", max_iters=2**16 + 1, seed=7, backend=backend, noise=noise,
            initial=baseline, dataset=dataset, graph=linear_chain(4), shots=shots,
        )
        ev = Evaluator(cfg)
        rows = np.array([ev.neuron_outputs(weights_from_code(c, 8)) for c in range(256)])
        print(f"{label} {backend} rows {digest(rows)}" + report(f"{label} {backend} rows", rows))
        rows = Evaluator(cfg).neuron_rows(range(256))
        key = f"{label} {backend} batch rows"
        print(f"{key} {digest(rows)}" + report(key, rows))
        accs, works = [], []
        for pair in MODELS:
            works.append({})
            accs.append(accuracy(Model(tuple(weights_from_code(c, 8) for c in pair)), cfg, work=works[-1]))
        key = f"{label} {backend} infer"
        run = {"accuracy": accs, "work": [{k: v for k, v in w.items() if k not in SHARED} for w in works]}
        print(
            f"{key} {digest(run)} " + " ".join(f"{k} {sum(w[k] for w in works)}" for k in SHARED)
            + report(key, np.array(accs), lambda i: MODELS[i])
        )
        for strategy, max_iters in STRATEGIES:
            if strategy == "exhaustive" and backend == "trajectories":
                continue
            result = train(replace(cfg, strategy=strategy, max_iters=max_iters, patience=max_iters))
            run = {
                "log": [[e.iteration, e.weights, e.accuracy] for e in result.log],
                "best": result.best.neurons,
                "best_accuracy": result.best_accuracy,
                "baseline_accuracy": result.baseline_accuracy,
                "evaluations": result.evaluations,
                "cache_hits": result.cache_hits,
                "work": {k: v for k, v in result.work.items() if k not in SHARED},
            }
            moved = report(
                f"{label} {backend} {strategy} log", np.array([e.accuracy for e in result.log]),
                lambda i, log=result.log: tuple(map(code_from_weights, log[i].weights)),
            )
            print(
                f"{label} {backend} {strategy} train {digest(run)} "
                f"best {result.best_accuracy} work {run['work']} "
                + " ".join(f"{k} {result.work[k]}" for k in SHARED) + moved
            )
    wide = make_synthetic_dataset(5, 16, k=4)
    noise = parse_noise_shorthand("flip:0.05,phase:0.05")
    cfg = TrainConfig(
        strategy="random_search", max_iters=64, seed=7, backend="density", noise=noise,
        initial=Model(((1,) * 16,)), dataset=wide, graph=linear_chain(6),
    )
    ev = Evaluator(cfg)
    codes = np.random.default_rng(16).integers(2**16, size=64)
    rows = np.array([ev.neuron_outputs(weights_from_code(int(c), 16)) for c in codes])
    key = "16-entry flip:0.05,phase:0.05 density rows"
    print(f"{key} {digest(rows)}" + report(key, rows))
    rng = np.random.default_rng(32)
    xs = rng.normal(size=(4, 32))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    cfg = replace(
        cfg, noise=parse_noise_shorthand("flip:0.01,phase:0.01"), initial=Model(((1,) * 32,)),
        dataset=Dataset(tuple((tuple(x), i % 2) for i, x in enumerate(xs.tolist())), 0), graph=linear_chain(8),
    )
    ev = Evaluator(cfg)
    rows = np.array([ev.neuron_outputs(weights_from_code(int(c), 32)) for c in rng.integers(2**32, size=16)])
    key = "32-entry flip:0.01,phase:0.01 density rows"
    print(f"{key} {digest(rows)}" + report(key, rows))
    if args.dump:
        np.savez(args.dump, **kept)


if __name__ == "__main__":
    main()
