"""The four workloads: how each makes its inputs, what one op is, and how its
outputs are checked.

Each workload draws its inputs from the benchmark seed and hands the program
only those inputs. Seeded draws fix how many -1 entries every weight vector
has, so every seed asks for the same amount of work and the same number of
inserted CX; the seed only chooses where the entries sit. Checks compare
outputs with ``perfbench.reference`` or test properties the method
guarantees, never against stored output. They run untimed: checks of
properties right after each op, and checks against the reference once the
run is measured, on the few outputs each workload keeps for them. So the
reference evaluator's working set is not in ``peak_rss_mb``.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from math import comb
from pathlib import Path

import numpy as np

from qnz import bench, cli, mapper, noise, qnn, topology, trainer

from .reference import closed_form, from_routed


def unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    xs = rng.normal(size=(count, dim))
    return xs / np.linalg.norm(xs, axis=1, keepdims=True)


def weights_with_flips(rng: np.random.Generator, n: int, flips: int) -> tuple[int, ...]:
    """Length-n +-1 vector with exactly `flips` entries -1 at seeded positions."""
    w = np.ones(n, dtype=int)
    w[rng.choice(n, size=flips, replace=False)] = -1
    return tuple(int(v) for v in w)


def noiseless_optimum(xs: np.ndarray, labels: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Best two-neuron model by closed form over every pair of weight codes;
    ties go to the first pair in (neuron 0, neuron 1) code order."""
    n = xs.shape[1]
    w_all = np.array([qnn.weights_from_code(c, n) for c in range(2**n)], dtype=float)
    p = (w_all @ xs.T / np.sqrt(n)) ** 2  # (codes, samples)
    want0 = labels == 0
    acc = ((p[:, None, :] >= p[None, :, :]) == want0).mean(axis=2)
    i, j = np.unravel_index(int(np.argmax(acc)), acc.shape)
    return qnn.weights_from_code(int(i), n), qnn.weights_from_code(int(j), n)


def shot_sigma(p, shots: int):
    """Binomial standard error of a shot estimate of p. The variance is
    floored at 1/shots, where the normal approximation stops holding."""
    p = np.asarray(p, dtype=float)
    return np.sqrt(np.maximum(p * (1.0 - p), 1.0 / shots) / shots)


def accuracy_band(out0, out1, labels, sigma=0.0) -> tuple[float, float]:
    """Range of two-neuron accuracies consistent with outputs known to within
    `sigma` of their difference: samples closer than that may go either way."""
    certain = np.abs(out0 - out1) > np.maximum(sigma, 1e-9)
    right = (np.where(out0 >= out1, 0, 1) == labels) & certain
    n = len(labels)
    return right.sum() / n, (right.sum() + (~certain).sum()) / n


def binomial_pmf(p: float, shots: int) -> np.ndarray:
    """P(k of `shots` shots read 0...0) for k = 0..shots."""
    k = np.arange(shots + 1)
    return np.array([comb(shots, int(i)) for i in k], dtype=float) * p**k * (1.0 - p) ** (shots - k)


def shot_accuracy(out0, out1, labels, shots: int) -> tuple[float, float]:
    """Mean and standard deviation of the accuracy of a two-neuron model whose
    outputs are estimated from `shots` independent shots each, predicting
    class 0 when the first estimate is at least the second."""
    right = []
    for p0, p1, label in zip(out0, out1, labels):
        f0, f1 = binomial_pmf(p0, shots), binomial_pmf(p1, shots)
        pred0 = float(f0 @ np.cumsum(f1))  # P(k0 >= k1)
        right.append(pred0 if label == 0 else 1.0 - pred0)
    right = np.array(right)
    return right.mean(), np.sqrt((right * (1.0 - right)).sum()) / len(right)


def run_cli(argv: list[str]) -> dict:
    """Run one `qnz` subcommand in-process; returns its JSON report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"qnz {argv[0]} exited with {rc}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return str(path)


class Workload:
    """Inputs from (seed, smoke), a warm-up, the ops of one round, the checks."""

    name = ""

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9B3)))

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def check_op(self, op: int, index: int, out) -> str | None:
        """Failure message of the method's own properties for the output of op
        number `op` (op `index` of its round), or None. Called untimed right
        after the op; keeps what the reference checks need."""
        raise NotImplementedError

    def check_reference(self) -> dict[int, str]:
        """Failure message per op number, from the outputs kept by check_op,
        compared with the reference evaluator. Called once the run is measured."""
        raise NotImplementedError


class ReferenceOutputs:
    """Reference neuron outputs per weight vector on fixed inputs, device and noise."""

    def __init__(self, xs, graph, noise_model):
        self.xs, self.graph, self.noise = np.asarray(xs), graph, noise_model
        self._cache: dict = {}

    def __call__(self, w) -> np.ndarray:
        w = tuple(w)
        if w not in self._cache:
            mapped = mapper.compile(qnn.neuron_circuit(w), self.graph)
            bound = noise.bind(self.noise, mapped)
            self._cache[w] = from_routed(mapped, bound).zero_probabilities(self.xs)
        return self._cache[w]


class TrainDensity(Workload):
    """Exhaustive density-backend training from the noiseless optimum, as `qnz train`."""

    name = "train-density"
    NOISE = "flip:0.05,phase:0.05"
    SAMPLED_MODELS = 16

    def prepare(self):
        self.dataset_path = qnn.bundled_dataset_path()
        ds = qnn.load_dataset(self.dataset_path)
        self.xs, self.labels = ds.inputs(), ds.labels()
        self.baseline = noiseless_optimum(self.xs, self.labels)
        self.kept: dict[int, dict] = {}  # reported result per op
        model_path = self.workdir / "baseline.model"
        model_path.write_text(qnn.format_model(qnn.Model(self.baseline)), encoding="utf-8")
        # 65537 covers the 2^16-model space plus the baseline evaluation
        self.max_iters = 8 if self.smoke else 65537
        config = {
            "strategy": "exhaustive", "backend": "density", "noise": self.NOISE,
            "model": str(model_path), "dataset": self.dataset_path, "topology": "chain:4",
        }
        self.config = write_json(self.workdir / "train.json", {**config, "max_iters": self.max_iters})
        self.warm_config = write_json(self.workdir / "warm.json", {**config, "max_iters": 4})
        self.reference = ReferenceOutputs(
            self.xs, topology.load_topology("chain:4"), noise.load_noise(self.NOISE)
        )
        searched = min(self.max_iters, 2**16)
        flats = self.rng.choice(searched, size=min(self.SAMPLED_MODELS, searched), replace=False)
        # exhaustive search visits flat index f as the codes (f // 256, f % 256)
        self.sampled = [
            (qnn.weights_from_code(int(f) // 256, 8), qnn.weights_from_code(int(f) % 256, 8))
            for f in flats
        ]

    def _train(self, config: str) -> dict:
        argv = ["train", "--config", config, "--seed", str(self.seed), "--threads", "1"]
        return run_cli(argv)["result"]

    def warm_up(self):
        self._train(self.warm_config)

    def ops(self):
        return [("train", lambda: self._train(self.config))]

    def _band(self, neurons):
        return accuracy_band(self.reference(neurons[0]), self.reference(neurons[1]), self.labels)

    def check_op(self, op, index, out):
        self.kept[op] = out
        best, base = out["best_accuracy"], out["baseline_accuracy"]
        return f"best accuracy {best} below baseline {base}" if best < base else None

    def _reference_failure(self, out) -> str | None:
        best, base = out["best_accuracy"], out["baseline_accuracy"]
        lo, hi = self._band(self.baseline)
        if not lo <= base <= hi:
            return f"baseline accuracy {base} outside reference [{lo}, {hi}]"
        lo, hi = self._band(tuple(tuple(w) for w in out["best_weights"]))
        if not lo <= best <= hi:
            return f"best accuracy {best} outside reference [{lo}, {hi}]"
        for neurons in self.sampled:
            lo, _ = self._band(neurons)
            if lo > best:
                return f"searched model {neurons} scores {lo} > reported best {best}"
        return None

    def check_reference(self):
        failed = {op: self._reference_failure(out) for op, out in self.kept.items()}
        return {op: msg for op, msg in failed.items() if msg}


class InferTraj(Workload):
    """`qnz infer --backend traj` of two fixed models on the pinned dataset."""

    name = "infer-traj"
    FLIPS_OF_RANDOM_MODEL = (2, 3)

    def prepare(self):
        self.shots = 16 if self.smoke else 64
        self.dataset_path = qnn.bundled_dataset_path()
        ds = qnn.load_dataset(self.dataset_path)
        self.xs, self.labels = ds.inputs(), ds.labels()
        self.models = {
            "optimum": noiseless_optimum(self.xs, self.labels),
            "random": tuple(weights_with_flips(self.rng, 8, f) for f in self.FLIPS_OF_RANDOM_MODEL),
        }
        self.model_paths = {}
        for label, neurons in self.models.items():
            path = self.workdir / f"{label}.model"
            path.write_text(qnn.format_model(qnn.Model(neurons)), encoding="utf-8")
            self.model_paths[label] = str(path)
        calibration = {
            "flip_p": 0.05,
            "phase_p": 0.05,
            "readout": [{"qubit": q, "p01": 0.01 * (q + 1), "p10": 0.015 * (q + 1)} for q in range(4)],
        }
        self.noise_path = write_json(self.workdir / "noise.json", calibration)
        self.reference = ReferenceOutputs(
            self.xs, topology.load_topology("chain:4"), noise.load_noise(self.noise_path)
        )
        self.first: dict = {}  # first reported accuracy per model
        self.kept: dict[int, tuple[str, float]] = {}  # (model, accuracy) per op

    def _infer(self, label: str, shots: int) -> float:
        argv = [
            "infer", "--model", self.model_paths[label], "--dataset", self.dataset_path,
            "--noise", self.noise_path, "--backend", "traj", "--shots", str(shots),
            "--seed", str(self.seed), "--threads", "1", "--topology", "chain:4",
        ]
        return run_cli(argv)["result"]["accuracy"]

    def warm_up(self):
        self._infer("optimum", 8)

    def ops(self):
        return [
            (f"infer-{label}", lambda label=label: self._infer(label, self.shots))
            for label in self.models
        ]

    def check_op(self, op, index, acc):
        label = list(self.models)[index]
        self.kept[op] = (label, acc)
        if self.first.setdefault(label, acc) != acc:
            return f"accuracy {acc} differs from {self.first[label]} on a repeated seed"
        return None

    def check_reference(self):
        limits = {}
        for label, (w0, w1) in self.models.items():
            p0, p1 = self.reference(w0), self.reference(w1)
            sigma = 5.0 * np.hypot(shot_sigma(p0, self.shots), shot_sigma(p1, self.shots))
            lo, hi = accuracy_band(p0, p1, self.labels, sigma)
            mean, sd = shot_accuracy(p0, p1, self.labels, self.shots)
            limits[label] = (lo, hi, mean, sd)
            print(
                f"infer-traj {label}: 5-sigma band [{lo:.3f}, {hi:.3f}], "
                f"binomial accuracy {mean:.3f} +- {sd:.3f}, "
                f"mean |out0 - out1| {float(np.mean(np.abs(p0 - p1))):.4f}",
                file=sys.stderr,
            )
        failed = {}
        for op, (label, acc) in self.kept.items():
            lo, hi, mean, sd = limits[label]
            if not lo <= acc <= hi:
                failed[op] = f"{label}: accuracy {acc} outside the 5-sigma band [{lo}, {hi}]"
            elif abs(acc - mean) > 5.0 * sd:
                failed[op] = f"{label}: accuracy {acc} more than 5 sigma from {mean:.4f} +- {sd:.4f}"
        return failed


class CompileGrid(Workload):
    """`qnz.compile` of weight circuits onto a 2-D grid device read from a topology file."""

    name = "compile-grid"
    GRID = (5, 5)
    STATEVECTOR_SUBSET = 8

    def prepare(self):
        rows, cols = self.GRID
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        self.edges = frozenset(frozenset(e) for e in edges)
        path = self.workdir / "grid.topology"
        path.write_text(
            f"physical {rows * cols}\n" + "".join(f"edge {a} {b}\n" for a, b in edges), encoding="utf-8"
        )
        self.graph = topology.load_topology(str(path))
        n16, n32 = (8, 4) if self.smoke else (64, 32)
        codes8 = range(0, 256, 16) if self.smoke else range(256)
        self.weights = [qnn.weights_from_code(c, 8) for c in codes8]
        self.weights += [weights_with_flips(self.rng, 16, 1 + i % 8) for i in range(n16)]
        self.weights += [weights_with_flips(self.rng, 32, 2 + i % 4) for i in range(n32)]
        self.classes = dict(bench.COMPLEXITY_CLASSES)
        subset = self.rng.choice(len(self.weights), size=self.STATEVECTOR_SUBSET, replace=False)
        self.subset = set(subset.tolist())
        self.seen: dict[int, int] = {}
        self.cx_per_block: dict = {}
        self.kept: dict[int, tuple] = {}  # (weights, routed circuit) per op of the subset

    def warm_up(self):
        mapper.compile(bench.complexity_circuit(self.classes["complex"]), self.graph)

    def ops(self):
        ops = [
            (f"w{len(w)}", lambda w=w: mapper.compile(qnn.neuron_circuit(w), self.graph))
            for w in self.weights
        ]
        ops += [
            (name, lambda b=b: mapper.compile(bench.complexity_circuit(b), self.graph))
            for name, b in self.classes.items()
        ]
        return ops

    def _check_routed(self, circuit, m) -> str | None:
        for g in m.physical_gates:
            if len(g.qubits) > 2 or (len(g.qubits) == 2 and frozenset(g.qubits) not in self.edges):
                return f"gate {g.kind.value} {g.qubits} is not on a device edge"
        if len(m.block_boundaries) != len(circuit.block_boundaries or ()):
            return "block count changed by routing"
        start = list(m.initial_mapping.physical)
        ends = {hi for _, hi in m.block_boundaries}
        current = list(start)
        for i, g in enumerate(m.physical_gates):
            if g.kind.value == "swap":
                a, b = g.qubits
                current = [b if p == a else a if p == b else p for p in current]
            if i + 1 in ends and current != start:
                return f"mapping after gate {i} differs from the initial mapping"
        if current != start or list(m.final_mapping.physical) != start:
            return "final mapping differs from the initial mapping"
        if any(list(bm.physical) != start for bm in m.block_mappings):
            return "a block-boundary mapping differs from the initial mapping"
        swaps = sum(g.kind.value == "swap" for g in m.physical_gates)
        bridge_cx = sum(g.tag == "bridge" for g in m.physical_gates)
        if m.stats.extra_cx != 3 * swaps + 3 * bridge_cx // 4:
            return f"extra_cx {m.stats.extra_cx} disagrees with the routed gates"
        # extra_cx must be one constant per register shape times the block count
        blocks = sum(g.kind.value == "cnz" for g in circuit.gates)
        if blocks:
            shape = (circuit.num_computing, circuit.num_aux)
            ratio = self.cx_per_block.setdefault(shape, m.stats.extra_cx / blocks)
            if m.stats.extra_cx != ratio * blocks:
                return f"extra_cx {m.stats.extra_cx} is not {ratio} x {blocks} blocks"
        return None

    def check_op(self, op, index, m):
        key = hash((m.physical_gates, m.initial_mapping))
        if index in self.seen:  # checked in full once; later rounds must repeat it
            return None if self.seen[index] == key else "compile output differs from the first round"
        self.seen[index] = key
        if index < len(self.weights):
            w = self.weights[index]
            if index in self.subset:
                self.kept[op] = (w, m)
            return self._check_routed(qnn.neuron_circuit(w), m)
        blocks = list(self.classes.values())[index - len(self.weights)]
        return self._check_routed(bench.complexity_circuit(blocks), m)

    def check_reference(self):
        failed = {}
        for op, (w, m) in self.kept.items():
            xs = unit_rows(self.rng, 2, len(w))
            err = float(np.max(np.abs(from_routed(m).ideal_zero_probabilities(xs) - closed_form(w, xs))))
            if err > 1e-9:
                failed[op] = f"w{len(w)}: routed circuit output off the closed form by {err:.3g}"
        return failed


class EvalWide(Workload):
    """`trainer.Evaluator.neuron_outputs` of sparse 32-entry neurons (8 qubits wide)
    under the density and the trajectory backend."""

    name = "eval-wide"
    NOISE = "flip:0.01,phase:0.01"
    BACKENDS = ("density", "trajectories")

    def prepare(self):
        n_inputs, n_weights, flips = (1, 1, 1) if self.smoke else (2, 2, 2)
        self.shots = 8 if self.smoke else 128
        self.xs = unit_rows(self.rng, n_inputs, 32)
        self.weights = [weights_with_flips(self.rng, 32, flips) for _ in range(n_weights)]
        self.graph = topology.load_topology("chain:8")
        self.noise = noise.load_noise(self.NOISE)
        self.dataset = self._dataset(self.xs)
        self.reference = ReferenceOutputs(self.xs, self.graph, self.noise)
        self.kept: dict[int, tuple[int, np.ndarray]] = {}  # (op index, outputs) per op

    @staticmethod
    def _dataset(xs):
        return qnn.Dataset(tuple((tuple(float(v) for v in x), i % 2) for i, x in enumerate(xs)), 0)

    def _config(self, w, backend, dataset, shots):
        return trainer.TrainConfig(
            strategy="random_search", max_iters=1, seed=self.seed, backend=backend,
            noise=self.noise, initial=qnn.Model((w,)), dataset=dataset, graph=self.graph,
            shots=shots if backend == "trajectories" else 0, threads=1,
        )

    def _evaluate(self, w, backend, dataset, shots):
        return trainer.Evaluator(self._config(w, backend, dataset, shots)).neuron_outputs(w).copy()

    def warm_up(self):
        w = weights_with_flips(np.random.default_rng(0), 32, 1)
        dataset = self._dataset(self.xs[:1])
        for backend in self.BACKENDS:
            self._evaluate(w, backend, dataset, 8)

    def ops(self):
        return [
            (f"{backend}-w{i}", lambda w=w, b=backend: self._evaluate(w, b, self.dataset, self.shots))
            for i, w in enumerate(self.weights)
            for backend in self.BACKENDS
        ]

    def check_op(self, op, index, out):
        self.kept[op] = (index, out)
        return None if out.shape == (len(self.xs),) else f"{out.shape} outputs for {len(self.xs)} inputs"

    def _reference_failure(self, index, out) -> str | None:
        w, backend = self.weights[index // 2], self.BACKENDS[index % 2]
        exact = self.reference(w)
        if backend == "density":
            err = float(np.max(np.abs(out - exact)))
            return None if err <= 1e-9 else f"density output off the reference by {err:.3g}"
        z = float(np.max(np.abs(out - exact) / shot_sigma(exact, self.shots)))
        return None if z <= 5.0 else f"trajectory estimate {z:.1f} sigma off the reference"

    def check_reference(self):
        failed = {op: self._reference_failure(index, out) for op, (index, out) in self.kept.items()}
        return {op: msg for op, msg in failed.items() if msg}


WORKLOADS = {w.name: w for w in (TrainDensity, InferTraj, CompileGrid, EvalWide)}
