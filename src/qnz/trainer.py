"""Error-aware weight search: compile, bind, evaluate, keep the incumbent.

Every proposal goes through the full pipeline per distinct neuron weight:
build the circuit, route it with the fixed-mapping compiler, bind the noise
model to the routed gates, then evaluate on the chosen backend. Results are
cached by weight vector, and the baseline model is always the first incumbent,
so the reported best can never fall below it.

Search strategies stand in for a learned controller behind one interface:
exhaustive enumeration (the oracle for small spaces), first-improvement hill
climbing with random restarts, and uniform random search.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .mapper import compile
from .noise import NoiseModel
from .qnn import (
    BACKENDS,
    EXHAUSTIVE_SPACE_CAP,
    Dataset,
    Model,
    neuron_circuit,
    neuron_outputs,
    weights_from_code,
)
from .simulator import derive_seed
from .topology import CouplingGraph, linear_chain

STRATEGIES = ("exhaustive", "hill_climb", "random_search")


@dataclass(frozen=True)
class TrainConfig:
    strategy: str
    max_iters: int
    seed: int
    backend: str
    noise: NoiseModel
    initial: Model
    dataset: Dataset
    graph: CouplingGraph | None = None
    shots: int = 0
    patience: int = 64
    threads: int = 1

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "trajectories" and self.shots < 1:
            raise ValueError("trajectories backend needs shots >= 1")
        if self.strategy == "exhaustive" and self.space_size() > EXHAUSTIVE_SPACE_CAP:
            raise ValueError(
                f"exhaustive search over {self.space_size()} points exceeds the "
                f"{EXHAUSTIVE_SPACE_CAP} cap"
            )
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def space_size(self) -> int:
        return (2 ** self.initial.input_length) ** len(self.initial.neurons)


@dataclass(frozen=True)
class LogEntry:
    iteration: int
    weights: tuple[tuple[int, ...], ...]
    accuracy: float
    elapsed_ms: float


@dataclass(frozen=True)
class TrainResult:
    best: Model
    best_accuracy: float
    baseline_accuracy: float
    log: tuple[LogEntry, ...]
    phase_seconds: dict[str, float]
    evaluations: int
    cache_hits: int
    work: dict[str, int]  # routed neurons evaluated, their gates and bound events


class Evaluator:
    """Caches per-neuron sample outputs and whole-model accuracies.

    The trajectory seed for a (weight, sample) pair is fixed by the config
    seed, so the search optimizes a deterministic surrogate instead of chasing
    sampling noise, and cached values equal fresh re-evaluations.
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        c = neuron_circuit(cfg.initial.neurons[0])
        self.graph = cfg.graph if cfg.graph is not None else linear_chain(c.width)
        self.xs = cfg.dataset.inputs()
        self.labels = cfg.dataset.labels()
        self._outputs: dict[tuple[int, ...], np.ndarray] = {}
        self._accuracy: dict[tuple[tuple[int, ...], ...], float] = {}
        self.cache_hits = 0
        self.phase_seconds = {"circ": 0.0, "map": 0.0, "bind": 0.0, "infer": 0.0}
        self.work = {"neurons": 0, "gates": 0, "events": 0}

    def _timed(self, phase: str, fn):
        t0 = time.perf_counter()
        out = fn()
        self.phase_seconds[phase] += time.perf_counter() - t0
        if phase == "bind":
            self.work["events"] += out.total_events
        return out

    def neuron_outputs(self, w: tuple[int, ...]) -> np.ndarray:
        cached = self._outputs.get(w)
        if cached is not None:
            return cached
        cfg = self.cfg
        circ = self._timed("circ", lambda: neuron_circuit(w))
        mapped = self._timed("map", lambda: compile(circ, self.graph))
        out = neuron_outputs(
            w, mapped, self.xs, cfg.backend, cfg.noise, cfg.shots, cfg.seed,
            cfg.threads, timed=self._timed,
        )
        self.work["neurons"] += 1
        self.work["gates"] += len(mapped.physical_gates)
        self._outputs[w] = out
        return out

    def model_accuracy(self, m: Model) -> float:
        key = m.neurons
        cached = self._accuracy.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        preds = m.predict_from_outputs([self.neuron_outputs(w) for w in m.neurons])
        acc = float(np.mean(preds == self.labels))
        self._accuracy[key] = acc
        return acc


def _proposals_exhaustive(cfg: TrainConfig):
    n = cfg.initial.input_length
    n_neurons = len(cfg.initial.neurons)
    table = [weights_from_code(c, n) for c in range(2**n)]
    codes = [0] * n_neurons
    for flat in range(cfg.space_size()):
        v = flat
        for j in range(n_neurons - 1, -1, -1):
            v, codes[j] = divmod(v, 2**n)
        yield Model(tuple(table[c] for c in codes))


def _random_model(rng: np.random.Generator, template: Model) -> Model:
    n = template.input_length
    return Model(
        tuple(weights_from_code(int(rng.integers(2**n)), n) for _ in template.neurons)
    )


def train(cfg: TrainConfig, log_stream=None) -> TrainResult:
    """Run the four-stage loop under the configured strategy.

    The evaluation log gets one entry per proposal; `log_stream`, when given,
    receives each entry as it happens. Exhaustive enumeration ignores the
    convergence patience (stopping early would forfeit the global argmax) but
    still respects max_iters.
    """
    ev = Evaluator(cfg)
    log: list[LogEntry] = []
    t_start = time.perf_counter()

    def evaluate(m: Model, iteration: int) -> float:
        acc = ev.model_accuracy(m)
        entry = LogEntry(
            iteration, m.neurons, acc, (time.perf_counter() - t_start) * 1e3
        )
        log.append(entry)
        if log_stream is not None:
            log_stream(entry)
        return acc

    baseline_acc = evaluate(cfg.initial, 0)
    best, best_acc = cfg.initial, baseline_acc
    iteration = 0
    since_improvement = 0
    use_patience = cfg.strategy != "exhaustive"

    def budget_left() -> bool:
        if iteration >= cfg.max_iters:
            return False
        if use_patience and since_improvement >= cfg.patience:
            return False
        return True

    def consider(m: Model) -> float:
        nonlocal iteration, best, best_acc, since_improvement
        iteration += 1
        acc = evaluate(m, iteration)
        if acc > best_acc:
            best, best_acc = m, acc
            since_improvement = 0
        else:
            since_improvement += 1
        return acc

    if cfg.strategy == "exhaustive":
        for m in _proposals_exhaustive(cfg):
            if not budget_left():
                break
            consider(m)
    elif cfg.strategy == "random_search":
        rng = np.random.default_rng(derive_seed(cfg.seed, 0x5EA2C4))
        while budget_left():
            consider(_random_model(rng, cfg.initial))
    else:  # hill_climb
        rng = np.random.default_rng(derive_seed(cfg.seed, 0xC1153))
        current, current_acc = cfg.initial, ev.model_accuracy(cfg.initial)
        n = cfg.initial.input_length
        while budget_left():
            improved = False
            for neuron_idx in range(len(current.neurons)):
                for entry_idx in range(n):
                    if not budget_left():
                        break
                    neurons = [list(w) for w in current.neurons]
                    neurons[neuron_idx][entry_idx] *= -1
                    cand = Model(tuple(tuple(w) for w in neurons))
                    acc = consider(cand)
                    if acc > current_acc:
                        current, current_acc = cand, acc
                        improved = True
                        break
                if improved or not budget_left():
                    break
            if not improved:
                if not budget_left():
                    break
                # local optimum: restart from random weights, keep the incumbent
                current = _random_model(rng, cfg.initial)
                current_acc = consider(current)

    return TrainResult(
        best=best,
        best_accuracy=best_acc,
        baseline_accuracy=baseline_acc,
        log=tuple(log),
        phase_seconds=dict(ev.phase_seconds),
        evaluations=iteration + 1,
        cache_hits=ev.cache_hits,
        work=dict(ev.work),
    )


@dataclass(frozen=True)
class SweepRow:
    rate: float
    baseline_accuracy: float
    searched_accuracy: float
    weights: tuple[tuple[int, ...], ...]


def sweep(rates, cfg: TrainConfig, log_stream=None) -> list[SweepRow]:
    """Train at each error rate with flip and phase noise both set to it."""
    rows = []
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate {rate} outside [0, 1]")
        run_cfg = replace(cfg, noise=NoiseModel(flip_p=rate, phase_p=rate))
        result = train(run_cfg, log_stream=log_stream)
        rows.append(
            SweepRow(rate, result.baseline_accuracy, result.best_accuracy, result.best.neurons)
        )
    return rows


def sweep_rows_as_dicts(rows: list[SweepRow]) -> list[dict]:
    return [
        {
            "rate": r.rate,
            "baseline_accuracy": r.baseline_accuracy,
            "searched_accuracy": r.searched_accuracy,
            "weights": [list(w) for w in r.weights],
        }
        for r in rows
    ]


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = ["rate,baseline_accuracy,searched_accuracy,weights"]
    for r in rows:
        weights = ";".join(" ".join(str(v) for v in w) for w in r.weights)
        lines.append(f"{r.rate},{r.baseline_accuracy},{r.searched_accuracy},\"{weights}\"")
    return "\n".join(lines) + "\n"
