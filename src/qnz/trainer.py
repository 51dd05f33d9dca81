"""Error-aware weight search: score proposals, keep the incumbent.

A proposal is one weight code per neuron, scored by `qnn.Evaluator` from
rows cached by flip code: the evaluator compiles, binds and plans one probe
neuron per run, the scorer of `qnz infer` too. The baseline model is always
the first incumbent, so the reported best can never fall below it. The
search log is kept as columns of weight codes and accuracies and read back
as entries on demand.

Search strategies stand in for a learned controller behind one interface:
exhaustive enumeration (the oracle for small spaces), first-improvement hill
climbing with random restarts, and uniform random search.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .qnn import (
    EXHAUSTIVE_SPACE_CAP, Evaluator, Model, Scoring, accuracies, check_fits, code_from_weights, scan_blocks,
    weights_from_code,
)
from .simulator import derive_seed

STRATEGIES = ("exhaustive", "hill_climb", "random_search")


@dataclass(frozen=True, kw_only=True)
class TrainConfig(Scoring):
    """A search: how its proposals are scored (`Scoring`), the strategy, its
    budget and seed, and the baseline model it starts from."""

    strategy: str
    max_iters: int
    seed: int = field()  # required: `field()` hides Scoring's default
    initial: Model
    patience: int = 64

    def __post_init__(self):
        super().__post_init__()
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "exhaustive" and self.space_size() > EXHAUSTIVE_SPACE_CAP:
            raise ValueError(
                f"exhaustive search over {self.space_size()} points exceeds the "
                f"{EXHAUSTIVE_SPACE_CAP} cap"
            )
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        check_fits(self.initial, self.dataset)

    def space_size(self) -> int:
        return (2 ** self.initial.input_length) ** len(self.initial.neurons)


class LogEntry(NamedTuple):
    """One scored proposal; entries scored in one block share elapsed_ms."""

    iteration: int
    weights: tuple[tuple[int, ...], ...]
    accuracy: float
    elapsed_ms: float


class LogColumns(NamedTuple):
    """A run's log as columns: the weight code of each neuron and the
    accuracy of every entry, and the size and elapsed_ms of every block of
    entries logged together."""

    codes: np.ndarray  # (entries, neurons)
    accuracy: np.ndarray  # (entries,)
    block_sizes: list[int]
    block_ms: list[float]


def _entries(first: int, codes: np.ndarray, accs: np.ndarray, elapsed_ms, weights):
    """Log entries numbered from `first`, one per row of `codes`."""
    for i, (row, acc, ms) in enumerate(zip(codes.tolist(), accs.tolist(), elapsed_ms), first):
        yield LogEntry(i, tuple(map(weights, row)), acc, ms)


@dataclass(frozen=True)
class TrainResult:
    """`cache_hits` counts log entries whose model was scored earlier in the
    run; `log` reads the entries back from `columns` on first use."""

    best: Model
    best_accuracy: float
    baseline_accuracy: float
    phase_seconds: dict[str, float]
    evaluations: int
    cache_hits: int
    # weight vectors scored, their routed gates and bound events; `steps`,
    # the gate steps the exact engine applied to suffix halves, prefix tables
    # and lone neurons' first X layers (every gate of a flip list run under
    # trajectories), and `walks`, its pull_back and push_forward passes
    work: dict[str, int]
    columns: LogColumns = field(repr=False, compare=False)

    @functools.cached_property
    def log(self) -> tuple[LogEntry, ...]:
        n = self.best.input_length
        weights = functools.cache(lambda c: weights_from_code(c, n))
        cols = self.columns
        elapsed = np.repeat(cols.block_ms, cols.block_sizes).tolist()
        return tuple(_entries(0, cols.codes, cols.accuracy, elapsed, weights))


def _flips(codes: tuple[int, ...], n: int):
    """Hill-climb neighbours: each entry of each neuron flipped, in order."""
    for j, c in enumerate(codes):
        for i in range(n):
            yield codes[:j] + (c ^ (1 << (n - 1 - i)),) + codes[j + 1 :]


def train(cfg: TrainConfig, log_stream=None) -> TrainResult:
    """Run the four-stage loop under the configured strategy.

    Proposals are tuples of weight codes (`weights_from_code`), one per
    neuron, scored from the evaluator's per-neuron output rows. The log is
    kept as columns, one block of entries at a time (`LogColumns`), and read
    back as one entry per proposal (`TrainResult.log`); `log_stream`, when
    given, receives each entry once its block is logged. Exhaustive
    enumeration scores every neuron it reaches in one batched call
    (`Evaluator.neuron_rows`), then scores a block of proposals at once
    (`scan_blocks`) and logs each block once it is scored, so its entries
    arrive once per block (a single neuron is one block of 2^N). It ignores
    the convergence patience (stopping early would forfeit the global argmax)
    but still respects max_iters. Hill climbing and random search score and
    log one proposal at a time.
    """
    ev = Evaluator(cfg)
    n = cfg.initial.input_length
    weights = functools.cache(lambda c: weights_from_code(c, n))
    code_type = np.uint64 if n <= 64 else object
    blocks: list[tuple[np.ndarray, np.ndarray, float]] = []  # (codes, accuracies, elapsed_ms)
    logged = 0
    t_start = time.perf_counter()

    def record(codes: np.ndarray, accs: np.ndarray) -> None:
        """Log a block: `codes` (entries, neurons) scored `accs`."""
        nonlocal logged
        elapsed = (time.perf_counter() - t_start) * 1e3
        if log_stream is not None:
            for entry in _entries(logged, codes, accs, [elapsed] * len(accs), weights):
                log_stream(entry)
        blocks.append((codes, accs, elapsed))
        logged += len(accs)

    def score(codes: tuple[int, ...]) -> float:
        acc = float(accuracies(ev.neuron_rows(codes), ev.labels))
        record(np.array([codes], dtype=code_type), np.array([acc]))
        return acc

    def on_block(prefix: tuple[int, ...], accs: np.ndarray) -> None:
        codes = np.empty((len(accs), len(prefix) + 1), dtype=code_type)
        codes[:, :-1] = prefix
        codes[:, -1] = np.arange(len(accs))
        record(codes, accs)

    base = tuple(code_from_weights(w) for w in cfg.initial.neurons)
    baseline_acc = score(base)
    best, best_acc = base, baseline_acc
    since_improvement = 0

    def budget_left() -> bool:
        return logged <= cfg.max_iters and since_improvement < cfg.patience

    def consider(codes: tuple[int, ...]) -> float:
        nonlocal best, best_acc, since_improvement
        acc = score(codes)
        if acc > best_acc:
            best, best_acc, since_improvement = codes, acc, 0
        else:
            since_improvement += 1
        return acc

    rng = np.random.default_rng(
        derive_seed(cfg.seed, 0xC1153 if cfg.strategy == "hill_climb" else 0x5EA2C4)
    )

    def draw() -> tuple[int, ...]:
        return tuple(int(rng.integers(2**n)) for _ in base)

    if cfg.strategy == "exhaustive":
        best_acc, best = scan_blocks(
            ev.neuron_rows, n, len(base), ev.labels, cfg.max_iters, (best_acc, best), on_block,
        )
    elif cfg.strategy == "random_search":
        while budget_left():
            consider(draw())
    else:  # hill_climb
        current, current_acc = base, baseline_acc
        while budget_left():
            for cand in _flips(current, n):
                if not budget_left():
                    break
                acc = consider(cand)
                if acc > current_acc:
                    current, current_acc = cand, acc
                    break
            else:
                if budget_left():
                    # local optimum: restart from random weights, keep the incumbent
                    current = draw()
                    current_acc = consider(current)

    codes = np.concatenate([c for c, _, _ in blocks])
    ordered = codes[np.lexsort(codes.T)]  # equal models side by side
    return TrainResult(
        best=cfg.initial if best == base else Model(tuple(map(weights, best))),
        best_accuracy=best_acc,
        baseline_accuracy=baseline_acc,
        phase_seconds=dict(ev.phase_seconds),
        evaluations=logged,
        cache_hits=int(np.count_nonzero((ordered[1:] == ordered[:-1]).all(axis=1))),
        work=dict(ev.work),
        columns=LogColumns(
            codes, np.concatenate([a for _, a, _ in blocks]),
            [len(a) for _, a, _ in blocks], [ms for _, _, ms in blocks],
        ),
    )


@dataclass(frozen=True)
class SweepRow:
    rate: float
    baseline_accuracy: float
    searched_accuracy: float
    weights: tuple[tuple[int, ...], ...]
    # the rate's TrainResult.work and phase_seconds
    work: dict[str, int] = field(default_factory=dict, compare=False)
    phase_seconds: dict[str, float] = field(default_factory=dict, compare=False)


def sweep(rates, cfg: TrainConfig, log_stream=None) -> list[SweepRow]:
    """Train at each error rate with the config's noise model, its flip and
    phase rates both set to the rate (depol, readout and per-qubit multipliers
    are kept)."""
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate {rate} outside [0, 1]")
    rows = []
    for rate in rates:
        run_cfg = replace(cfg, noise=replace(cfg.noise, flip_p=rate, phase_p=rate))
        result = train(run_cfg, log_stream=log_stream)
        rows.append(SweepRow(
            rate, result.baseline_accuracy, result.best_accuracy, result.best.neurons,
            result.work, result.phase_seconds,
        ))
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
