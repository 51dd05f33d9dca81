"""Error-aware weight search: compile, bind, evaluate, keep the incumbent.

A proposal's neurons are routed with the fixed-mapping compiler, bound to the
noise model and evaluated on the chosen backend. The compiler restores the
canonical mapping after every block, so a neuron is its flip list: the
evaluator compiles, binds and plans one probe neuron per run and scores every
neuron from the probe's routed pieces, on the exact backends from a memoized
suffix half and, for a batch, prefix tables of the inputs. Rows are cached by
flip list, and the baseline model is always the first incumbent, so the
reported best can never fall below it. The search log is kept as columns of
weight codes and accuracies and read back as entries on demand.

Search strategies stand in for a learned controller behind one interface:
exhaustive enumeration (the oracle for small spaces), first-improvement hill
climbing with random restarts, and uniform random search.
"""
from __future__ import annotations

import bisect
import functools
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain, groupby
from typing import NamedTuple

import numpy as np

from .ir import Gate
from .mapper import MappingNotCanonical, compile
from .noise import NoiseModel, bind
from .qnn import (
    BACKENDS,
    EXHAUSTIVE_SPACE_CAP,
    Dataset,
    Model,
    accuracies,
    check_fits,
    code_from_weights,
    effect_outputs,
    flip_list,
    neuron_circuit,
    scan_blocks,
    score_run,
    weights_from_code,
    x_layer,
)
from .simulator import (
    MappedPlan,
    density_coeffs,
    derive_seed,
    plan_mapped_run,
    pull_back,
    push_forward,
    readout_effect,
)
from .topology import CouplingGraph, linear_chain

STRATEGIES = ("exhaustive", "hill_climb", "random_search")
# An evaluator's byte budget: for its memo of suffix halves, and for the
# prefix tables of one batch.
_SUFFIX_CACHE_BYTES = 1 << 26


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


class _Piece(NamedTuple):
    """Dense routed gates, the events bound to each, and how many events."""

    gates: tuple[Gate, ...]
    events: tuple
    n_events: int


def _piece(gates, events) -> _Piece:
    events = tuple(events)
    return _Piece(tuple(gates), events, sum(map(len, events)))


def _cat(pieces) -> _Piece:
    """Routed pieces back to back."""
    pieces = list(pieces)
    return _piece((g for p in pieces for g in p.gates), (e for p in pieces for e in p.events))


class Evaluator:
    """Caches per-neuron sample outputs. A neuron is its flip list
    (`flip_list`), and its exact outputs come from two memoized halves.

    The run compiles, binds and plans one probe neuron, entry 0 flipped, and
    slices its plan into the routed X gate of each logical qubit, the routed
    C^(k-1)Z body (MappingNotCanonical if it moves the mapping) and the H
    tail. Flip list f is the X layer before f[0] (`x_layer`), per flip the
    body and the X layer to the next flip, then the tail: `plan`, which the
    trajectory backend runs whole, one neuron at a time.

    The suffix half S(t) is the readout-folded all-zeros effect pulled back
    through the tail and the blocks of flips t, down to the body of t[0]:
    S(t[1:]) pulled back through the X layer between t[0] and t[1], then the
    body. A neuron scored alone is S(f) pulled back through its first X
    layer, the plain adjoint pass. A batch of B neurons is split at entry
    s = floor(log2(B) / 2), lowered until 2^s prefix tables fit
    _SUFFIX_CACHE_BYTES: the prefix half R(p) is every input's rho pushed
    forward through the blocks of the flips p below s. The neurons of one
    prefix and one first suffix flip are then one matrix product of stacked
    suffixes with R(p), through the X layer between them, which is diagonal
    in the Pauli basis (`_diagonal`). A batch builds its missing halves one
    length per pass through the body (`_halves`), the suffixes into a memo
    within the same budget; a suffix past it is rebuilt wherever it is used.

    The trajectory seed for a (weight, sample) pair is fixed by the config
    seed, so the search optimizes a deterministic surrogate instead of chasing
    sampling noise, and cached values equal fresh re-evaluations.
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        n = cfg.initial.input_length
        self.k = k = n.bit_length() - 1
        # entry 0 flipped: X on every computing qubit, the body, X again, the H tail
        probe = neuron_circuit(weights_from_code(1 << (n - 1), n))
        self.graph = cfg.graph if cfg.graph is not None else linear_chain(probe.width)
        self.xs = cfg.dataset.inputs()
        self.labels = cfg.dataset.labels()
        self._flip_of: dict[tuple[int, ...], tuple[int, ...]] = {}  # each w counted in `work` -> flip list
        self._rows: dict[tuple[int, ...], np.ndarray] = {}  # by flip list, over the samples
        self.phase_seconds = {"circ": 0.0, "map": 0.0, "bind": 0.0, "infer": 0.0}
        self.work = {"neurons": 0, "gates": 0, "events": 0, "steps": 0, "walks": 0}
        mapped = self._timed("map", lambda: compile(probe, self.graph))
        if mapped.block_mappings != (mapped.initial_mapping,):
            raise MappingNotCanonical("the routed block does not restore the initial mapping")
        bound = None if cfg.backend == "ideal" else self._timed("bind", lambda: bind(cfg.noise, mapped))
        # the probe's plan; its frame (width, axes, readout) serves every neuron
        self._frame = plan = plan_mapped_run(mapped, bound)
        events = ((),) * len(plan.gates) if plan.bound is None else plan.bound.events
        end = len(plan.gates)  # each X and H is one routed gate
        self._x = [_piece(plan.gates[q:q + 1], events[q:q + 1]) for q in range(k)]
        self._body = _piece(plan.gates[k:end - 2 * k], events[k:end - 2 * k])
        self._tail = _piece(plan.gates[end - k:], events[end - k:])
        self._layers: dict[tuple, _Piece] = {}  # (a, b) -> the X layer between flips a and b
        self._suffixes: dict[tuple[int, ...], np.ndarray] = {}  # the memo: t -> S(t)
        self._diagonals: dict[tuple, np.ndarray] = {}  # (a, b) -> _diagonal(a, b)

    def _timed(self, phase: str, fn):
        t0 = time.perf_counter()
        out = fn()
        self.phase_seconds[phase] += time.perf_counter() - t0
        return out

    def _layer(self, a: int | None, b: int | None) -> _Piece:
        """The routed X layer between the blocks of flips a and b (`x_layer`)."""
        if (a, b) not in self._layers:
            self._layers[a, b] = _cat(self._x[q] for q in x_layer(a, b, self.k))
        return self._layers[a, b]

    def plan(self, w: tuple[int, ...]) -> MappedPlan:
        """Neuron `w`'s dense plan, its flip list's pieces put together in gate order."""
        f, frame = flip_list(w), self._frame
        whole = _cat([x for a, b in zip((None,) + f, f) for x in (self._layer(a, b), self._body)]
                     + [self._layer(*((None,) + f)[-1:], None), self._tail])
        bound = None if frame.bound is None else replace(frame.bound, events=whole.events)
        return replace(frame, gates=whole.gates, bound=bound)

    def _pass(self, run, coeffs: np.ndarray, piece: _Piece) -> np.ndarray:
        """`run` (pull_back or push_forward) of `coeffs` through `piece`, counted."""
        self.work["walks"] += 1
        self.work["steps"] += len(piece.gates)
        return run(coeffs, piece.gates, piece.events)

    def _suffix(self, t: tuple[int, ...]) -> np.ndarray:
        """S(t), contiguous and read-only. It is stored while the memo stays
        within _SUFFIX_CACHE_BYTES, and rebuilt from S(t[1:]) otherwise."""
        eff = self._suffixes.get(t)
        if eff is not None:
            return eff
        if t:
            piece = _cat([self._body, self._layer(*(t + (None,))[:2])])
            eff = self._pass(pull_back, np.array(self._suffix(t[1:])), piece)
        else:
            frame = self._frame
            eff = self._pass(pull_back, readout_effect(frame.n, frame.bound, frame.measured), self._tail)
        eff.flags.writeable = False  # pull_back hands back a contiguous array
        if (len(self._suffixes) + 1) * eff.nbytes <= _SUFFIX_CACHE_BYTES:  # every S(t) has one size
            self._suffixes[t] = eff
        return eff

    def _halves(self, run, keys, layer, source):
        """`run` (pull_back or push_forward) of halves `keys`, one length per
        body pass: each group with one X layer `layer(key)` stacks its
        `source(key)` on a trailing axis through it, then one pass takes them
        all through the body. Yields (key, half), shortest first."""
        for _, level in groupby(sorted(keys, key=len), key=len):
            groups: dict = {}
            for key in level:
                groups.setdefault(layer(key), []).append(key)
            out = self._pass(run, np.concatenate([  # the groups' stacks go once joined
                self._pass(run, np.stack([source(q) for q in g], axis=-1), self._layer(*ab))
                for ab, g in groups.items()], axis=-1), self._body)
            yield from zip([q for g in groups.values() for q in g], np.moveaxis(out, -1, 0))

    def _diagonal(self, a: int | None, b: int | None) -> np.ndarray:
        """The X layer between flips a and b as the factor it puts on each
        Pauli coefficient: X negates Y and Z, and bound channels scale."""
        if (a, b) not in self._diagonals:
            self._diagonals[a, b] = pull_back(np.ones((4,) * self._frame.n), *self._layer(a, b)[:2])
        return self._diagonals[a, b]

    def _exact_rows(self, flips: list[tuple[int, ...]], batch: int) -> np.ndarray:
        """Outputs of distinct flip lists `flips`, (len(flips), samples), as a batch of `batch`."""
        frame, xs, n = self._frame, self.xs, self._frame.n
        s = (batch.bit_length() - 1) // 2
        while s and (8 * 4**n * len(xs)) << s > _SUFFIX_CACHE_BYTES:
            s -= 1
        if s == 0:
            return np.array([effect_outputs(
                self._pass(pull_back, np.array(self._suffix(f)), self._layer(None, f[0] if f else None)),
                frame, xs,
            ) for f in flips])
        groups: dict = {}  # (prefix, first suffix flip) -> [(suffix, row)]
        for i, f in enumerate(flips):
            j = bisect.bisect_left(f, s)
            groups.setdefault((f[:j], f[j] if j < len(f) else None), []).append((f[j:], i))
        tables = {(): density_coeffs([frame.embed(x) for x in xs], n)}
        tables.update(self._halves(  # R(p) from R(p[:-1]), each stored as it is yielded
            push_forward, {p[:h] for p, _ in groups for h in range(1, len(p) + 1)},
            lambda p: ((None,) + p)[-2:], lambda p: tables[p[:-1]]))
        # the missing suffixes, shortest first, as far as the memo's budget goes
        need = {q[i:] for group in groups.values() for q, _ in group for i in range(len(q))}
        need = sorted(need - self._suffixes.keys(), key=len)
        room = _SUFFIX_CACHE_BYTES // self._suffix(()).nbytes - len(self._suffixes)
        for t, eff in self._halves(
            pull_back, need[:max(room, 0)], lambda t: (t + (None,))[:2], lambda t: self._suffix(t[1:]),
        ):
            self._suffixes[t] = eff = np.ascontiguousarray(eff)
            eff.flags.writeable = False
        rows = np.empty((len(flips), len(xs)))
        per = max(1, _SUFFIX_CACHE_BYTES // (8 * 4**n))  # suffixes stacked at once
        for (p, b), group in groups.items():
            half = tables[p] * self._diagonal(p[-1] if p else None, b)[..., None]
            for lo in range(0, len(group), per):
                suffixes, idx = zip(*group[lo:lo + per])
                stack = np.stack([self._suffix(q) for q in suffixes]).reshape(len(idx), -1)
                rows[list(idx)] = stack @ half.reshape(len(stack[0]), -1)
        return rows * 2.0**n

    def _score(self, ws: list[tuple[int, ...]]) -> None:
        """Count neurons `ws`, none seen before (X layers, a body per flip, the
        tail), and score their flip lists with no row yet; w and -w share one."""
        cfg = self.cfg
        flips = self._timed("circ", lambda: list(map(flip_list, ws)))
        layers = Counter(chain.from_iterable(zip((None,) + f, f + (None,)) for f in flips))
        counted = [(self._tail, len(ws)), (self._body, sum(map(len, flips)))]
        counted += [(self._layer(*ab), c) for ab, c in layers.items()]
        self.work["gates"] += sum(c * len(p.gates) for p, c in counted)
        self.work["events"] += sum(c * p.n_events for p, c in counted)
        self.work["neurons"] += len(ws)
        self._flip_of.update(zip(ws, flips))
        new = {f: w for f, w in zip(flips, ws) if f not in self._rows}
        if cfg.backend == "trajectories":  # every gate is a step
            plans = self._timed("infer", lambda: {w: self.plan(w) for w in new.values()})
            self.work["steps"] += sum(len(p.gates) for p in plans.values())
            rows = self._timed("infer", lambda: [score_run(
                w, p, self.xs, cfg.backend, cfg.shots, cfg.seed, cfg.threads) for w, p in plans.items()])
        else:
            rows = self._timed("infer", lambda: self._exact_rows(list(new), len(ws)) if new else [])
        self._rows.update(zip(new, rows))

    def neuron_rows(self, ws) -> np.ndarray:
        """The outputs of each neuron of `ws` over the samples, stacked: shape
        (len(ws), samples). The neurons not seen yet are scored together."""
        new = [w for w in dict.fromkeys(ws) if w not in self._flip_of]
        if new:
            self._score(new)
        return np.array([self._rows[self._flip_of[w]] for w in ws])

    def neuron_outputs(self, w: tuple[int, ...]) -> np.ndarray:
        """Neuron `w`'s outputs over the samples: a batch of one."""
        return self.neuron_rows([w])[0]

    def model_accuracy(self, m: Model) -> float:
        return float(accuracies([self.neuron_outputs(w) for w in m.neurons], self.labels))


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
        acc = float(accuracies([ev.neuron_outputs(weights(c)) for c in codes], ev.labels))
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
            lambda codes: ev.neuron_rows([weights(c) for c in codes]),
            n, len(base), ev.labels, cfg.max_iters, (best_acc, best), on_block,
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
