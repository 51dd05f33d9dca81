"""Error-aware weight search: compile, bind, evaluate, keep the incumbent.

A proposal's neurons are built as circuits, routed with the fixed-mapping
compiler, bound to the noise model and evaluated on the chosen backend.
The compiler restores the canonical mapping after every block, so every
routed block is the same body between layers of single-qubit X gates: the
evaluator compiles, binds and plans one probe neuron per run, assembles every
neuron from the probe's routed gates, and pulls the effect of each common
suffix of blocks back once, for a whole batch of neurons at a time when the
exhaustive strategy scans. Results are cached by weight vector, and the
baseline model is always the first incumbent, so the reported best can never
fall below it. The search log is kept as columns of weight codes and
accuracies and read back as entries on demand.

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
    neuron_circuit,
    scan_blocks,
    score_run,
    weights_from_code,
)
from .simulator import MappedPlan, derive_seed, plan_mapped_run, pull_back, readout_effect
from .topology import CouplingGraph, linear_chain

STRATEGIES = ("exhaustive", "hill_climb", "random_search")
# Effects an evaluator keeps for shared suffixes: at most this many bytes.
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
    # routed neurons evaluated, their gates, their bound events, the gate
    # steps the evaluator applied (gates minus those of stored suffixes it
    # reused), and its pull_back calls (`Evaluator._walk`)
    work: dict[str, int]
    columns: LogColumns = field(repr=False, compare=False)

    @functools.cached_property
    def log(self) -> tuple[LogEntry, ...]:
        n = self.best.input_length
        weights = functools.cache(lambda c: weights_from_code(c, n))
        cols = self.columns
        elapsed = np.repeat(cols.block_ms, cols.block_sizes).tolist()
        return tuple(_entries(0, cols.codes, cols.accuracy, elapsed, weights))


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a` as a contiguous array that refuses writes."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _spans(boundaries, end: int) -> list[tuple[int, int]]:
    """A neuron's segments: its blocks, which run back to back from gate 0,
    then the H-layer tail up to `end`."""
    return [*boundaries, (boundaries[-1][1] if boundaries else 0, end)]


class Evaluator:
    """Caches per-neuron sample outputs by weight vector, with one table of
    routed segments and one store of pulled-back suffix effects per run.

    The run compiles, binds and plans one probe neuron, entry 0 flipped, and
    slices its plan into one piece per logical gate: one routed gate per X
    and H, the whole routed body for the C^(k-1)Z block (MappingNotCanonical
    if that block does not restore the mapping). A segment is one block of a
    neuron circuit (or its H-layer tail); the table maps each logical segment
    to an id and its routed gates and bound events on dense axes, put
    together from its gates' pieces. The exact backends pull the all-zeros
    effect back one segment at a time, last first, and keep the effect of
    each suffix of segment ids, so neurons that end in the same segments pull
    that suffix back once; `neuron_rows` walks a batch of neurons together
    (see `_walk`) and `neuron_outputs` is a batch of one. The trajectory
    backend scores one neuron at a time.

    The trajectory seed for a (weight, sample) pair is fixed by the config
    seed, so the search optimizes a deterministic surrogate instead of chasing
    sampling noise, and cached values equal fresh re-evaluations.
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        n = cfg.initial.input_length
        # entry 0 flipped: X on every computing qubit, the one block, X again, the H tail
        probe = neuron_circuit(weights_from_code(1 << (n - 1), n))
        self.graph = cfg.graph if cfg.graph is not None else linear_chain(probe.width)
        self.xs = cfg.dataset.inputs()
        self.labels = cfg.dataset.labels()
        self._outputs: dict[tuple[int, ...], np.ndarray] = {}
        self.phase_seconds = {"circ": 0.0, "map": 0.0, "bind": 0.0, "infer": 0.0}
        self.work = {"neurons": 0, "gates": 0, "events": 0, "steps": 0, "walks": 0}
        mapped = self._timed("map", lambda: compile(probe, self.graph))
        if mapped.block_mappings != (mapped.initial_mapping,):
            raise MappingNotCanonical("the routed block does not restore the initial mapping")
        bound = None if cfg.backend == "ideal" else self._timed("bind", lambda: bind(cfg.noise, mapped))
        # the probe's plan; its frame (width, axes, readout) serves every assembled one
        self._frame = plan = plan_mapped_run(mapped, bound)
        events = ((),) * len(plan.gates) if plan.bound is None else plan.bound.events
        # logical gate -> (dense routed gates, their dense events): one gate per
        # X and H, the whole routed body for the block (the probe's gate k)
        self._pieces: dict[Gate, tuple[tuple, tuple]] = {}
        body, lo = len(plan.gates) - len(probe.gates) + 1, 0
        for i, g in enumerate(probe.gates):
            hi = lo + (body if i == probe.num_computing else 1)
            self._pieces[g] = (plan.gates[lo:hi], events[lo:hi])
            lo = hi
        # logical segment gates -> (id, dense routed gates, their dense events)
        self._segments: dict[tuple, tuple[int, tuple, tuple]] = {}
        # suffix of segment ids -> its pulled-back effect, and their bytes
        self._effects: dict[tuple[int, ...], np.ndarray] = {}
        self._effect_bytes = 0

    def _timed(self, phase: str, fn):
        t0 = time.perf_counter()
        out = fn()
        self.phase_seconds[phase] += time.perf_counter() - t0
        return out

    def _parts(self, w: tuple[int, ...]) -> list[tuple[int, tuple, tuple]]:
        """Neuron `w`'s segment table entries in gate order; a segment the
        table lacks is put together from the pieces of its gates."""
        circ = self._timed("circ", lambda: neuron_circuit(w))
        segs = [circ.gates[lo:hi] for lo, hi in _spans(circ.block_boundaries, len(circ.gates))]
        for seg in segs:
            if seg not in self._segments:
                gates, events = zip(*(self._pieces[g] for g in seg))
                self._segments[seg] = (len(self._segments), sum(gates, ()), sum(events, ()))
        return [self._segments[seg] for seg in segs]

    def _assemble(self, parts) -> MappedPlan:
        frame = self._frame
        bound = frame.bound
        if bound is not None:
            bound = replace(bound, events=tuple(e for _, _, events in parts for e in events))
        return replace(frame, gates=tuple(g for _, gates, _ in parts for g in gates), bound=bound)

    def plan(self, w: tuple[int, ...]) -> MappedPlan:
        """Neuron `w`'s dense plan, assembled from the segment table."""
        return self._assemble(self._parts(w))

    def _walk(self, batch):
        """Yield (i, effect) for the neuron made of `batch[i]`'s parts once
        its effect is pulled back: the Pauli coefficients of its
        readout-folded all-zeros effect (simulator.zero_effect), contiguous
        and read-only, so neurons of one suffix may share the array.

        Goes through the trie of suffixes of segment ids, shortest first. A
        neuron continues from the longest suffix the store holds; each
        distinct suffix past those is pulled back once, and all that lead
        with one segment go through it stacked on a trailing axis, in one
        `pull_back` call, from the previous length's effects, else from the
        store, else from the readout effect. Each new effect is stored while
        the store stays within _SUFFIX_CACHE_BYTES; the others live only
        until the next suffix length is walked, and the batch is split so
        that the effects of one suffix length stay within the cap too."""
        frame = self._frame
        top = readout_effect(frame.n, frame.bound, frame.measured)
        per = max(1, _SUFFIX_CACHE_BYTES // top.nbytes)
        for lo in range(0, len(batch), per):
            pending: dict[int, dict] = {}  # by length, each suffix to walk -> its leading part
            ends: dict[tuple[int, ...], list[int]] = {}  # neurons, by their whole suffix
            for i, parts in enumerate(batch[lo:lo + per], lo):
                ids = tuple(seg for seg, _, _ in parts)
                j = len(ids)
                while j and ids[j - 1:] in self._effects:
                    j -= 1
                if j == 0:
                    yield i, self._effects[ids]
                    continue
                for k in range(j):
                    pending.setdefault(len(ids) - k, {})[ids[k:]] = parts[k]
                ends.setdefault(ids, []).append(i)
            walked: dict[tuple[int, ...], np.ndarray] = {}  # unstored, at the previous length
            for length in sorted(pending):
                groups: dict[int, tuple[tuple, list]] = {}  # by leading segment id
                for s, part in pending[length].items():
                    groups.setdefault(part[0], (part, []))[1].append(s)
                walked, prev = {}, walked
                for (_, gates, events), suffixes in groups.values():
                    stack = np.stack([prev[s[1:]] if s[1:] in prev else self._effects.get(s[1:], top)
                                      for s in suffixes], -1)
                    out = pull_back(stack, gates, events)
                    self.work["walks"] += 1
                    self.work["steps"] += len(gates) * len(suffixes)
                    for k, s in enumerate(suffixes):
                        if self._effect_bytes + top.nbytes <= _SUFFIX_CACHE_BYTES:
                            eff = self._effects[s] = _read_only(out[..., k])
                            self._effect_bytes += top.nbytes
                        else:
                            eff = walked[s] = out[..., k]
                        for i in ends.get(s, ()):
                            yield i, _read_only(eff)

    def _score(self, ws: list[tuple[int, ...]]) -> None:
        """Score neurons `ws`, none of them cached, into the cache: the exact
        backends in one walk, the trajectory backend one neuron at a time."""
        cfg = self.cfg
        batch = [self._parts(w) for w in ws]
        gates = sum(len(g) for parts in batch for _, g, _ in parts)
        self.work["neurons"] += len(batch)
        self.work["gates"] += gates
        self.work["events"] += sum(len(e) for parts in batch for _, _, events in parts for e in events)
        if cfg.backend == "trajectories":  # no shared suffixes: every gate is a step
            self.work["steps"] += gates
            rows = ((i, score_run(ws[i], self._assemble(parts), self.xs, cfg.backend, cfg.shots,
                                  cfg.seed, threads=cfg.threads)) for i, parts in enumerate(batch))
        else:
            rows = ((i, effect_outputs(eff, self._frame, self.xs)) for i, eff in self._walk(batch))
        self._timed("infer", lambda: self._outputs.update((ws[i], row) for i, row in rows))

    def neuron_rows(self, ws) -> np.ndarray:
        """The outputs of each neuron of `ws` over the samples, stacked: shape
        (len(ws), samples). The distinct neurons not cached yet are scored
        together, on the exact backends in one walk (`_walk`)."""
        new = [w for w in dict.fromkeys(ws) if w not in self._outputs]
        if new:
            self._score(new)
        return np.array([self._outputs[w] for w in ws])

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
