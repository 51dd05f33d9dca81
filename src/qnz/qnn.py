"""Binary-weight quantum neurons: sign-flip circuits, their scoring, synthetic data.

A weight vector w in {-1,+1}^(2^k) becomes a circuit whose unitary is diag(w)
up to global sign: one X-conjugated C^(k-1)Z block per flipped index, with
adjacent X wrappers merged. The neuron output is the probability of reading
|0...0> after amplitude-encoding the input, applying the weight circuit, and
a final H layer; in closed form that is ((w . x) / sqrt(N))^2.

State preparation is treated as a given initial state, so noise acts on the
weight and measurement portion only.
"""
from __future__ import annotations

import bisect
import functools
import time
from collections import Counter
from dataclasses import dataclass, replace
from importlib import resources
from itertools import chain, groupby

import numpy as np

from .ir import Circuit, Gate, GateKind
from .mapper import MappedCircuit, MappingNotCanonical, compile
from .noise import NoiseModel, bind
from .simulator import (
    MappedPlan, check_density_width, density_coeffs, derive_seed, effect_matrix, pauli_steps,
    plan_mapped_run, pull_back, push_forward, readout_effect, trajectory_counts, zero_effect,
)
from .topology import CouplingGraph, linear_chain

BACKENDS = ("ideal", "density", "trajectories")
# Exhaustive scans (weight tables, pair search) stop at 2^20 points.
EXHAUSTIVE_CAP_BITS = 20
EXHAUSTIVE_SPACE_CAP = 2**EXHAUSTIVE_CAP_BITS
_SCAN_CHUNK_BYTES = 1 << 20  # the booleans of one comparison in `scan_blocks`
# An evaluator's byte budget: for its memo of suffix halves, and for the
# prefix tables of one batch.
_SUFFIX_CACHE_BYTES = 1 << 26


def check_weights(w) -> tuple[int, ...]:
    w = tuple(int(v) for v in w)
    n = len(w)
    if n < 2 or n & (n - 1):
        raise ValueError(f"weight length {n} is not a power of two >= 2")
    if any(v not in (-1, 1) for v in w):
        raise ValueError("weights must be -1 or +1")
    return w


def weights_from_code(code: int, n: int) -> tuple[int, ...]:
    """Enumeration order used everywhere: bit i of `code` flips entry i."""
    return tuple(-1 if (code >> (n - 1 - i)) & 1 else 1 for i in range(n))


def code_from_weights(w) -> int:
    n = len(w)
    return sum(1 << (n - 1 - i) for i, v in enumerate(w) if v == -1)


def flip_code(code: int, n: int) -> int:
    """The code of the entries `circ_of_weights` flips for the n-entry weight
    code `code`: the code, or its complement if more than half its bits are
    set (the output ignores the global sign)."""
    return code ^ ((1 << n) - 1) if code.bit_count() > n // 2 else code


def _bit_entries(code: int, n: int) -> tuple[int, ...]:
    """The entries whose bits the n-entry code `code` sets, in order."""
    return tuple(i for i in range(n) if (code >> (n - 1 - i)) & 1)


def flip_list(w) -> tuple[int, ...]:
    """The entries `circ_of_weights` flips, in order: those of `flip_code`."""
    return _bit_entries(flip_code(code_from_weights(w), len(w)), len(w))


def x_layer(a: int | None, b: int | None, k: int) -> list[int]:
    """Qubits of the merged X layer between the blocks of flipped entries a
    and b (None: no block), in gate order. Each block is wrapped in X on the
    qubits where its index bit is 0, and adjacent X X cancels."""
    def wrapper(i):
        return set() if i is None else {q for q in range(k) if not (i >> (k - 1 - q)) & 1}

    return sorted(wrapper(a) ^ wrapper(b))


def circ_of_weights(w) -> Circuit:
    """Sign-flip circuit realizing diag(w) up to global sign.

    One block per entry of `flip_list(w)`, which bounds the block count at
    N/2: it flips one amplitude, X on the qubits where the index bit is 0
    around one C^(k-1)Z on all k qubits, with the X wrappers of consecutive
    blocks merged (`x_layer`). The last block also holds the trailing X layer.
    """
    w = check_weights(w)
    k = len(w).bit_length() - 1
    flips = flip_list(w)
    gates: list[Gate] = []
    boundaries: list[tuple[int, int]] = []
    for a, i, b in zip((None,) + flips, flips, flips[1:] + (None,)):
        start = len(gates)
        gates += [Gate(GateKind.X, (q,)) for q in x_layer(a, i, k)]
        gates.append(Gate(GateKind.Z, (0,)) if k == 1 else Gate(GateKind.CNZ, tuple(range(k))))
        if b is None:
            gates += [Gate(GateKind.X, (q,)) for q in x_layer(i, None, k)]
        boundaries.append((start, len(gates)))
    return Circuit(k, max(k - 2, 0), tuple(gates), block_boundaries=tuple(boundaries))


def neuron_circuit(w) -> Circuit:
    """Weight circuit followed by the H layer that turns the sum into P(0...0)."""
    base = circ_of_weights(w)
    k = base.num_computing
    h_layer = tuple(Gate(GateKind.H, (q,)) for q in range(k))
    return Circuit(k, base.num_aux, base.gates + h_layer, base.block_boundaries)


def neuron_output_ideal(w, x) -> float:
    """Closed form ((w . x) / sqrt(N))^2."""
    w = check_weights(w)
    x = np.asarray(x, dtype=float)
    if x.shape != (len(w),):
        raise ValueError(f"input length {x.shape} does not match weight length {len(w)}")
    return float(np.dot(w, x) / np.sqrt(len(w))) ** 2


@dataclass(frozen=True)
class Model:
    """One or two neurons sharing an input length.

    Two neurons: predict class 0 iff neuron 0's output >= neuron 1's (ties go
    to class 0). A single neuron thresholds its output at 0.5.
    """

    neurons: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not 1 <= len(self.neurons) <= 2:
            raise ValueError("model supports one or two neurons")
        lengths = {len(n) for n in self.neurons}
        if len(lengths) != 1:
            raise ValueError("all neurons must share the input length")
        for n in self.neurons:
            check_weights(n)

    @property
    def input_length(self) -> int:
        return len(self.neurons[0])

    @staticmethod
    def predict_from_outputs(outputs) -> np.ndarray:
        """Predicted classes from per-neuron outputs, each a scalar or an
        array over samples (arrays broadcast)."""
        return np.where(_class0(outputs), 0, 1)


def _class0(outputs) -> np.ndarray:
    """Model's rule as booleans: True where the prediction is class 0."""
    return outputs[0] >= (0.5 if len(outputs) == 1 else outputs[1])


def model(*neurons) -> Model:
    return Model(tuple(check_weights(n) for n in neurons))


def accuracies(outputs, labels) -> np.ndarray:
    """Fraction of correct predictions along the last axis, from one output
    array per neuron (arrays broadcast) under Model.predict_from_outputs' rule."""
    return (_class0(outputs) == np.equal(labels, 0)).mean(axis=-1)


def scan_blocks(rows, n: int, n_neurons: int, labels, limit: int, best=(-1.0, ()), on_block=None):
    """Score the first `limit` models in flat code order (the last neuron's
    code varies fastest) and return the first strict improvement on `best`,
    an (accuracy, code tuple) pair, which comes back unchanged if none beats it.

    One block per code prefix of the other neurons, scored in chunks of one
    comparison of at most _SCAN_CHUNK_BYTES booleans; `on_block(prefix, accs)`,
    when given, sees each block in order, accs[c] scoring the model prefix +
    (c,). `rows(codes)` stacks one neuron's outputs over the samples for each
    of `codes`; it is called once, with every code the scan reaches:
    range(min(2^n, limit)), which holds every code of every prefix too.
    """
    size = 2**n
    total = min(limit, size**n_neurons)
    table = rows(range(min(size, total)))
    step = max(1, _SCAN_CHUNK_BYTES // table.size) * size  # the codes of one chunk's blocks
    for lo in range(0, total, step):
        chunk = range(lo, min(total, lo + step), size)
        prefixes = [tuple(s // size ** (n_neurons - 1 - j) % size for j in range(n_neurons - 1))
                    for s in chunk]
        heads = [table[[p[j] for p in prefixes], None] for j in range(n_neurons - 1)]
        for start, prefix, accs in zip(chunk, prefixes, accuracies(heads + [table[None]], labels)):
            accs = accs[: total - start]
            if on_block is not None:
                on_block(prefix, accs)
            j = int(np.argmax(accs))  # the block's first maximum
            if accs[j] > best[0]:
                best = (float(accs[j]), prefix + (j,))
    return best


@dataclass(frozen=True)
class Dataset:
    """Unit-norm samples with binary labels; regenerable from its seed."""

    samples: tuple[tuple[tuple[float, ...], int], ...]
    seed: int

    def __post_init__(self):
        for x, label in self.samples:
            if np.iscomplexobj(x):
                raise ValueError("sample has complex entries; samples are real")
            if abs(np.linalg.norm(x) - 1.0) > 1e-10:
                raise ValueError("sample is not unit norm")
            if label not in (0, 1):
                raise ValueError(f"label must be 0 or 1, got {label}")

    @property
    def dim(self) -> int:
        if not self.samples:
            raise ValueError("dataset has no samples")
        return len(self.samples[0][0])

    def inputs(self) -> np.ndarray:
        return np.array([x for x, _ in self.samples])

    def labels(self) -> np.ndarray:
        return np.array([l for _, l in self.samples])


def check_fits(model: Model, dataset: Dataset) -> None:
    """Raise ValueError unless `dataset` holds samples of `model`'s input length."""
    if not dataset.samples:
        raise ValueError(f"dataset has no samples for a model of input length {model.input_length}")
    if dataset.dim != model.input_length:
        raise ValueError(
            f"dataset samples have length {dataset.dim}, the model's input length is {model.input_length}"
        )


def _output_table(dataset: Dataset) -> np.ndarray:
    """Closed-form neuron outputs for every weight code: shape (2^N, samples)."""
    xs = dataset.inputs()
    n = dataset.dim
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # row c: the bits of code c
    return ((1.0 - 2.0 * bits) @ xs.T / np.sqrt(n)) ** 2


def best_exhaustive_accuracy(dataset: Dataset, n_neurons: int = 2) -> tuple[float, Model]:
    """Noiseless global optimum over the full weight space, by closed form.

    Guarded to the same 2^20-point cap as the exhaustive trainer strategy.
    """
    n = dataset.dim
    if n * n_neurons > EXHAUSTIVE_CAP_BITS:
        raise ValueError(
            f"exhaustive space (2^{n})^{n_neurons} exceeds the 2^{EXHAUSTIVE_CAP_BITS} cap"
        )
    p = _output_table(dataset)
    best_acc, best = scan_blocks(p.__getitem__, n, n_neurons, dataset.labels(), len(p) ** n_neurons)
    return best_acc, Model(tuple(weights_from_code(c, n) for c in best))


def make_synthetic_dataset(seed: int, n_samples: int, k: int = 3, sigma: float = 0.15) -> Dataset:
    """Two seeded reference unit vectors, each sample a renormalized Gaussian
    perturbation of one of them, labels alternating so classes stay balanced.

    Regenerates with a bumped internal attempt counter until some ideal model
    reaches 90% on it, so the dataset is learnable by construction.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    n = 2**k
    if n > EXHAUSTIVE_CAP_BITS:
        raise ValueError(
            f"k={k}: weight space 2^{n} exceeds the 2^{EXHAUSTIVE_CAP_BITS} cap"
        )
    for attempt in range(64):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        refs = rng.normal(size=(2, n))
        refs /= np.linalg.norm(refs, axis=1, keepdims=True)
        samples = []
        for i in range(n_samples):
            x = refs[i % 2] + sigma * rng.normal(size=n)
            x /= np.linalg.norm(x)
            samples.append((tuple(float(v) for v in x), i % 2))
        ds = Dataset(tuple(samples), seed)
        if k <= 3:
            acc, _ = best_exhaustive_accuracy(ds)
        else:
            # pair scan is quadratic in 2^N; a fixed all-ones partner gives a
            # cheap lower bound that is enough for the learnability gate
            p, labels = _output_table(ds), ds.labels()
            acc = max(float(accuracies(outputs, labels).max()) for outputs in ([p, p[:1]], [p[:1], p]))
        if acc >= 0.9:
            return ds
    raise RuntimeError(f"no learnable dataset found for seed {seed}")


def effect_outputs(coeffs: np.ndarray, plan: MappedPlan, xs) -> np.ndarray:
    """x^dagger E_in x for every input row x of `xs`, with E_in the effect of
    Pauli coefficients `coeffs` on `plan`'s dense axes restricted to its
    computing qubits, auxiliaries and unoccupied qubits in |0>: <0|P|0> is 1
    for I and Z and 0 for X and Y, so each other axis sums its I and Z slices."""
    comp = plan.init_positions[: plan.num_computing]
    for ax in sorted(set(range(plan.n)) - set(comp), reverse=True):
        coeffs = coeffs.take(0, ax) + coeffs.take(3, ax)
    # the axes left are the computing qubits in dense order; put them in logical order
    e_in = effect_matrix(coeffs.transpose([sorted(comp).index(ax) for ax in comp]))
    xs = np.asarray(xs, dtype=complex)
    return np.einsum("si,ij,sj->s", xs.conj(), e_in, xs).real


@dataclass(frozen=True)
class Scoring:
    """How neurons are scored on a dataset, whose samples set the input
    length: the backend, its noise, device, shots, seed and threads. The
    ideal backend runs with no noise: its `noise` is always `NoiseModel()`."""

    dataset: Dataset
    backend: str = "ideal"
    noise: NoiseModel | None = None
    graph: CouplingGraph | None = None
    shots: int = 0
    seed: int | None = None
    threads: int = 1

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.noise is None or self.backend == "ideal":
            object.__setattr__(self, "noise", NoiseModel())
        if self.backend == "trajectories":
            if self.shots < 1:
                raise ValueError("trajectories backend needs shots >= 1")
            if self.seed is None:
                raise ValueError("trajectories backend needs a seed")
        elif self.shots:
            raise ValueError(f"shots are read only by the trajectories backend, not by {self.backend}")


def score_run(code: int, plan: MappedPlan, scoring: Scoring) -> np.ndarray:
    """P(read 0...0 on the computing qubits) of the neuron of weight code
    `code`, run as the dense `plan` under its bound noise, for every sample
    of `scoring.dataset`: shape (samples,).

    The exact backends pull the readout-folded all-zeros effect back once, as
    Pauli coefficients (simulator.zero_effect), and score every input from it
    (`effect_outputs`).
    Trajectory shots for sample i are seeded by derive_seed(seed, i, c), with
    c the smaller of the codes of w and -w, so a (weight, sample) pair draws
    the same shots in every caller.
    """
    xs = scoring.dataset.inputs()
    if scoring.backend != "trajectories":
        eff = zero_effect(plan.gates, plan.n, plan.bound, plan.measured)
        return effect_outputs(eff, plan, xs)
    # w and -w compile to one circuit when their -1 counts differ, so
    # both draw the shots of the sign whose entry 0 is +1
    code = min(code, code ^ ((1 << (1 << plan.num_computing)) - 1))
    counts = trajectory_counts(
        plan.gates, plan.n, plan.bound, [plan.embed(x) for x in np.asarray(xs, dtype=complex)],
        [derive_seed(scoring.seed, i, code) for i in range(len(xs))],
        scoring.shots, list(plan.measured), threads=scoring.threads,
    )
    return counts[:, 0] / scoring.shots


def neuron_outputs(w, mapped: MappedCircuit, scoring: Scoring) -> np.ndarray:
    """P(read 0...0 on the computing qubits) of neuron `w`, routed whole as
    `mapped`, for every sample of `scoring.dataset`: shape (samples,).

    The scorer of a routed circuit that may move the mapping (the rows of
    `bench`'s router comparison), and the reference `Evaluator` is tested
    against: the noise is bound, the dense run planned once, and every input
    scored (`score_run`).
    """
    plan = plan_mapped_run(mapped, bind(scoring.noise, mapped))
    return score_run(code_from_weights(w), plan, scoring)


class _Piece:
    """Dense routed gates, the events bound to each, how many events, and
    their steps over Pauli coefficients (`pauli_steps`), built on first use
    (only the exact backends take them); a piece put together from `parts`
    takes theirs."""

    def __init__(self, gates, events, parts: tuple[_Piece, ...] = ()):
        self.gates: tuple[Gate, ...] = tuple(gates)
        self.events = tuple(events)
        self.n_events = sum(map(len, self.events))
        self.parts = parts

    @functools.cached_property
    def steps(self) -> tuple:
        if self.parts:
            return tuple(s for p in self.parts for s in p.steps)
        return pauli_steps(self.gates, self.events)


def _cat(pieces) -> _Piece:
    """Routed pieces back to back."""
    pieces = tuple(pieces)
    return _Piece((g for p in pieces for g in p.gates), (e for p in pieces for e in p.events), pieces)


class Evaluator:
    """Caches per-neuron sample outputs by flip code (`flip_code`): the
    compiler restores the canonical mapping after every block, so a neuron
    is its flip list, and its exact outputs come from two memoized halves.

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

    The trajectory seed for a (weight, sample) pair is fixed by the scoring
    seed, so a search optimizes a deterministic surrogate instead of chasing
    sampling noise, and cached values equal fresh re-evaluations.
    """

    def __init__(self, cfg: Scoring):
        self.cfg = cfg
        self.n = n = cfg.dataset.dim
        self.k = k = n.bit_length() - 1
        # entry 0 flipped: X on every computing qubit, the body, X again, the H tail
        probe = neuron_circuit(weights_from_code(1 << (n - 1), n))
        self.graph = cfg.graph if cfg.graph is not None else linear_chain(probe.width)
        self.xs = cfg.dataset.inputs()
        self.labels = cfg.dataset.labels()
        self._counted: set[int] = set()  # the weight codes counted in `work`
        self._rows: dict[int, np.ndarray] = {}  # by flip code, over the samples
        self.phase_seconds = {"circ": 0.0, "map": 0.0, "bind": 0.0, "infer": 0.0}
        self.work = {"neurons": 0, "gates": 0, "events": 0, "steps": 0, "walks": 0}
        mapped = self._timed("map", lambda: compile(probe, self.graph))
        if mapped.block_mappings != (mapped.initial_mapping,):
            raise MappingNotCanonical("the routed block does not restore the initial mapping")
        # the probe's plan; its frame (width, axes, readout) serves every neuron
        self._frame = plan = plan_mapped_run(mapped, self._timed("bind", lambda: bind(cfg.noise, mapped)))
        if cfg.backend != "trajectories":  # the exact backends hold 4^n coefficients per effect
            check_density_width(plan.n)
        events, end = plan.bound.events, len(plan.gates)  # each X and H is one routed gate
        self._x = [_Piece(plan.gates[q:q + 1], events[q:q + 1]) for q in range(k)]
        self._body = _Piece(plan.gates[k:end - 2 * k], events[k:end - 2 * k])
        self._tail = _Piece(plan.gates[end - k:], events[end - k:])
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

    def plan(self, code: int) -> MappedPlan:
        """The dense plan of the neuron of weight code `code`, its flip list's
        pieces put together in gate order."""
        f, frame = _bit_entries(flip_code(code, self.n), self.n), self._frame
        whole = _cat([x for a, b in zip((None,) + f, f) for x in (self._layer(a, b), self._body)]
                     + [self._layer(*((None,) + f)[-1:], None), self._tail])
        return replace(frame, gates=whole.gates, bound=replace(frame.bound, events=whole.events))

    def _pass(self, run, coeffs: np.ndarray, piece: _Piece) -> np.ndarray:
        """`run` (pull_back or push_forward) of `coeffs` through `piece`, counted."""
        self.work["walks"] += 1
        self.work["steps"] += len(piece.gates)
        return run(coeffs, piece.steps)

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
            self._diagonals[a, b] = pull_back(np.ones((4,) * self._frame.n), self._layer(a, b).steps)
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

    def _score(self, codes: list[int]) -> None:
        """Count the neurons of weight codes `codes`, none seen before (X
        layers, a body per flip, the tail), and score their flip codes with no
        row yet; w and -w share one when their -1 counts differ."""
        cfg, n = self.cfg, self.n
        keys = [flip_code(c, n) for c in codes]
        flips = self._timed("circ", lambda: [_bit_entries(fc, n) for fc in keys])
        layers = Counter(chain.from_iterable(zip((None,) + f, f + (None,)) for f in flips))
        counted = [(self._tail, len(codes)), (self._body, sum(map(len, flips)))]
        counted += [(self._layer(*ab), c) for ab, c in layers.items()]
        self.work["gates"] += sum(c * len(p.gates) for p, c in counted)
        self.work["events"] += sum(c * p.n_events for p, c in counted)
        self.work["neurons"] += len(codes)
        self._counted.update(codes)
        new = {fc: f for fc, f in zip(keys, flips) if fc not in self._rows}
        if cfg.backend == "trajectories":  # every gate is a step
            plans = self._timed("infer", lambda: {fc: self.plan(fc) for fc in new})
            self.work["steps"] += sum(len(p.gates) for p in plans.values())
            rows = self._timed("infer", lambda: [score_run(fc, p, cfg) for fc, p in plans.items()])
        else:
            rows = self._timed("infer", lambda: self._exact_rows(list(new.values()), len(codes)) if new else [])
        self._rows.update(zip(new, rows))

    def neuron_rows(self, codes) -> np.ndarray:
        """The outputs over the samples of the neuron of each weight code of
        `codes`, stacked: shape (len(codes), samples). The neurons not seen
        yet are scored together."""
        new = [c for c in dict.fromkeys(codes) if c not in self._counted]
        if new:
            self._score(new)
        return np.array([self._rows[flip_code(c, self.n)] for c in codes])

    def neuron_outputs(self, w: tuple[int, ...]) -> np.ndarray:
        """Neuron `w`'s outputs over the samples: a batch of one."""
        return self.neuron_rows([code_from_weights(w)])[0]

    def model_accuracy(self, m: Model) -> float:
        return float(accuracies([self.neuron_outputs(w) for w in m.neurons], self.labels))


def accuracy(model: Model, scoring: Scoring, work: dict[str, int] | None = None) -> float:
    """Fraction of correct predictions; deterministic given the seed.

    Scored by one `Evaluator`, which compiles one probe per call; `work`,
    when given, gets the evaluator's counts added.
    """
    check_fits(model, scoring.dataset)
    ev = Evaluator(scoring)
    acc = ev.model_accuracy(model)
    if work is not None:
        for key, count in ev.work.items():
            work[key] = work.get(key, 0) + count
    return acc


# ---------------------------------------------------------------------------
# File formats


def format_dataset(dataset: Dataset) -> str:
    lines = [f"dim {dataset.dim}"]
    for x, label in dataset.samples:
        lines.append(" ".join(f"{v:.17g}" for v in x) + f" {label}")
    return "\n".join(lines) + "\n"


def parse_dataset(text: str, seed: int = 0) -> Dataset:
    """Dataset file: a 'dim <N>' header, then N floats and a label per line;
    every error names its line."""
    dim = None
    samples = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if dim is None:
                if parts[0] != "dim" or len(parts) != 2:
                    raise ValueError("expected header 'dim <N>'")
                dim = int(parts[1])
            elif len(parts) != dim + 1:
                raise ValueError(f"expected {dim} floats and a label")
            else:  # the sample checked on its own
                samples += Dataset(((tuple(float(v) for v in parts[:dim]), int(parts[dim])),), seed).samples
        except ValueError as e:
            raise ValueError(f"line {line_no}: {e}") from None
    if dim is None:
        raise ValueError("missing 'dim' header")
    if not samples:
        raise ValueError(f"dataset declares dim {dim} but has no samples")
    return Dataset(tuple(samples), seed)


def load_dataset(path: str) -> Dataset:
    with open(path, encoding="utf-8") as f:
        return parse_dataset(f.read())


def format_model(model: Model) -> str:
    return "\n".join(" ".join(str(v) for v in w) for w in model.neurons) + "\n"


def parse_model(text: str) -> Model:
    """Model file: one row of +-1 weights per neuron; every error names its line."""
    m = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:  # the model so far, checked with this neuron added
            m = Model((*(m.neurons if m else ()), tuple(int(v) for v in line.split())))
        except ValueError as e:
            raise ValueError(f"line {line_no}: {e}") from None
    if m is None:
        raise ValueError("model file has no neurons")
    return m


def load_model(path: str) -> Model:
    with open(path, encoding="utf-8") as f:
        return parse_model(f.read())


def bundled_dataset_path() -> str:
    """Path of the pinned synthetic dataset shipped with the package."""
    return str(resources.files("qnz").joinpath("data/synthetic_k3.txt"))
