"""Binary-weight quantum neurons: sign-flip circuits, forward passes, synthetic data.

A weight vector w in {-1,+1}^(2^k) becomes a circuit whose unitary is diag(w)
up to global sign: one X-conjugated C^(k-1)Z block per flipped index, with
adjacent X wrappers merged. The neuron output is the probability of reading
|0...0> after amplitude-encoding the input, applying the weight circuit, and
a final H layer; in closed form that is ((w . x) / sqrt(N))^2.

State preparation is treated as a given initial state, so noise acts on the
weight and measurement portion only.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .ir import Circuit, Gate, GateKind
from .mapper import MappedCircuit, compile
from .noise import NoiseModel, bind
from .simulator import MappedPlan, derive_seed, effect_matrix, plan_mapped_run, trajectory_counts, zero_effect
from .topology import CouplingGraph, linear_chain

BACKENDS = ("ideal", "density", "trajectories")
# Exhaustive scans (weight tables, pair search) stop at 2^20 points.
EXHAUSTIVE_CAP_BITS = 20
EXHAUSTIVE_SPACE_CAP = 2**EXHAUSTIVE_CAP_BITS
_SCAN_CHUNK_BYTES = 1 << 20  # the booleans of one comparison in `scan_blocks`


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


def flip_list(w) -> tuple[int, ...]:
    """The entries `circ_of_weights` flips, in order: the -1 entries, or the
    +1 entries if more than half are -1 (the output ignores the global sign)."""
    flips = tuple(i for i, v in enumerate(w) if v == -1)
    return flips if len(flips) <= len(w) // 2 else tuple(i for i, v in enumerate(w) if v == 1)


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
    w_all = np.array([weights_from_code(c, n) for c in range(2**n)], dtype=float)
    return (w_all @ xs.T / np.sqrt(n)) ** 2


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


def compile_neuron(w, graph: CouplingGraph | None = None) -> MappedCircuit:
    c = neuron_circuit(w)
    return compile(c, graph if graph is not None else linear_chain(c.width))


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


def score_run(
    w,
    plan: MappedPlan,
    xs,
    backend: str,
    shots: int = 0,
    seed: int | None = None,
    threads: int = 1,
) -> np.ndarray:
    """P(read 0...0 on the computing qubits) of neuron `w`, run as the dense
    `plan` under its bound noise, for every input row of `xs`: shape (samples,).

    The exact backends pull the readout-folded all-zeros effect back once, as
    Pauli coefficients (simulator.zero_effect), and score every input from it
    (`effect_outputs`).
    Trajectory shots for sample i are seeded by derive_seed(seed, i, c), with
    c the smaller of the codes of w and -w, so a (weight, sample) pair draws
    the same shots in every caller.
    """
    if backend != "trajectories":
        eff = zero_effect(plan.gates, plan.n, plan.bound, plan.measured)
        return effect_outputs(eff, plan, xs)
    # w and -w compile to one circuit when their -1 counts differ, so
    # both draw the shots of the sign whose entry 0 is +1
    code = code_from_weights(w)
    code = min(code, code ^ ((1 << len(w)) - 1))
    counts = trajectory_counts(
        plan.gates, plan.n, plan.bound, [plan.embed(x) for x in np.asarray(xs, dtype=complex)],
        [derive_seed(seed, i, code) for i in range(len(xs))],
        shots, list(plan.measured), threads=threads,
    )
    return counts[:, 0] / shots


def neuron_outputs(
    w,
    mapped: MappedCircuit,
    xs,
    backend: str = "ideal",
    noise: NoiseModel | None = None,
    shots: int = 0,
    seed: int | None = None,
    threads: int = 1,
    work: dict[str, int] | None = None,
) -> np.ndarray:
    """P(read 0...0 on the computing qubits) of neuron `w`, routed as `mapped`,
    for every input row of `xs`: shape (samples,).

    The path of `accuracy`, `qnz infer` and `bench` (the trainer scores
    through `trainer.Evaluator`): the noise is bound (not for the ideal
    backend), the dense run planned once, and every input scored (`score_run`).
    `work`, when given, counts the neuron, its routed gates and its bound
    events (keys "neurons", "gates", "events").
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "trajectories":
        if shots < 1:
            raise ValueError("trajectories backend needs shots >= 1")
        if seed is None:
            raise ValueError("trajectories backend needs a seed")
    bound = None if backend == "ideal" else bind(noise if noise is not None else NoiseModel(), mapped)
    if work is not None:
        work["neurons"] += 1
        work["gates"] += len(mapped.physical_gates)
        work["events"] += 0 if bound is None else bound.total_events
    return score_run(w, plan_mapped_run(mapped, bound), xs, backend, shots, seed, threads)


def accuracy(
    model: Model,
    dataset: Dataset,
    backend: str = "ideal",
    noise: NoiseModel | None = None,
    graph: CouplingGraph | None = None,
    shots: int = 0,
    seed: int | None = None,
    threads: int = 1,
    work: dict[str, int] | None = None,
) -> float:
    """Fraction of correct predictions; deterministic given the seed.

    Each distinct neuron is compiled and evaluated once over all samples;
    `work`, when given, counts them as `neuron_outputs` does.
    """
    check_fits(model, dataset)
    xs = dataset.inputs()
    outputs = {
        w: neuron_outputs(
            w, compile_neuron(w, graph), xs, backend, noise, shots, seed, threads, work
        )
        for w in dict.fromkeys(model.neurons)
    }
    return float(accuracies([outputs[w] for w in model.neurons], dataset.labels()))


# ---------------------------------------------------------------------------
# File formats


def format_dataset(dataset: Dataset) -> str:
    lines = [f"dim {dataset.dim}"]
    for x, label in dataset.samples:
        lines.append(" ".join(f"{v:.17g}" for v in x) + f" {label}")
    return "\n".join(lines) + "\n"


def parse_dataset(text: str, seed: int = 0) -> Dataset:
    dim = None
    samples = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if dim is None:
            if parts[0] != "dim" or len(parts) != 2:
                raise ValueError(f"line {line_no}: expected header 'dim <N>'")
            dim = int(parts[1])
            continue
        if len(parts) != dim + 1:
            raise ValueError(f"line {line_no}: expected {dim} floats and a label")
        x = tuple(float(v) for v in parts[:dim])
        samples.append((x, int(parts[dim])))
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
    neurons = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        neurons.append(tuple(int(v) for v in line.split()))
    if not neurons:
        raise ValueError("model file has no neurons")
    return Model(tuple(neurons))


def load_model(path: str) -> Model:
    with open(path, encoding="utf-8") as f:
        return parse_model(f.read())


def bundled_dataset_path() -> str:
    """Path of the pinned synthetic dataset shipped with the package."""
    return str(resources.files("qnz").joinpath("data/synthetic_k3.txt"))
