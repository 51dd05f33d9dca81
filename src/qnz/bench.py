"""Compile-latency benchmarks and the router/model comparison report.

The complexity classes stand in for an external benchmark suite: simple,
middle, and complex are circuits of 1, 3, and 5 C^3Z blocks on the 4+2
register. Latencies are wall-clock medians over repeated compilations.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .ir import Circuit, Gate, GateKind, expand_to_basis
from .mapper import compile, naive_route
from .noise import NoiseModel
from .qnn import Dataset, Model, Scoring, accuracies, check_fits, neuron_circuit, neuron_outputs
from .topology import CouplingGraph

COMPLEXITY_CLASSES = {"simple": 1, "middle": 3, "complex": 5}


def complexity_circuit(blocks: int) -> Circuit:
    """`blocks` C^3Z blocks on 4 computing + 2 auxiliary qubits."""
    if blocks < 1:
        raise ValueError("need at least one block")
    gates = tuple(Gate(GateKind.CNZ, (0, 1, 2, 3)) for _ in range(blocks))
    bounds = tuple((i, i + 1) for i in range(blocks))
    return Circuit(4, 2, gates, block_boundaries=bounds)


@dataclass(frozen=True)
class BenchRow:
    name: str
    blocks: int
    median_ms: float
    p95_ms: float
    swaps: int
    bridges: int
    extra_cx: int
    greedy_median_ms: float
    greedy_swaps: int


def _time_samples(fn, repetitions: int) -> np.ndarray:
    """Wall-clock ms of `repetitions` calls of fn, after one warm-up call."""
    fn()
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / 1e6)
    return np.array(samples)


def bench_compile(
    circuits: dict[str, Circuit], g: CouplingGraph, repetitions: int
) -> list[BenchRow]:
    """Median and p95 compile latency per circuit, for both routers."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rows = []
    for name, circ in circuits.items():
        mapped = compile(circ, g)
        samples = _time_samples(lambda c=circ: compile(c, g), repetitions)
        expanded = expand_to_basis(circ)
        greedy = naive_route(expanded, g)
        greedy_samples = _time_samples(lambda c=expanded: naive_route(c, g), repetitions)
        blocks = len(circ.block_boundaries or ()) or sum(
            1 for gt in circ.gates if gt.kind is GateKind.CNZ
        )
        rows.append(
            BenchRow(
                name=name,
                blocks=blocks,
                median_ms=float(np.median(samples)),
                p95_ms=float(np.percentile(samples, 95)),
                swaps=mapped.stats.swaps,
                bridges=mapped.stats.bridges,
                extra_cx=mapped.stats.extra_cx,
                greedy_median_ms=float(np.median(greedy_samples)),
                greedy_swaps=greedy.stats.swaps,
            )
        )
    return rows


def standard_bench_rows(g: CouplingGraph, repetitions: int) -> list[BenchRow]:
    circuits = {name: complexity_circuit(b) for name, b in COMPLEXITY_CLASSES.items()}
    return bench_compile(circuits, g, repetitions)


def latency_scaling(g: CouplingGraph, max_blocks: int = 10, repetitions: int = 40):
    """(blocks, latency_ms) pairs plus the linear-fit R^2 over 1..max_blocks.

    Uses the lower quartile of repeated timings: wall-clock contamination on a
    shared machine is one-sided, so the quartile tracks the true cost curve
    far more stably than the mean.
    """
    points = []
    for blocks in range(1, max_blocks + 1):
        circ = complexity_circuit(blocks)
        samples = _time_samples(lambda c=circ: compile(c, g), repetitions)
        points.append((blocks, float(np.percentile(samples, 25))))
    xs = np.array([b for b, _ in points], dtype=float)
    ys = np.array([m for _, m in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return points, r2


@dataclass(frozen=True)
class ComparisonRow:
    router: str
    model: str
    accuracy: float
    extra_swaps: int
    elapsed_ms: float


def _model_accuracy_density(m: Model, scoring: Scoring, router: str) -> tuple[float, int, float]:
    """(accuracy, total swaps, compile ms) for one model under one router,
    compiled onto `scoring.graph`."""
    check_fits(m, scoring.dataset)
    swaps = 0
    elapsed = 0.0
    outputs = []
    for w in m.neurons:
        circ = neuron_circuit(w)
        t0 = time.perf_counter()
        if router == "ours":
            mapped = compile(circ, scoring.graph)
        else:
            mapped = naive_route(expand_to_basis(circ), scoring.graph)
        elapsed += (time.perf_counter() - t0) * 1e3
        swaps += mapped.stats.swaps
        outputs.append(neuron_outputs(w, mapped, scoring))
    return float(accuracies(outputs, scoring.dataset.labels())), swaps, elapsed


def report_router_comparison(
    baseline: Model,
    searched: Model,
    g: CouplingGraph,
    noise: NoiseModel,
    dataset: Dataset,
) -> list[ComparisonRow]:
    """Three-way comparison: our router on the baseline model, the greedy
    router on the searched model, and our router on the searched model, all
    scored by the density backend."""
    scoring = Scoring(dataset, "density", noise, g)
    rows = []
    for router, name, m in (
        ("ours", "baseline", baseline),
        ("greedy", "searched", searched),
        ("ours", "searched", searched),
    ):
        acc, swaps, elapsed = _model_accuracy_density(m, scoring, router)
        rows.append(ComparisonRow(router, name, acc, swaps, elapsed))
    return rows


def rows_as_dicts(rows) -> list[dict]:
    return [asdict(r) for r in rows]


def rows_to_csv(rows) -> str:
    if not rows:
        return "\n"
    names = list(asdict(rows[0]).keys())
    lines = [",".join(names)]
    for r in rows:
        d = asdict(r)
        lines.append(",".join(str(d[k]) for k in names))
    return "\n".join(lines) + "\n"
