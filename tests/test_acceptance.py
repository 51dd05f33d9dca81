"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. All tolerances are pinned
here; the sweep and trend values are exact regression pins (the density
backend and the pinned dataset make them fully deterministic).
"""
import numpy as np
import pytest

from qnz.bench import complexity_circuit, latency_scaling, standard_bench_rows
from qnz.ir import Circuit, GateKind, decompose_bridge3, expand_to_basis, gate
from qnz.mapper import compile, initial_interleaved_mapping, naive_route
from qnz.noise import NoiseModel, bind
from qnz.qnn import (
    best_exhaustive_accuracy,
    bundled_dataset_path,
    circ_of_weights,
    load_dataset,
    make_synthetic_dataset,
    neuron_circuit,
    weights_from_code,
)
from qnz.simulator import (
    DensityProgram,
    born_distribution,
    plan_mapped_run,
    run_gates_ideal,
    run_gates_trajectories,
    total_variation,
)
from qnz.topology import linear_chain
from qnz.trainer import Evaluator, TrainConfig, sweep

from oracle import circuit_unitary, gate_unitary, random_state

K = GateKind

DATASET_SEED = 2
DATASET_SIZE = 50

# Exact regression pins from the first computation on the pinned dataset
# (density backend, exhaustive search, fully deterministic).
PINNED_SWEEP = {
    0.0001: (1.00, 1.00),
    0.0005: (1.00, 1.00),
    0.001: (1.00, 1.00),
    0.01: (0.96, 1.00),
    0.05: (0.68, 1.00),
    0.1: (0.38, 1.00),
}
PINNED_TREND = {"ideal": 1.00, "p001": 0.96, "p01": 0.38}
ORACLE_SEED = 17


@pytest.fixture(scope="module")
def dataset():
    ds = load_dataset(bundled_dataset_path())
    regen = make_synthetic_dataset(DATASET_SEED, DATASET_SIZE, k=3)
    assert ds.samples == regen.samples, "bundled fixture drifted from its seed"
    return regen


@pytest.fixture(scope="module")
def baseline(dataset):
    acc, best = best_exhaustive_accuracy(dataset)
    assert acc == pytest.approx(PINNED_TREND["ideal"])
    return best


def _report(n: int, text: str):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_01_restoration_invariant():
    for n in (2, 3, 4, 5):
        circ = Circuit(n + 1, n - 1, (gate(K.CNZ, *range(n + 1)),))
        mapped = compile(circ, linear_chain(2 * n))
        assert mapped.final_mapping == mapped.initial_mapping, f"mapping not restored for n={n}"
    _report(1, "mapping restored after every C^nZ block, n in {2,3,4,5}, exact")


def test_criterion_02_block_insertion_counts():
    circ = Circuit(4, 2, (gate(K.CNZ, 0, 1, 2, 3),))
    mapped = compile(circ, linear_chain(6))
    swap_gates = sum(1 for g in mapped.physical_gates if g.kind is K.SWAP)
    assert swap_gates == 4
    assert mapped.stats.swaps == 4
    assert mapped.stats.bridges == 2
    assert len(mapped.bridge_events) == 2
    assert mapped.stats.extra_cx == 18
    _report(2, "C^3Z block inserts exactly 4 SWAPs and 2 bridges (18 extra CX)")


def test_criterion_03_semantic_preservation():
    rng = np.random.default_rng(303)
    g = linear_chain(4)
    worst = 0.0
    for code in range(256):
        w = weights_from_code(code, 8)
        circ = circ_of_weights(w)
        mapped = compile(circ, g)
        u_logical = run_gates_ideal(circ.gates, circ.width, np.eye(2**circ.width))
        plan = plan_mapped_run(mapped)
        u_mapped = run_gates_ideal(plan.gates, plan.n, np.eye(2**plan.n))
        for _ in range(20):
            comp = random_state(3, rng)
            logical_init = np.kron(comp, np.array([1, 0], dtype=complex))
            d_log = born_distribution(u_logical @ logical_init, [0, 1, 2])
            d_map = born_distribution(u_mapped @ plan.embed(comp), list(plan.measured))
            worst = max(worst, total_variation(d_log, d_map))
    assert worst < 1e-9
    _report(3, f"256 weight circuits x 20 states: max TVD {worst:.2e} < 1e-9")


def test_criterion_04_fixed_mapping_across_weights():
    g = linear_chain(4)
    canonical = initial_interleaved_mapping(2, range(4))
    boundary_mappings = set()
    initials = set()
    for code in range(256):
        mapped = compile(circ_of_weights(weights_from_code(code, 8)), g)
        initials.add(mapped.initial_mapping)
        boundary_mappings.update(mapped.block_mappings)
        assert mapped.final_mapping == canonical
    assert initials == {canonical}
    assert boundary_mappings <= {canonical}
    _report(4, "identical mapping at every block boundary across all 256 weights")


def test_criterion_05_oracle_agreement():
    shots = 100_000
    settings = {
        "flip 0.1": NoiseModel(flip_p=0.1),
        "flip 0.01": NoiseModel(flip_p=0.01),
        "phase 0.1": NoiseModel(phase_p=0.1),
        "phase 0.01": NoiseModel(phase_p=0.01),
        "flip+phase 0.1": NoiseModel(flip_p=0.1, phase_p=0.1),
        "flip+phase 0.01": NoiseModel(flip_p=0.01, phase_p=0.01),
        "depolarizing 0.05": NoiseModel(depol_p=0.05),
        "readout 0.1": NoiseModel(readout=tuple((q, 0.1, 0.1) for q in range(8))),
    }
    weights = [weights_from_code(0b10010100, 8), weights_from_code(0b00011101, 8)]
    x = np.full(8, 1 / np.sqrt(8))
    worst_z = 0.0
    for name, nm in settings.items():
        for w in weights:
            mapped = compile(neuron_circuit(w), linear_chain(4))
            plan = plan_mapped_run(mapped, bind(nm, mapped))
            init = plan.embed(x)
            exact = DensityProgram(plan.gates, plan.n, plan.bound, plan.measured).distribution(init)
            counts = run_gates_trajectories(
                plan.gates, plan.n, plan.bound, init, shots, ORACLE_SEED, list(plan.measured),
            )
            emp = counts.distribution()
            for i in range(8):
                key = format(i, "03b")
                p = exact.get(key, 0.0)
                phat = emp.get(key, 0.0)
                sigma = np.sqrt(max(p * (1.0 - p), 0.0) / shots)
                assert abs(phat - p) <= 3.0 * sigma + 1e-9, (
                    f"{name}, outcome {key}: p={p:.6f} phat={phat:.6f}"
                )
                if sigma > 0:
                    worst_z = max(worst_z, abs(phat - p) / sigma)
    _report(5, f"trajectories (1e5 shots) vs density: all outcomes within 3 sigma "
               f"(worst z = {worst_z:.2f}) across 8 noise settings")


def test_criterion_06_noise_degrades_baseline(dataset, baseline):
    def acc_at(nm: NoiseModel) -> float:
        cfg = TrainConfig(
            strategy="exhaustive", max_iters=1, seed=1, backend="density",
            noise=nm, initial=baseline, dataset=dataset,
        )
        return Evaluator(cfg).model_accuracy(baseline)

    ideal = acc_at(NoiseModel())
    p001 = acc_at(NoiseModel(flip_p=0.01, phase_p=0.01))
    p01 = acc_at(NoiseModel(flip_p=0.1, phase_p=0.1))
    assert ideal > p001 > p01, (ideal, p001, p01)
    assert ideal == pytest.approx(PINNED_TREND["ideal"])
    assert p001 == pytest.approx(PINNED_TREND["p001"])
    assert p01 == pytest.approx(PINNED_TREND["p01"])
    _report(6, f"baseline accuracy strictly decreases: {ideal:.2f} -> {p001:.2f} -> {p01:.2f}")


def test_criterion_07_error_aware_search_gains(dataset, baseline):
    rates = [0.0001, 0.0005, 0.001, 0.01, 0.05, 0.1]
    cfg = TrainConfig(
        strategy="exhaustive", max_iters=2**16 + 1, seed=1, backend="density",
        noise=NoiseModel(), initial=baseline, dataset=dataset,
    )
    rows = sweep(rates, cfg)
    for row in rows:
        assert row.searched_accuracy >= row.baseline_accuracy, f"rate {row.rate}"
        pinned_base, pinned_search = PINNED_SWEEP[row.rate]
        assert row.baseline_accuracy == pytest.approx(pinned_base, abs=1e-9)
        assert row.searched_accuracy == pytest.approx(pinned_search, abs=1e-9)
        if row.rate >= 0.05:
            margin = row.searched_accuracy - row.baseline_accuracy
            assert margin >= 0.05, f"rate {row.rate}: margin {margin:.3f} < 0.05"
    gains = {row.rate: round(row.searched_accuracy - row.baseline_accuracy, 4) for row in rows}
    _report(7, f"searched >= baseline at every rate; gains {gains} "
               f"(>= 5 points at rates >= 0.05)")


def test_criterion_08_compile_latency():
    rows = standard_bench_rows(linear_chain(6), repetitions=40)
    complex_row = next(r for r in rows if r.name == "complex")
    assert complex_row.median_ms < 50.0
    r2 = 0.0
    for _ in range(3):  # wall-clock measurement: re-measure on a noisy box
        points, r2 = latency_scaling(linear_chain(6), max_blocks=10, repetitions=40)
        if r2 > 0.99:
            break
    assert r2 > 0.99, f"latency fit R^2 = {r2:.4f}"
    _report(8, f"complex-class median {complex_row.median_ms:.3f} ms < 50 ms; "
               f"latency ~ linear in blocks (R^2 = {r2:.4f})")


def test_criterion_09_swap_count_beats_greedy():
    g = linear_chain(6)
    checked = 0
    for code in range(256):
        circ = circ_of_weights(weights_from_code(code, 8))
        if not circ.gates:
            continue
        ours = compile(circ, g)
        greedy = naive_route(expand_to_basis(circ), g)
        assert ours.stats.swaps < greedy.stats.swaps, (
            f"weight code {code}: ours {ours.stats.swaps} vs greedy {greedy.stats.swaps}"
        )
        checked += 1
    for blocks in (1, 3, 5):
        circ = complexity_circuit(blocks)
        ours = compile(circ, g)
        greedy = naive_route(expand_to_basis(circ), g)
        assert ours.stats.swaps < greedy.stats.swaps
        checked += 1
    _report(9, f"fewer SWAPs than the greedy router on all {checked} benchmark circuits")


def test_criterion_10_bridge_correctness():
    rng = np.random.default_rng(1010)
    frag = decompose_bridge3(gate(K.BRIDGE3, 0, 1, 2))
    u = circuit_unitary(frag, 3)
    cx = gate_unitary(gate(K.CX, 0, 2), 3)
    worst = 0.0
    for _ in range(100):
        joint = random_state(2, rng)  # entangled (control, target) pair
        psi = np.zeros(8, dtype=complex)
        for c in range(2):
            for t in range(2):
                psi[(c << 2) | t] = joint[(c << 1) | t]  # middle bit stays 0
        worst = max(worst, float(np.max(np.abs(u @ psi - cx @ psi))))
    assert worst < 1e-10
    _report(10, f"3-CX bridge equals CX(control,target) x I_middle "
                f"(max deviation {worst:.2e} over 100 entangled states)")
