"""The reference evaluator against closed forms: the noiseless neuron output
((w . x) / sqrt(N))^2 and analytic single-qubit noise mixtures."""
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qnz.mapper import compile as qnz_compile  # noqa: E402
from qnz.noise import NoiseModel, bind  # noqa: E402
from qnz.qnn import neuron_circuit  # noqa: E402
from qnz.topology import coupling_graph, linear_chain  # noqa: E402

from perfbench.reference import (  # noqa: E402
    ReferenceEvaluator,
    closed_form,
    explicit_matrix,
    from_routed,
)
from perfbench.workloads import (  # noqa: E402
    binomial_pmf,
    shot_accuracy,
    unit_rows,
    weights_with_flips,
)

P = 0.07


def test_cx_matrix_uses_qubit_zero_as_the_high_bit():
    cx = explicit_matrix([("cx", (0, 1))], 2)
    assert np.array_equal(cx, np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))


@pytest.mark.parametrize("n, flips, graph", [
    (8, 3, linear_chain(4)),
    (16, 5, linear_chain(6)),
    (16, 2, coupling_graph(6, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (2, 5)])),
])
def test_zero_noise_equals_closed_form(n, flips, graph):
    rng = np.random.default_rng(n + flips)
    w = weights_with_flips(rng, n, flips)
    xs = unit_rows(rng, 4, n)
    mapped = qnz_compile(neuron_circuit(w), graph)
    want = closed_form(w, xs)
    noiseless = from_routed(mapped, bind(NoiseModel(), mapped))
    assert np.allclose(noiseless.zero_probabilities(xs), want, atol=1e-12)
    assert np.allclose(from_routed(mapped).ideal_zero_probabilities(xs), want, atol=1e-12)


def one_qubit(gates, events, readout=()):
    return ReferenceEvaluator(gates, (0,), (0,), 1, 0, events, readout)


def test_flip_mixes_the_outcomes():
    a, b = 0.6, 0.8
    ideal = (a + b) ** 2 / 2  # P(0) of H(a|0> + b|1>)
    ev = one_qubit([("h", (0,))], [[("flip", (0,), P)]])
    want = (1 - P) * ideal + P * (1 - ideal)
    assert ev.zero_probabilities([[a, b]])[0] == pytest.approx(want, abs=1e-14)


def test_phase_damps_the_coherence():
    a, b = 0.6, 0.8
    # T then Z with probability P, then H: P(0) = 1/2 + (1 - 2P) Re(rho_01)
    ev = one_qubit([("t", (0,)), ("h", (0,))], [[("phase", (0,), P)], []])
    want = 0.5 + (1 - 2 * P) * a * b * np.cos(np.pi / 4)
    assert ev.zero_probabilities([[a, b]])[0] == pytest.approx(want, abs=1e-14)


def test_depolarising_spreads_over_the_three_paulis():
    a, b = 0.6, 0.8
    ideal = (a + b) ** 2 / 2
    ev = one_qubit([("h", (0,))], [[("depol", (0,), P)]])
    want = (1 - 4 * P / 3) * ideal + (4 * P / 3) / 2
    assert ev.zero_probabilities([[a, b]])[0] == pytest.approx(want, abs=1e-14)


def test_two_qubit_depolarising_spreads_over_fifteen_paulis():
    ev = ReferenceEvaluator([("cx", (0, 1))], (0, 1), (0, 1), 2, 0, [[("depol", (0, 1), P)]])
    want = (1 - 16 * P / 15) + (16 * P / 15) / 4
    assert ev.zero_probabilities([[1, 0, 0, 0]])[0] == pytest.approx(want, abs=1e-14)


def test_readout_confusion_is_applied_last():
    a, b = 0.6, 0.8
    ideal = (a + b) ** 2 / 2
    noisy = (1 - P) * ideal + P * (1 - ideal)
    p01, p10 = 0.02, 0.05
    ev = one_qubit([("h", (0,))], [[("flip", (0,), P)]], readout=[(0, p01, p10)])
    want = (1 - p01) * noisy + p10 * (1 - noisy)
    assert ev.zero_probabilities([[a, b]])[0] == pytest.approx(want, abs=1e-14)


def test_shot_accuracy_of_equal_outputs_counts_ties_for_class_zero():
    # k0 >= k1 for two identical binomials: half of the unequal pairs plus every tie
    p, shots = 0.3, 16
    ties = float(binomial_pmf(p, shots) @ binomial_pmf(p, shots))
    mean, sd = shot_accuracy([p, p], [p, p], [0, 1], shots)
    right = np.array([(1 + ties) / 2, (1 - ties) / 2])
    assert mean == pytest.approx(right.mean(), abs=1e-14)
    assert sd == pytest.approx(np.sqrt((right * (1 - right)).sum()) / 2, abs=1e-14)


def test_shot_accuracy_is_certain_for_certain_outputs():
    assert shot_accuracy([1.0, 0.0], [0.0, 1.0], [0, 1], 8) == (1.0, 0.0)
