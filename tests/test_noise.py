"""Noise model loading, binding rules, and channel behavior on the exact backend."""
import json

import numpy as np
import pytest

from qnz.ir import Circuit, Gate, GateKind, gate
from qnz.mapper import compile
from qnz.noise import (
    BoundNoise,
    CalibrationError,
    NoiseModel,
    apply_readout,
    bind,
    bind_gates,
    load_calibration,
    lookup_readout,
    noise_model_from_dict,
    parse_noise_shorthand,
)
from qnz.qnn import Dataset, Scoring, neuron_circuit, neuron_outputs
from qnz.simulator import DensityProgram, run_density
from qnz.topology import CouplingGraph, linear_chain

K = GateKind


class TestLoadCalibration:
    def test_defaults_to_zero(self, tmp_path):
        p = tmp_path / "cal.json"
        p.write_text(json.dumps({"flip_p": 0.1}))
        nm = load_calibration(str(p))
        assert nm.flip_p == 0.1
        assert nm.phase_p == 0.0
        assert lookup_readout(nm.readout, [3]) == [(0.0, 0.0)]

    def test_flip_plus_phase(self, tmp_path):
        p = tmp_path / "cal.json"
        p.write_text(json.dumps({"flip_p": 0.1, "phase_p": 0.1}))
        nm = load_calibration(str(p))
        assert nm.flip_p == 0.1 and nm.phase_p == 0.1

    def test_out_of_range_probability(self):
        with pytest.raises(CalibrationError, match="flip_p"):
            noise_model_from_dict({"flip_p": 1.5})

    def test_field_path_in_error(self):
        with pytest.raises(CalibrationError, match=r"readout\[0\]\.p01"):
            noise_model_from_dict({"readout": [{"qubit": 0, "p01": -0.2}]})

    def test_unknown_field(self):
        with pytest.raises(CalibrationError, match="t1_us"):
            noise_model_from_dict({"t1_us": 80})

    def test_full_file(self, tmp_path):
        p = tmp_path / "cal.json"
        p.write_text(
            json.dumps(
                {
                    "flip_p": 0.01,
                    "phase_p": 0.02,
                    "depol_p": 0.03,
                    "readout": [{"qubit": 1, "p01": 0.1, "p10": 0.05}],
                    "qubit_multipliers": [{"qubit": 2, "factor": 2.0}],
                }
            )
        )
        nm = load_calibration(str(p))
        assert lookup_readout(nm.readout, [1]) == [(0.1, 0.05)]
        assert nm.multiplier_for(2) == 2.0
        assert nm.multiplier_for(0) == 1.0

    def test_shorthand(self):
        nm = parse_noise_shorthand("flip:0.01,phase:0.02")
        assert nm.flip_p == 0.01 and nm.phase_p == 0.02
        nm = parse_noise_shorthand("readout:0.1")
        assert lookup_readout(nm.readout, [0]) == [(0.1, 0.1)]
        with pytest.raises(CalibrationError):
            parse_noise_shorthand("wobble:0.1")

    def test_shorthand_readout_covers_every_qubit(self):
        """The readout shorthand is one wildcard entry, so a neuron routed onto
        physical qubit 100 of a large device reads at the shorthand rate;
        listed qubits still win over it."""
        nm = parse_noise_shorthand("readout:0.03")
        assert lookup_readout(nm.readout, [0, 63, 64, 100, 10_000]) == [(0.03, 0.03)] * 5
        listed = NoiseModel(readout=((5, 0.2, 0.1), *nm.readout))
        assert lookup_readout(listed.readout, [5, 100]) == [(0.2, 0.1), (0.03, 0.03)]
        # a 128-qubit device whose only coupler is 100-101 holds the neuron there
        w, x = (1, 1, 1, 1), np.full((1, 4), 0.5)  # w.x / 2 = 1: reads 00 unless misread
        mapped = compile(neuron_circuit(w), CouplingGraph(128, frozenset({(100, 101)})))
        assert mapped.chain == (100, 101)
        out = neuron_outputs(w, mapped, Scoring(Dataset(((tuple(x[0]), 0),), 0), "density", nm))
        assert out[0] == pytest.approx((1.0 - 0.03) ** 2, abs=1e-12)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "cal.json"
        p.write_text("{not json")
        with pytest.raises(CalibrationError):
            load_calibration(str(p))


class TestBind:
    def test_zero_model_attaches_nothing(self):
        m = compile(Circuit(4, 2, (gate(K.CNZ, 0, 1, 2, 3),)), linear_chain(6))
        b = bind(NoiseModel(), m)
        assert b.total_events == 0

    def test_single_x_gate_gets_one_flip(self):
        b = bind_gates(NoiseModel(flip_p=0.01), [Gate(K.X, (3,))])
        assert b.events == ((("flip", (3,), 0.01),),)

    def test_affected_sets(self):
        nm = NoiseModel(flip_p=0.01, phase_p=0.02)
        gates = [Gate(K.H, (0,)), Gate(K.Z, (1,)), Gate(K.CX, (0, 1)), Gate(K.CCX, (0, 1, 2))]
        b = bind_gates(nm, gates)
        assert b.events[0] == ()  # H is in neither affected set
        assert b.events[1] == (("phase", (1,), 0.02),)
        assert {e[0] for e in b.events[2]} == {"flip"}
        assert len(b.events[2]) == 2
        assert len(b.events[3]) == 3  # CCX as a unit: one flip per touched qubit

    def test_swap_pays_three_cx(self):
        b = bind_gates(NoiseModel(flip_p=0.01), [Gate(K.SWAP, (0, 1))])
        assert len(b.events[0]) == 6  # 3 constituent CX, 2 qubits each
        assert all(kind == "flip" for kind, _, _ in b.events[0])

    def test_bridge_pays_three_cx(self):
        b = bind_gates(NoiseModel(flip_p=0.01), [Gate(K.BRIDGE3, (0, 1, 2))])
        qubits = [q for _, (q,), _ in b.events[0]]
        assert qubits == [0, 1, 1, 2, 0, 1]

    def test_phase_does_not_touch_swap(self):
        b = bind_gates(NoiseModel(phase_p=0.5), [Gate(K.SWAP, (0, 1))])
        assert b.events[0] == ()

    def test_multipliers_scale_flip(self):
        nm = NoiseModel(flip_p=0.01, qubit_multipliers=((1, 3.0),))
        b = bind_gates(nm, [Gate(K.CX, (0, 1))])
        assert b.events[0] == (("flip", (0,), 0.01), ("flip", (1,), pytest.approx(0.03)))

    def test_depol_attaches_per_gate(self):
        b = bind_gates(NoiseModel(depol_p=0.05), [Gate(K.H, (0,)), Gate(K.CZ, (0, 1))])
        assert b.events[0] == (("depol", (0,), 0.05),)
        assert b.events[1] == (("depol", (0, 1), 0.05),)

    def test_binding_is_deterministic(self):
        c = Circuit(4, 2, (gate(K.CNZ, 0, 1, 2, 3),))
        nm = NoiseModel(flip_p=0.01, phase_p=0.02)
        m1 = compile(c, linear_chain(6))
        m2 = compile(c, linear_chain(6))
        assert bind(nm, m1) == bind(nm, m2)


class TestApplyReadout:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(0)
        bits = np.array([[0, 1, 1, 0]])
        out = apply_readout(bits, [(0.0, 0.0)] * 4, rng.random(bits.shape))
        assert out.tolist() == bits.tolist()

    def test_saturated_flip(self):
        rng = np.random.default_rng(0)
        bits = np.array([[1, 0]])
        out = apply_readout(bits, [(0.0, 1.0), (1.0, 0.0)], rng.random(bits.shape))
        assert out.tolist() == [[0, 1]]

    def test_monte_carlo_rate(self):
        rng = np.random.default_rng(123)
        trials = 100_000
        bits = np.zeros((trials, 1), dtype=np.int64)
        flips = apply_readout(bits, [(0.1, 0.0)], rng.random(bits.shape)).sum()
        assert abs(flips / trials - 0.1) < 0.005

    def test_rates_follow_the_true_bit_per_column(self):
        # column j reads its own pair: p01 for a true 0, p10 for a true 1
        bits = np.array([[0, 1], [1, 0]])
        u = np.full(bits.shape, 0.3)
        out = apply_readout(bits, [(0.5, 0.1), (0.1, 0.5)], u)
        assert out.tolist() == [[1, 0], [1, 0]]


class TestChannelAlgebra:
    def test_flip_twice_equals_combined_rate(self):
        # two flip channels at p compose to one at 2p(1-p)
        p = 0.2
        gates = [Gate(K.X, (0,)), Gate(K.X, (0,))]
        twice = BoundNoise(events=((("flip", (0,), p),), (("flip", (0,), p),)))
        once = BoundNoise(events=((), (("flip", (0,), 2 * p * (1 - p)),)))
        d1 = DensityProgram(gates, 1, twice).distribution()
        d2 = DensityProgram(gates, 1, once).distribution()
        for k in set(d1) | set(d2):
            assert d1.get(k, 0.0) == pytest.approx(d2.get(k, 0.0), abs=1e-12)

    def test_flip_half_after_x(self):
        # X then flip at p=0.5 from |0>: P(1) = 0.5
        b = bind_gates(NoiseModel(flip_p=0.5), [Gate(K.X, (0,))])
        d = run_density(Circuit(1, 0, (gate(K.X, 0),)), b)
        assert d["1"] == pytest.approx(0.5, abs=1e-12)
        assert d["0"] == pytest.approx(0.5, abs=1e-12)

    def test_phase_invisible_on_basis_states(self):
        b = bind_gates(NoiseModel(phase_p=0.3), [Gate(K.Z, (0,))])
        d = run_density(Circuit(1, 0, (gate(K.Z, 0),)), b)
        assert d["0"] == pytest.approx(1.0, abs=1e-12)

    def test_qubit_flip_rate_exact_on_oracle(self):
        p = 0.07
        b = BoundNoise(events=((("flip", (0,), p),),))
        d = DensityProgram([Gate(K.X, (0,))], 1, b).distribution(np.array([0, 1], dtype=complex))
        # X maps |1> to |0>, then flip sends it back with probability p
        assert d.get("1", 0.0) == pytest.approx(p, abs=1e-12)
