"""Backend tests: exact gate application, channels, trajectories, reproducibility."""
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnz.ir import ARITY, Circuit, Gate, GateKind, gate
from qnz.noise import BoundNoise, NoiseModel, bind_gates, lookup_readout, parse_noise_shorthand
from qnz import simulator
from qnz.simulator import (
    SV_WIDTH_CAP,
    TRAJ_BLOCK,
    DensityProgram,
    MappedPlan,
    ShotCounts,
    basis_state,
    born_distribution,
    effect_matrix,
    pauli_steps,
    pull_back,
    push_forward,
    readout_effect,
    run_density,
    run_gates_ideal,
    run_ideal,
    run_trajectories,
    state_from_amplitudes,
    total_variation,
    trajectory_counts,
    zero_effect,
)

from oracle import (
    apply_channels,
    bit_of,
    circuit_unitary,
    density_outcome_probabilities,
    gate_unitary,
    pauli_operator,
    pauli_string,
    random_state,
)

K = GateKind
INV_SQRT2 = 1 / np.sqrt(2)

# (kind, axes) on 4 qubits: every kind, both orders of each 2-qubit kind,
# neighbouring and distant axes
_KIND_CASES = [
    (K.X, (1,)), (K.Y, (2,)), (K.Z, (0,)), (K.H, (3,)), (K.S, (1,)), (K.T, (2,)), (K.TDG, (3,)),
    (K.CX, (1, 2)), (K.CX, (2, 1)), (K.CX, (0, 3)), (K.CX, (3, 1)), (K.CZ, (0, 1)), (K.CZ, (3, 0)),
    (K.SWAP, (2, 3)), (K.SWAP, (3, 0)), (K.BRIDGE3, (0, 1, 2)), (K.BRIDGE3, (3, 1, 0)),
    (K.CCX, (2, 0, 3)), (K.CNZ, (1, 3)), (K.CNZ, (3, 0, 2)), (K.CNZ, (2, 0, 1, 3)),
]


class TestRunIdeal:
    def test_h_on_zero(self):
        psi = run_ideal(Circuit(1, 0, (gate(K.H, 0),)))
        assert np.allclose(psi, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_cz_phase_flip(self):
        init = basis_state(2, 0b11)
        psi = run_ideal(Circuit(2, 0, (gate(K.CZ, 0, 1),)), init)
        assert psi[0b11] == pytest.approx(-1.0, abs=1e-12)

    def test_cnz_matches_diagonal(self):
        rng = np.random.default_rng(17)
        c = Circuit(4, 2, (gate(K.CNZ, 0, 1, 2, 3),))
        from qnz.ir import expand_to_basis

        expanded = expand_to_basis(c)
        for _ in range(5):
            comp = random_state(4, rng)
            init = np.kron(comp, basis_state(2))
            want = run_ideal(c, init)
            got = run_ideal(expanded, init)
            assert np.max(np.abs(want - got)) < 1e-10

    def test_expanded_cnz3_on_random_six_qubit_states(self):
        # full-width check: direct diagonal application vs the expanded network
        rng = np.random.default_rng(29)
        c = Circuit(4, 2, (gate(K.CNZ, 0, 1, 2, 3),))
        from qnz.ir import expand_to_basis

        expanded = expand_to_basis(c)
        diag = np.ones(16)
        diag[0b1111] = -1.0
        for _ in range(5):
            comp = random_state(4, rng)
            init = np.kron(comp, basis_state(2))
            got = run_ideal(expanded, init).reshape(16, 4)
            want = diag * comp
            assert np.max(np.abs(got[:, 0] - want)) < 1e-10
            assert np.max(np.abs(got[:, 1:])) < 1e-10

    def test_all_kinds_match_oracle(self):
        rng = np.random.default_rng(23)
        gates = [
            gate(K.X, 0),
            gate(K.Y, 1),
            gate(K.Z, 2),
            gate(K.H, 0),
            gate(K.S, 1),
            gate(K.T, 2),
            gate(K.TDG, 0),
            gate(K.CX, 0, 2),
            gate(K.CZ, 1, 2),
            gate(K.SWAP, 0, 1),
            gate(K.CCX, 2, 0, 1),
            gate(K.BRIDGE3, 0, 1, 2),
            gate(K.CNZ, 1, 2, 0),
        ]
        u = circuit_unitary(gates, 3)
        init = random_state(3, rng)
        psi = run_gates_ideal(gates, 3, init)
        assert np.max(np.abs(psi - u @ init)) < 1e-10

    def test_width_cap(self):
        with pytest.raises(ValueError):
            run_gates_ideal([], 21)

    @pytest.mark.parametrize("kind, axes", _KIND_CASES, ids=lambda v: str(getattr(v, "value", v)))
    def test_batch_columns_evolve_as_states(self, kind, axes):
        # H and T layers around the gate, so no column stays a basis state
        n = 4
        gates = [Gate(K.H, (q,)) for q in range(n)] + [Gate(kind, axes)]
        gates += [Gate(K.T, (q,)) for q in range(n)]
        u = run_gates_ideal(gates, n, np.eye(2**n))
        assert u.shape == (2**n, 2**n)
        assert np.max(np.abs(u - circuit_unitary(gates, n))) <= 1e-12
        rng = np.random.default_rng(len(axes) * 10 + axes[0])
        batch = np.stack([random_state(n, rng) for _ in range(5)], axis=1)
        out = run_gates_ideal(gates, n, batch)
        for j in range(batch.shape[1]):
            assert np.max(np.abs(out[:, j] - run_gates_ideal(gates, n, batch[:, j]))) <= 1e-12

    def test_norm_preserved_over_many_gates(self):
        rng = np.random.default_rng(3)
        kinds_1q = [K.X, K.Y, K.Z, K.H, K.S, K.T, K.TDG]
        psi = random_state(4, rng)
        gates = []
        for _ in range(10_000):
            if rng.random() < 0.5:
                gates.append(gate(kinds_1q[rng.integers(len(kinds_1q))], int(rng.integers(4))))
            else:
                a, b = rng.choice(4, size=2, replace=False)
                gates.append(gate(K.CX if rng.random() < 0.5 else K.CZ, int(a), int(b)))
        out = run_gates_ideal(gates, 4, psi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9


class TestBornDistribution:
    def test_equal_superposition(self):
        psi = np.array([INV_SQRT2, INV_SQRT2])
        assert born_distribution(psi, [0]) == pytest.approx({"0": 0.5, "1": 0.5})

    def test_squared_amplitudes(self):
        psi = np.array([0.6, 0.8])
        d = born_distribution(psi, [0])
        assert d["0"] == pytest.approx(0.36)
        assert d["1"] == pytest.approx(0.64)

    def test_bell_marginal(self):
        psi = np.zeros(4, dtype=complex)
        psi[0b00] = psi[0b11] = INV_SQRT2
        assert born_distribution(psi, [0]) == pytest.approx({"0": 0.5, "1": 0.5})

    def test_measured_order(self):
        psi = basis_state(2, 0b01)  # qubit 0 = 0, qubit 1 = 1
        assert born_distribution(psi, [1, 0]) == {"10": 1.0}


class TestStateHelpers:
    def test_norm_validation(self):
        with pytest.raises(ValueError):
            state_from_amplitudes([1.0, 1.0])
        psi = state_from_amplitudes([INV_SQRT2, INV_SQRT2])
        assert psi.dtype == complex

    def test_power_of_two(self):
        with pytest.raises(ValueError):
            state_from_amplitudes([1.0, 0.0, 0.0])


def _random_density_case(rng: np.random.Generator, n: int):
    """Every 1-qubit kind, CX/CZ/SWAP and (from width 3) one CCX, one BRIDGE3
    and one CNZ on min(n, 4) qubits, shuffled, with flip + phase + depol bound,
    a readout table on qubits 0 and n-1 and a `readout:` wildcard for the
    others; the measured subset is reordered and, from width 3, drops one qubit."""
    gates = [Gate(k, (int(rng.integers(n)),)) for k in (K.X, K.Y, K.Z, K.H, K.S, K.T, K.TDG)]
    for k in (K.CX, K.CZ, K.SWAP):
        gates.append(Gate(k, tuple(int(q) for q in rng.choice(n, 2, replace=False))))
    if n >= 3:
        for k, arity in ((K.CCX, 3), (K.BRIDGE3, 3), (K.CNZ, min(n, 4))):
            gates.append(Gate(k, tuple(int(q) for q in rng.choice(n, arity, replace=False))))
    gates = [gates[i] for i in rng.permutation(len(gates))]
    nm = NoiseModel(flip_p=0.07, phase_p=0.05, depol_p=0.04,
                    readout=((0, 0.03, 0.08), (n - 1, 0.06, 0.02), (None, 0.04, 0.05)))
    middle = [int(q) for q in rng.permutation(np.arange(1, n - 1))[: max(0, n - 3)]]
    return gates, bind_gates(nm, gates), [n - 1] + middle + [0]


class TestDensityAgainstKraus:
    @pytest.mark.parametrize("n", [2, 3, 6, 7, 8])
    def test_matches_explicit_channel_evolution(self, n):
        rng = np.random.default_rng(700 + n)
        gates, bound, measured = _random_density_case(rng, n)
        assert {len(g.qubits) for g in gates} == ({1, 2, 3, min(n, 4)} if n >= 3 else {1, 2})
        init = random_state(n, rng)
        got = DensityProgram(gates, n, bound, measured).distribution(init)
        want = density_outcome_probabilities(
            gates, n, bound.events, init, measured, lookup_readout(bound.readout, measured)
        )
        m = len(measured)
        got_vec = np.array([got.get(format(i, f"0{m}b"), 0.0) for i in range(2**m)])
        assert np.max(np.abs(got_vec - want)) < 1e-12


class TestDensityBatching:
    @pytest.mark.parametrize("n, inputs, chunks", [(4, 300, 2), (8, 3, 3)])
    def test_probabilities_match_rowwise_distribution(self, n, inputs, chunks):
        # inputs evolve together on a trailing axis; a row does not depend on
        # the rows it is evolved with
        rng = np.random.default_rng(40 + n)
        gates, bound, measured = _random_density_case(rng, n)
        prog = DensityProgram(gates, n, bound, measured)
        inits = np.array([random_state(n, rng) for _ in range(inputs)])
        probs = prog.probabilities(inits)
        m = len(measured)
        assert probs.shape == (inputs, 2**m)
        parts = np.concatenate([prog.probabilities(c) for c in np.array_split(inits, chunks)])
        assert np.max(np.abs(probs - parts)) < 1e-12
        for row, init in zip(probs, inits):
            d = prog.distribution(init)
            want = np.array([d.get(format(i, f"0{m}b"), 0.0) for i in range(2**m)])
            assert np.max(np.abs(row - want)) < 1e-12

    def test_neuron_outputs_are_the_all_zeros_column(self):
        from qnz.mapper import compile
        from qnz.qnn import Dataset, Scoring, neuron_circuit, neuron_outputs
        from qnz.simulator import plan_mapped_run
        from qnz.topology import linear_chain

        rng = np.random.default_rng(8)
        w = (1, -1, -1, 1, 1, 1, -1, 1)
        mapped = compile(neuron_circuit(w), linear_chain(4))
        nm = NoiseModel(flip_p=0.05, phase_p=0.03, depol_p=0.01, readout=((1, 0.04, 0.02),))
        xs = rng.normal(size=(20, 8))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        plan = plan_mapped_run(mapped, bind_gates(nm, mapped.physical_gates))
        prog = DensityProgram(plan.gates, plan.n, plan.bound, plan.measured)
        want = prog.probabilities([plan.embed(x) for x in xs])[:, 0]
        # scored by the adjoint pass, checked against the forward engine
        got = neuron_outputs(w, mapped, Scoring(Dataset(tuple((tuple(x), 0) for x in xs), 0), "density", nm))
        assert np.max(np.abs(got - want)) <= 1e-12


class TestZeroEffect:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_forward_engine_and_oracle(self, n):
        """x^dagger E x equals P(0...0) of the explicit-matrix evolution and
        of DensityProgram, with every gate kind (BRIDGE3 and CNZ included
        from width 3) and flip, phase and depol on 1- to 4-qubit gates.
        E is held as 4^n real Pauli coefficients."""
        rng = np.random.default_rng(900 + n)
        gates, _, measured = _random_density_case(rng, n)
        # H T H on every qubit last, so the effect is complex and a swapped
        # conj (U E U^dagger in place of U^dagger E U) shows
        gates += [Gate(k, (q,)) for q in range(n) for k in (K.H, K.T, K.H)]
        nm = NoiseModel(flip_p=0.07, phase_p=0.05, depol_p=0.04,
                        readout=((0, 0.03, 0.08), (n - 1, 0.06, 0.02)))
        bound = bind_gates(nm, gates)
        pairs = lookup_readout(bound.readout, measured)
        coeffs = zero_effect(gates, n, bound, measured)
        assert coeffs.shape == (4,) * n and coeffs.dtype == np.float64
        eff = effect_matrix(coeffs)
        assert eff.shape == (2**n, 2**n) and np.max(np.abs(eff.imag)) > 1e-3
        assert np.max(np.abs(eff - eff.conj().T)) < 1e-15
        inits = np.array([random_state(n, rng) for _ in range(3)])
        got = np.einsum("si,ij,sj->s", inits.conj(), eff, inits).real
        forward = DensityProgram(gates, n, bound, measured).probabilities(inits)[:, 0]
        assert np.max(np.abs(got - forward)) <= 1e-12
        want = density_outcome_probabilities(gates, n, bound.events, inits[0], measured, pairs)[0]
        assert abs(got[0] - want) <= 1e-12

    def test_noiseless_effect_is_the_pulled_back_projector(self):
        rng = np.random.default_rng(31)
        gates, _, measured = _random_density_case(rng, 4)
        u = circuit_unitary(gates, 4)
        proj = np.diag([float(all(bit_of(i, q, 4) == 0 for q in measured)) for i in range(16)])
        coeffs = zero_effect(gates, 4, None, measured)
        assert np.max(np.abs(pauli_operator(coeffs) - u.conj().T @ proj @ u)) < 1e-14
        assert np.max(np.abs(effect_matrix(coeffs) - pauli_operator(coeffs))) < 1e-15

    def test_width_cap(self):
        with pytest.raises(ValueError):
            zero_effect([], simulator.DENSITY_WIDTH_CAP + 1, None)

    def test_mapped_plan_reads_out_on_dense_axes(self):
        """On a 3x3 grid the chain is physical 0-1-2-5, so dense axis 3 is
        physical qubit 5 and physical qubit 3 is unused. A plan's bound noise
        carries its readout on dense axes: the measured qubits read the
        (p01, p10) of the physical qubits they end on, never qubit 3's."""
        from qnz.mapper import compile
        from qnz.qnn import neuron_circuit, weights_from_code
        from qnz.simulator import plan_mapped_run
        from qnz.topology import coupling_graph

        grid = coupling_graph(9, [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
                              + [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)])
        mapped = compile(neuron_circuit(weights_from_code(0b10010110, 8)), grid)
        finals = [mapped.final_mapping.physical_of(q) for q in range(3)]
        nm = NoiseModel(flip_p=0.02, phase_p=0.03, depol_p=0.01, readout=(
            (3, 0.2, 0.15), (5, 0.03, 0.08), (2, 0.06, 0.02), (0, 0.1, 0.05),
        ))
        plan = plan_mapped_run(mapped, bind_gates(nm, mapped.physical_gates))
        assert 5 in finals and sorted(plan.measured) != sorted(finals)
        eff = effect_matrix(zero_effect(plan.gates, plan.n, plan.bound, plan.measured))
        rng = np.random.default_rng(41)
        # no qubit multipliers, so binding the dense gates gives the dense events
        events = bind_gates(nm, plan.gates).events
        pairs = lookup_readout(nm.readout, finals)
        for _ in range(2):
            psi = plan.embed(random_state(3, rng))
            want = density_outcome_probabilities(plan.gates, plan.n, events, psi, plan.measured, pairs)[0]
            assert abs(np.vdot(psi, eff @ psi).real - want) <= 1e-12


@st.composite
def _noisy_plan(draw):
    """A random plan on 1-8 dense axes: gates of every kind that fits, each
    followed by random flip, phase and 1- or 2-qubit depol events, with
    per-qubit readout entries and maybe a `readout:` wildcard; k computing
    qubits start and end on random axes."""
    n = draw(st.integers(1, 8))
    rate = st.floats(0.0, 0.3)
    gates, events = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from([k for k in GateKind if (ARITY[k] or 2) <= n]))
        axes = draw(st.permutations(range(n)))
        gates.append(Gate(kind, tuple(axes[: ARITY[kind] or draw(st.integers(2, n))])))
        evs = [(name, (draw(st.integers(0, n - 1)),), draw(rate))
               for name in draw(st.lists(st.sampled_from(["flip", "phase", "depol"]), max_size=3))]
        if n >= 2 and draw(st.booleans()):
            evs.append(("depol", tuple(draw(st.permutations(range(n)))[:2]), draw(rate)))
        events.append(tuple(evs))
    readout = [(q, draw(rate), draw(rate)) for q in draw(st.lists(st.integers(0, n - 1), max_size=n))]
    if draw(st.booleans()):
        readout.append((None, draw(rate), draw(rate)))
    k = draw(st.integers(1, n))
    starts, ends = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    bound = BoundNoise(events=tuple(events), readout=tuple(readout))
    return MappedPlan(n, tuple(gates), k, tuple(starts[:k]), tuple(ends[:k]), (), bound)


class TestPauliEngine:
    """The adjoint pass holds an effect as real coefficients over Pauli
    strings; each step checked against the oracle's explicit matrices."""

    @pytest.mark.parametrize("kind, axes", _KIND_CASES, ids=lambda v: str(getattr(v, "value", v)))
    def test_gate_step_is_the_conjugation(self, kind, axes):
        rng = np.random.default_rng(len(axes) * 10 + axes[0])
        coeffs = rng.normal(size=(4,) * 4)
        u = gate_unitary(Gate(kind, axes), 4)
        got = pull_back(coeffs.copy(), pauli_steps([Gate(kind, axes)], [()]))
        want = u.conj().T @ pauli_operator(coeffs) @ u
        assert got.dtype == np.float64
        assert np.max(np.abs(pauli_operator(got) - want)) <= 1e-12

    @pytest.mark.parametrize("event", [
        ("flip", (1,), 0.1), ("phase", (3,), 0.2), ("depol", (0,), 0.15),
        ("depol", (3, 1), 0.1), ("depol", (2, 0, 3), 0.3),
    ])
    def test_event_step_is_the_channel(self, event):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=(4,) * 4)
        kind, qubits, p = event
        strings = {"flip": [(1,)], "phase": [(3,)]}.get(
            kind, [d for d in product(range(4), repeat=len(qubits)) if any(d)])
        e = pauli_operator(coeffs)
        hits = [pauli_string(d, qubits, 4) for d in strings]
        want = (1 - p) * e + p / len(hits) * sum(h @ e @ h for h in hits)
        # the event follows the second of two Z gates, whose product is the identity
        gates = [Gate(K.Z, (0,)), Gate(K.Z, (0,))]
        got = pull_back(coeffs.copy(), pauli_steps(gates, [(), (event,)]))
        assert np.max(np.abs(pauli_operator(got) - want)) <= 1e-12

    def test_readout_start_is_the_folded_projector(self):
        bound = BoundNoise(events=(), readout=((2, 0.1, 0.3), (None, 0.05, 0.02)))
        measured = [2, 0]
        pairs = lookup_readout(bound.readout, measured)
        diag = np.ones(16)
        for i in range(16):
            for q, (p01, p10) in zip(measured, pairs):
                diag[i] *= p10 if bit_of(i, q, 4) else 1.0 - p01
        coeffs = readout_effect(4, bound, measured)
        assert np.max(np.abs(pauli_operator(coeffs) - np.diag(diag))) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(plan=_noisy_plan(), seed=st.integers(0, 2**32 - 1))
    def test_scoring_matches_oracle_and_forward_engine(self, plan, seed):
        """score_run's exact path (zero_effect, then effect_outputs, which
        sums the I and Z slices of every other axis) against the forward
        engine and the oracle's Kraus evolution, on complex inputs and on the
        real samples of a dataset, which score_run scores through that path."""
        from qnz.qnn import Dataset, Scoring, effect_outputs, score_run

        rng = np.random.default_rng(seed)
        xs = np.array([random_state(plan.num_computing, rng) for _ in range(3)])
        reals = np.abs(xs) / np.linalg.norm(np.abs(xs), axis=1, keepdims=True)
        eff = zero_effect(plan.gates, plan.n, plan.bound, plan.measured)
        got = score_run(0, plan, Scoring(Dataset(tuple((tuple(x), 0) for x in reals), 0), "density"))
        assert np.array_equal(got, effect_outputs(eff, plan, reals))
        pairs = lookup_readout(plan.bound.readout, plan.measured)
        for inputs in (xs, reals):
            got = effect_outputs(eff, plan, inputs)
            psis = [plan.embed(x) for x in inputs]
            forward = DensityProgram(plan.gates, plan.n, plan.bound, plan.measured).probabilities(psis)[:, 0]
            assert np.max(np.abs(got - forward)) <= 1e-12
            want = density_outcome_probabilities(
                plan.gates, plan.n, plan.bound.events, psis[0], plan.measured, pairs
            )
            assert abs(got[0] - want[0]) <= 1e-12


@st.composite
def _gate_events(draw, axes):
    """Up to four flip, phase, 1- or 2-qubit depol events on random qubits
    of `axes` or of any axis of the width."""
    n = draw(st.integers(max(axes, default=0) + 1, 6))
    events = []
    for name in draw(st.lists(st.sampled_from(["flip", "phase", "depol", "depol2"]), max_size=4)):
        pool = list(axes) if draw(st.booleans()) else list(range(n))
        qubits = draw(st.permutations(pool))[:2 if name == "depol2" else 1]
        events.append((name[:5], tuple(qubits), draw(st.floats(0.0, 0.5))))
    return n, tuple(events)


@st.composite
def _random_gate(draw):
    """A gate of any kind that fits a width of 1-6, on random axes."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from([k for k in GateKind if (ARITY[k] or 2) <= n]))
    axes = draw(st.permutations(range(n)))[: ARITY[kind] or draw(st.integers(2, n))]
    return kind, tuple(axes)


def _sparse_coeffs(rng, n: int, batch: tuple[int, ...]) -> np.ndarray:
    """Pauli coefficients with up to six random strings per column, so the
    oracle's operators stay cheap to build at width 6."""
    cols = np.zeros((4**n, int(np.prod(batch))))
    for col in cols.T:
        strings = rng.choice(4**n, size=min(4**n, 6), replace=False)
        col[strings] = rng.normal(size=len(strings))
    return cols.reshape((4,) * n + batch)


def _sparse_operator(coeffs: np.ndarray) -> np.ndarray:
    """The oracle's sum_P c_P P over the nonzero coefficients of one column."""
    n = coeffs.ndim
    op = np.zeros((2**n, 2**n), dtype=complex)
    for digits in zip(*np.nonzero(coeffs)):
        op += coeffs[digits] * pauli_string(digits, range(n), n)
    return op


def _check_steps(kind, axes, n: int, events, batch, seed: int) -> None:
    """One gate and its events as steps, both ways, against the oracle:
    pull_back is E -> U^dagger N(E) U and push_forward rho -> N(U rho
    U^dagger), on every column of a trailing batch."""
    rng = np.random.default_rng(seed)
    u = gate_unitary(Gate(kind, axes), n)
    steps = pauli_steps([Gate(kind, axes)], [events])
    coeffs = _sparse_coeffs(rng, n, batch)
    back = pull_back(coeffs.copy(), steps)
    forward = push_forward(coeffs.copy(), steps)
    assert back.shape == forward.shape == coeffs.shape
    cols = [c.reshape((4,) * n + (-1,)) for c in (coeffs, back, forward)]
    for j in range(cols[0].shape[-1]):
        op = _sparse_operator(cols[0][..., j])
        want_back = u.conj().T @ apply_channels(op, events, n) @ u
        want_forward = apply_channels(u @ op @ u.conj().T, events, n)
        assert np.max(np.abs(_sparse_operator(cols[1][..., j]) - want_back)) <= 1e-12
        assert np.max(np.abs(_sparse_operator(cols[2][..., j]) - want_forward)) <= 1e-12


class TestPauliSteps:
    """Each gate and its channels are one step (`pauli_steps`): channels on
    the gate's own axes fold into its operand, the rest stay apart, and the
    kernel follows the view's shape (a batch of 17 puts every axis on the
    wide view, none or 1 the last axes on rows). Checked both ways against
    the oracle's explicit matrices."""

    @pytest.mark.parametrize("kind, axes", _KIND_CASES, ids=lambda v: str(getattr(v, "value", v)))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), batch=st.sampled_from([(), (1,), (17,)]), seed=st.integers(0, 2**32 - 1))
    def test_kind_cases_match_oracle(self, kind, axes, data, batch, seed):
        n, events = data.draw(_gate_events(axes))
        _check_steps(kind, axes, n, events, batch, seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), batch=st.sampled_from([(), (1,), (17,)]), seed=st.integers(0, 2**32 - 1))
    def test_random_gates_match_oracle(self, data, batch, seed):
        kind, axes = data.draw(_random_gate())
        n, events = data.draw(_gate_events(axes))
        _check_steps(kind, axes, max(n, max(axes) + 1), events, batch, seed)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 6), batch=st.sampled_from([(), (1,), (17,)]), seed=st.integers(0, 2**32 - 1))
    def test_any_cut_is_the_whole_pass(self, n, batch, seed):
        """A 20-gate list's steps, built whole or as the two pieces of any
        cut at a gate boundary, give the same bits both ways: each step
        depends on its own gate alone, which the evaluator's memo rests on."""
        rng = np.random.default_rng(seed)
        kinds = [k for k in GateKind if (ARITY[k] or 2) <= n]
        gates, events = [], []
        for _ in range(20):
            kind = kinds[rng.integers(len(kinds))]
            axes = [int(q) for q in rng.permutation(n)[: ARITY[kind] or rng.integers(2, n + 1)]]
            gates.append(Gate(kind, tuple(axes)))
            evs = []
            for name, size in [("flip", 1), ("phase", 1), ("depol", 1), ("depol", 2)][: rng.integers(5)]:
                pool = axes if rng.random() < 0.7 else list(range(n))
                if size <= len(pool):
                    qubits = tuple(int(q) for q in rng.permutation(pool)[:size])
                    evs.append((name, qubits, float(rng.uniform(0.0, 0.3))))
            events.append(tuple(evs))
        coeffs = rng.normal(size=(4,) * n + batch)
        whole = pauli_steps(gates, events)
        want_back = pull_back(coeffs.copy(), whole)
        want_forward = push_forward(coeffs.copy(), whole)
        for cut in range(len(gates) + 1):
            head, tail = pauli_steps(gates[:cut], events[:cut]), pauli_steps(gates[cut:], events[cut:])
            assert np.array_equal(pull_back(pull_back(coeffs.copy(), tail), head), want_back), cut
            assert np.array_equal(push_forward(push_forward(coeffs.copy(), head), tail), want_forward), cut


class TestSharedSuffixes:
    """pull_back composes over segments: a circuit's effect continued from a
    copy of the effect another circuit pulled back through the same tail is
    bit for bit its uncached zero_effect. The evaluator's suffix store
    (trainer.Evaluator) rests on this."""

    @staticmethod
    def _circuits(n: int):
        """Circuits over four random segments that share tails, bound under
        two noise models with one readout table, so equal gates may carry
        different events (the second leaves most gates without any, so steps
        act in place); the last two repeat earlier ones exactly. A segment's
        id is its (segment, noise model) pair."""
        rng = np.random.default_rng(950 + n)
        segs = [_random_density_case(rng, n)[0][: 4 + s] for s in range(4)]
        readout = ((0, 0.03, 0.08), (n - 1, 0.06, 0.02))
        noises = [NoiseModel(flip_p=0.07, phase_p=0.05, depol_p=0.04, readout=readout),
                  NoiseModel(flip_p=0.02, phase_p=0.05, readout=readout)]
        out = []
        for order, nm in [((0, 1, 2), 0), ((3, 1, 2), 0), ((2,), 0), ((1, 2), 0), ((0, 3, 2), 0),
                          ((3, 1, 2), 1), ((1, 2), 1), ((0, 1, 2), 0), ((3, 1, 2), 1)]:
            gates = [g for s in order for g in segs[s]]
            starts = np.cumsum([0, *(len(segs[s]) for s in order)]).tolist()
            out.append((gates, bind_gates(noises[nm], gates),
                        [((s, nm), lo, hi) for s, lo, hi in zip(order, starts, starts[1:])]))
        return out

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_equals_uncached_pass(self, n):
        measured = [n - 1, 0]
        stored: dict = {}
        walked = total = 0
        for gates, bound, segments in self._circuits(n):
            want = zero_effect(gates, n, bound, measured)
            eff = readout_effect(n, bound, measured)
            for j in range(len(segments) - 1, -1, -1):
                suffix = tuple(seg for seg, _, _ in segments[j:])
                if suffix in stored:
                    eff = stored[suffix].copy()
                    continue
                _, lo, hi = segments[j]
                eff = pull_back(eff, pauli_steps(gates[lo:hi], bound.events[lo:hi]))
                stored[suffix] = eff.copy()
                walked += hi - lo
            assert np.array_equal(eff, want)
            total += len(gates)
        assert 0 < walked < total


class TestDepolarizingChannel:
    """A k-qubit depol event is (1 - l) rho + l I/2^k (x) Tr_k rho with
    l = p 4^k / (4^k - 1): one scaling of the Pauli strings not the identity
    on its qubits, in place of the 4^k - 1 Pauli strings (the step itself is
    TestPauliEngine.test_event_step_is_the_channel)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_pauli_sum_forward_and_adjoint(self, k):
        # through a circuit: the forward engine and the pulled-back effect
        # against the oracle's explicit Kraus evolution
        n, p = 4, 0.3
        rng = np.random.default_rng(60 + k)
        qubits = tuple(int(q) for q in rng.choice(n, k, replace=False))
        middle = Gate((K.H, K.CX, K.CCX)[k - 1], qubits)
        layer = [Gate(kind, (q,)) for q in range(n) for kind in (K.H, K.T)]
        gates = layer + [middle] + layer[::-1]
        bound = BoundNoise(events=tuple(
            (("depol", qubits, p),) if g is middle else () for g in gates
        ))
        measured, pairs = [2, 0, 1], [(0.0, 0.0)] * 3
        inits = np.array([random_state(n, rng) for _ in range(3)])
        want = np.array([
            density_outcome_probabilities(gates, n, bound.events, x, measured, pairs)
            for x in inits
        ])
        forward = DensityProgram(gates, n, bound, measured).probabilities(inits)
        assert np.max(np.abs(forward - want)) <= 1e-12
        eff = effect_matrix(zero_effect(gates, n, bound, measured))
        adjoint = np.einsum("si,ij,sj->s", inits.conj(), eff, inits).real
        assert np.max(np.abs(adjoint - want[:, 0])) <= 1e-12

    def test_all_qubit_cnz_at_width_8(self):
        """Depol on a CNZ over all 8 qubits (65,535 Pauli strings) leaves
        (1 - l) U rho U^dagger + l I/2^8, which the trailing H layer keeps."""
        n, p = 8, 0.2
        mixed = p * 4**n / (4**n - 1)
        rng = np.random.default_rng(88)
        cnz = Gate(K.CNZ, tuple(range(n)))
        gates = [Gate(kind, (q,)) for kind in (K.H, K.T) for q in range(n)]
        gates += [cnz] + [Gate(K.H, (q,)) for q in range(n)]
        bound = BoundNoise(events=tuple(
            (("depol", cnz.qubits, p),) if g is cnz else () for g in gates
        ))
        inits = np.array([random_state(n, rng) for _ in range(2)])
        ideal = np.array([np.abs(run_gates_ideal(gates, n, x)) ** 2 for x in inits])
        want = (1 - mixed) * ideal + mixed / 2**n
        assert np.max(np.abs(DensityProgram(gates, n, bound).probabilities(inits) - want)) <= 1e-12
        eff = effect_matrix(zero_effect(gates, n, bound))
        got = np.einsum("si,ij,sj->s", inits.conj(), eff, inits).real
        assert np.max(np.abs(got - want[:, 0])) <= 1e-12


class TestRunDensity:
    def test_zero_noise_matches_ideal(self):
        c = Circuit(2, 0, (gate(K.H, 0), gate(K.CX, 0, 1)))
        d = run_density(c, None, measured=[0, 1])
        psi = run_ideal(c)
        assert total_variation(d, born_distribution(psi, [0, 1])) < 1e-12

    def test_width_cap(self):
        with pytest.raises(ValueError):
            DensityProgram([], 11, None)

    def test_depolarizing_on_one_qubit(self):
        # depol p on |0>: X or Y hit with prob p/3 each -> P(1) = 2p/3
        p = 0.3
        b = BoundNoise(events=((("depol", (0,), p),),))
        d = run_density(Circuit(1, 0, (gate(K.Z, 0),)), b)
        assert d.get("1", 0.0) == pytest.approx(2 * p / 3, abs=1e-12)

    def test_readout_applied_to_distribution(self):
        nm = NoiseModel(readout=((0, 0.25, 0.0),))
        b = bind_gates(nm, [Gate(K.Z, (0,))])
        d = run_density(Circuit(1, 0, (gate(K.Z, 0),)), b)
        assert d["1"] == pytest.approx(0.25, abs=1e-12)
        assert d["0"] == pytest.approx(0.75, abs=1e-12)

    def test_measures_computing_qubits_by_default(self):
        c = Circuit(1, 1, (gate(K.H, 0),))
        d = run_density(c, None)
        assert set(d) == {"0", "1"}


class TestRunTrajectories:
    def test_zero_noise_empty_circuit(self):
        c = Circuit(3, 0, ())
        counts = run_trajectories(c, None, None, shots=200, seed=1)
        assert counts.counts == {"000": 200}
        assert counts.shots == 200

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            run_trajectories(Circuit(1, 0, ()), None, None, shots=0, seed=1)

    def test_thread_count_does_not_change_results(self):
        c = Circuit(2, 0, (gate(K.H, 0), gate(K.CX, 0, 1)))
        nm = NoiseModel(flip_p=0.05)
        b = bind_gates(nm, c.gates)
        one = run_trajectories(c, b, None, shots=3000, seed=42, measured=[0, 1])
        four = run_trajectories(c, b, None, shots=3000, seed=42, measured=[0, 1], threads=4)
        assert one.counts == four.counts

    def test_reproducible_across_calls(self):
        c = Circuit(2, 0, (gate(K.H, 0),))
        a = run_trajectories(c, None, None, shots=500, seed=7, measured=[0, 1])
        b = run_trajectories(c, None, None, shots=500, seed=7, measured=[0, 1])
        assert a == b

    def test_seed_changes_stream(self):
        c = Circuit(2, 0, (gate(K.H, 0), gate(K.H, 1)))
        a = run_trajectories(c, None, None, shots=500, seed=7, measured=[0, 1])
        b = run_trajectories(c, None, None, shots=500, seed=8, measured=[0, 1])
        assert a.counts != b.counts

    def test_matches_density_within_tolerance(self):
        # flip noise on an expanded CCZ-style circuit: sampled vs exact
        from qnz.ir import expand_to_basis

        c = expand_to_basis(Circuit(3, 1, (gate(K.H, 0), gate(K.H, 1), gate(K.CNZ, 0, 1, 2))))
        nm = NoiseModel(flip_p=0.01)
        b = bind_gates(nm, c.gates)
        shots = 10_000
        exact = run_density(c, b, measured=[0, 1, 2])
        sampled = run_trajectories(c, b, None, shots=shots, seed=11, measured=[0, 1, 2])
        emp = sampled.distribution()
        k = len(set(exact) | set(emp))
        assert total_variation(exact, emp) < 4 * np.sqrt(k / shots)

    def test_readout_in_trajectories(self):
        nm = NoiseModel(readout=((0, 0.0, 1.0),))
        b = bind_gates(nm, (Gate(K.X, (0,)),))
        counts = run_trajectories(Circuit(1, 0, (gate(K.X, 0),)), b, None, shots=100, seed=3)
        assert counts.counts == {"0": 100}  # saturated p10 flips every 1 to 0


def _trajectory_case(n: int, inputs: int, seed: int, noise: NoiseModel | None = None):
    rng = np.random.default_rng(seed)
    gates, bound, measured = _random_density_case(rng, n)
    if noise is not None:
        bound = bind_gates(noise, gates)
    inits = np.array([random_state(n, rng) for _ in range(inputs)])
    return gates, bound, measured, inits


# a width-4 logical circuit with every gate kind, superpositions ahead of
# the three- and four-qubit gates
_ALL_KINDS = (
    Gate(K.H, (0,)), Gate(K.H, (1,)), Gate(K.H, (2,)), Gate(K.X, (3,)), Gate(K.T, (0,)),
    Gate(K.CX, (0, 1)), Gate(K.Y, (2,)), Gate(K.S, (1,)), Gate(K.CZ, (1, 2)), Gate(K.TDG, (2,)),
    Gate(K.SWAP, (0, 3)), Gate(K.Z, (3,)), Gate(K.BRIDGE3, (1, 2, 3)), Gate(K.CCX, (0, 1, 2)),
    Gate(K.H, (3,)), Gate(K.T, (1,)), Gate(K.CNZ, (0, 1, 2, 3)), Gate(K.H, (0,)), Gate(K.CX, (3, 2)),
    Gate(K.S, (2,)), Gate(K.H, (2,)),
)


def _pinned_case(case: str):
    """(gates, n, bound, inits, seeds, measured) of one pinned-counts case: a
    routed 8-entry neuron on chain:4 under flip and phase with per-qubit
    readout or under depol, or `_ALL_KINDS` under every kind of noise."""
    from qnz.mapper import compile
    from qnz.noise import bind
    from qnz.qnn import neuron_circuit, weights_from_code
    from qnz.topology import linear_chain

    rng = np.random.default_rng(2024)
    if case == "all kinds":
        bound = bind_gates(parse_noise_shorthand("flip:0.05,phase:0.05,depol:0.05,readout:0.02"), _ALL_KINDS)
        inits = np.array([random_state(4, rng) for _ in range(3)])
        return _ALL_KINDS, 4, bound, inits, [31, 32, 33], [3, 0, 1]
    noise = {
        "flip phase": NoiseModel(flip_p=0.05, phase_p=0.05,
                                 readout=tuple((q, 0.01 * (q + 1), 0.015 * (q + 1)) for q in range(4))),
        "depol": parse_noise_shorthand("depol:0.05"),
    }[case]
    mapped = compile(neuron_circuit(weights_from_code(0b10010100, 8)), linear_chain(4))
    plan = simulator.plan_mapped_run(mapped, bind(noise, mapped))
    xs = rng.normal(size=(3 if case == "flip phase" else 2, 8))
    inits = np.array([plan.embed(x / np.linalg.norm(x)) for x in xs])
    return plan.gates, plan.n, plan.bound, inits, [11, 12, 13][:len(inits)], list(plan.measured)


# per-seed counts of the three `_pinned_case` cases, 150 shots per input row
PINNED_COUNTS = {
    "flip phase": [[23, 23, 17, 14, 16, 23, 16, 18], [20, 17, 10, 21, 20, 24, 20, 18],
                   [17, 24, 25, 9, 16, 26, 14, 19]],
    "depol": [[22, 19, 14, 18, 21, 25, 21, 10], [11, 23, 20, 21, 19, 20, 18, 18]],
    "all kinds": [[13, 13, 28, 25, 17, 18, 20, 16], [16, 24, 14, 14, 20, 19, 20, 23],
                  [18, 22, 14, 26, 17, 17, 20, 16]],
}


class TestTrajectoryEngine:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_agrees_with_density(self, n):
        # flip, phase and depol on 1-, 2- and (from width 3) 3-qubit gates, a
        # two-qubit readout table; every outcome within 4 sigma of exact
        gates, bound, measured, inits = _trajectory_case(n, 2, 900 + n)
        shots = 20_000
        counts = trajectory_counts(gates, n, bound, inits, [11, 12], shots, measured)
        exact = DensityProgram(gates, n, bound, measured).probabilities(inits)
        assert counts.shape == exact.shape and (counts.sum(axis=1) == shots).all()
        sigma = np.sqrt(exact * (1.0 - exact) / shots)
        assert (np.abs(counts / shots - exact) <= 4.0 * sigma + 1e-9).all()

    def test_depol_paulis_agree_with_density(self):
        # between two H layers, Z parts of the depol Paulis flip outcomes:
        # a wrong X, Y or Z part moves the distribution by many sigma
        n = 3
        h = [Gate(K.H, (q,)) for q in range(n)]
        gates = h + [Gate(K.CX, (0, 1)), Gate(K.CCX, (0, 1, 2)), Gate(K.Y, (2,)), Gate(K.CZ, (1, 2))] + h
        bound = bind_gates(NoiseModel(depol_p=0.3), gates)
        inits = np.array([basis_state(n), random_state(n, np.random.default_rng(3))])
        shots = 20_000
        counts = trajectory_counts(gates, n, bound, inits, [21, 22], shots)
        exact = DensityProgram(gates, n, bound).probabilities(inits)
        sigma = np.sqrt(exact * (1.0 - exact) / shots)
        assert (np.abs(counts / shots - exact) <= 4.0 * sigma + 1e-9).all()

    def test_rows_independent_of_batch_and_threads(self, monkeypatch):
        gates, bound, measured, inits = _trajectory_case(4, 3, 31)
        seeds = [5, 2**64 - 1, 123456789]
        shots = 150  # two full blocks and a partial one per input
        batched = trajectory_counts(gates, 4, bound, inits, seeds, shots, measured)
        for s in range(3):
            alone = trajectory_counts(gates, 4, bound, inits[s:s + 1], seeds[s:s + 1], shots, measured)
            assert np.array_equal(alone[0], batched[s])
        for threads in (2, 3):
            got = trajectory_counts(gates, 4, bound, inits, seeds, shots, measured, threads=threads)
            assert np.array_equal(got, batched)
        # batches smaller than one block split its rows and change nothing
        monkeypatch.setattr(simulator, "_TRAJ_CHUNK", 16 * 5)
        assert np.array_equal(trajectory_counts(gates, 4, bound, inits, seeds, shots, measured), batched)

    def test_block_replays_from_its_own_stream(self):
        # block 1 of a seed, replayed shot by shot from a fresh
        # Philox(key=[seed, 1]) in the documented draw order, with the
        # oracle's dense gate and Pauli matrices
        n, seed, size = 3, 77, 40
        noise = NoiseModel(flip_p=0.1, phase_p=0.1, depol_p=0.3,
                           readout=((0, 0.1, 0.2), (n - 1, 0.15, 0.05)))
        gates, bound, measured, inits = _trajectory_case(n, 1, 52, noise)
        pairs = lookup_readout(bound.readout, measured)
        block = TRAJ_BLOCK + size
        got = (trajectory_counts(gates, n, bound, inits, [seed], block, measured)
               - trajectory_counts(gates, n, bound, inits, [seed], TRAJ_BLOCK, measured))[0]

        events = [(i, kind, qubits, p) for i, evs in enumerate(bound.events) for kind, qubits, p in evs]
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
        hits = gen.random((size, len(events))) < np.array([e[3] for e in events])
        digits = {}
        for shot, e in zip(*np.nonzero(hits)):
            _, kind, qubits, _ = events[e]
            if kind == "depol":
                j = 1 + int(gen.random() * (4 ** len(qubits) - 1))
                digits[shot, e] = [(j >> (2 * pos)) & 3 for pos in range(len(qubits))]
            else:
                digits[shot, e] = [1 if kind == "flip" else 3]
        u_out, u_read = gen.random(size), gen.random((size, len(measured)))

        m = len(measured)
        want = np.zeros(2**m, dtype=int)
        for shot in range(size):
            psi = inits[0]
            for i, g in enumerate(gates):
                psi = gate_unitary(g, n) @ psi
                for e, (gi, _, qubits, _) in enumerate(events):
                    if gi == i and hits[shot, e]:
                        psi = pauli_string(digits[shot, e], qubits, n) @ psi
            probs = np.zeros(2**m)
            for x, a in enumerate(psi):
                probs[sum(bit_of(x, q, n) << (m - 1 - j) for j, q in enumerate(measured))] += abs(a) ** 2
            cum = np.cumsum(probs)
            out = min(int(np.searchsorted(cum, u_out[shot] * cum[-1], side="right")), 2**m - 1)
            bits = [(out >> (m - 1 - j)) & 1 for j in range(m)]
            read = [b ^ (u_read[shot, j] < pairs[j][1 if b else 0]) for j, b in enumerate(bits)]
            want[sum(b << (m - 1 - j) for j, b in enumerate(read))] += 1
        assert got.tolist() == want.tolist()
        assert hits.any() and any(e[1] == "depol" for e in events)

    @pytest.mark.parametrize("case", sorted(PINNED_COUNTS))
    def test_pinned_per_seed_counts(self, case):
        # counts taken from the per-hit walk that the Pauli frame replaced;
        # 150 shots per input, so two full blocks and a partial one
        gates, n, bound, inits, seeds, measured = _pinned_case(case)
        for threads in (1, 2) if case == "all kinds" else (1,):
            got = trajectory_counts(gates, n, bound, inits, seeds, 150, measured, threads)
            assert got.tolist() == PINNED_COUNTS[case]

    @pytest.mark.parametrize("kind, axes", _KIND_CASES, ids=lambda v: str(getattr(v, "value", v)))
    def test_frame_rules_match_the_oracle(self, kind, axes):
        # rows with no hit, with one X, Z or Y hit on each of the gate's
        # qubits, and with random strings on all of them, all just before the
        # gate; H, T and H layers after it turn every pending frame bit into
        # a change of the measured probabilities
        n, measured = 4, [2, 0, 3]
        rng = np.random.default_rng(len(axes) * 10 + axes[0])
        suffix = [Gate(k, (q,)) for k in (K.H, K.T, K.H) for q in range(n)]
        gates = [Gate(K.S, (axes[0],)), Gate(kind, axes)] + suffix
        events = [(0, "depol", (q,), 0.0) for q in axes] + [(0, "depol", axes, 0.0)]
        hits = [(1 + 3 * j + i, j, code) for j in range(len(axes)) for i, code in enumerate((1, 3, 2))]
        rows = 1 + len(hits)
        hits += [(rows + i, len(axes), int(c)) for i, c in enumerate(rng.integers(1, 4 ** len(axes), 4))]
        rows += 4
        inits = np.array([random_state(n, rng) for _ in range(rows)])
        hit_row, hit_ev, hit_code = (np.array(v, dtype=np.int64) for v in zip(*hits))
        cdf = simulator.evolve(gates, n, events, measured, inits.copy(), hit_row, hit_ev, hit_code)
        got = np.diff(cdf, axis=1, prepend=0.0)

        m = len(measured)
        for r in range(rows):
            psi = gate_unitary(gates[0], n) @ inits[r]
            for row, e, code in hits:
                if row == r:
                    qubits = events[e][2]
                    psi = pauli_string([(code >> (2 * pos)) & 3 for pos in range(len(qubits))], qubits, n) @ psi
            psi = circuit_unitary(gates[1:], n) @ psi
            want = np.zeros(2**m)
            for x, a in enumerate(psi):
                want[sum(bit_of(x, q, n) << (m - 1 - j) for j, q in enumerate(measured))] += abs(a) ** 2
            assert np.max(np.abs(got[r] - want)) <= 1e-12, r

    def test_width_and_shots_validated(self):
        with pytest.raises(ValueError):
            trajectory_counts((), SV_WIDTH_CAP + 1, None, [], [], 1)
        with pytest.raises(ValueError):
            trajectory_counts((), 1, None, [basis_state(1)], [0], 0)


def test_shot_counts_distribution():
    sc = ShotCounts({"00": 75, "11": 25}, shots=100, seed=0)
    assert sc.distribution() == {"00": 0.75, "11": 0.25}
