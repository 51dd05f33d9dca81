"""Weight-circuit construction, forward passes, and the synthetic dataset."""
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnz.ir import GateKind
from qnz.mapper import compile, initial_interleaved_mapping
from qnz.noise import NoiseModel, bind
from qnz.qnn import (
    Dataset,
    Evaluator,
    Scoring,
    _output_table,
    accuracies,
    accuracy,
    best_exhaustive_accuracy,
    circ_of_weights,
    code_from_weights,
    format_dataset,
    format_model,
    make_synthetic_dataset,
    model,
    neuron_circuit,
    neuron_output_ideal,
    neuron_outputs,
    parse_dataset,
    parse_model,
    score_run,
    weights_from_code,
)
from qnz.simulator import (
    DENSITY_WIDTH_CAP,
    born_distribution,
    effect_matrix,
    plan_mapped_run,
    run_gates_ideal,
    run_ideal,
    zero_effect,
)
from qnz.topology import coupling_graph, linear_chain
from qnz.trainer import TrainConfig

from oracle import random_state

K = GateKind


def samples(xs) -> Dataset:
    """The unit-norm rows of `xs` as a dataset, every label 0."""
    return Dataset(tuple((tuple(x), 0) for x in xs), 0)


def diag_of_weights(w) -> np.ndarray:
    return np.array(w, dtype=float)


class TestCircOfWeights:
    def test_all_plus_one_is_empty(self):
        c = circ_of_weights([1] * 8)
        assert c.gates == ()
        assert c.num_computing == 3 and c.num_aux == 1

    def test_single_flip_at_all_ones_index(self):
        w = [1] * 7 + [-1]
        c = circ_of_weights(w)
        assert len(c.gates) == 1
        assert c.gates[0].kind is K.CNZ
        assert c.gates[0].qubits == (0, 1, 2)

    def test_global_sign_normalization(self):
        # 7 of 8 entries -1 normalizes to the single +1 index flipped
        w = [-1] * 7 + [1]
        c = circ_of_weights(w)
        assert sum(1 for g in c.gates if g.kind is K.CNZ) == 1

    def test_wrapper_merging(self):
        # indices 6 (110) and 7 (111): between blocks only qubit 2 toggles
        w = [1, 1, 1, 1, 1, 1, -1, -1]
        c = circ_of_weights(w)
        kinds = [g.kind for g in c.gates]
        assert kinds == [K.X, K.CNZ, K.X, K.CNZ]
        assert c.gates[0].qubits == (2,)
        assert c.gates[2].qubits == (2,)

    def test_block_boundaries_cover_all_gates(self):
        w = weights_from_code(0b10110001, 8)
        c = circ_of_weights(w)
        bounds = c.block_boundaries
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(c.gates)
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    @pytest.mark.parametrize("code", [0, 1, 7, 0b10101010, 0b11110000, 255])
    def test_unitary_is_diag_w_up_to_sign(self, code):
        w = weights_from_code(code, 8)
        c = circ_of_weights(w)
        rng = np.random.default_rng(code)
        diag = diag_of_weights(w)
        for _ in range(3):
            comp = random_state(3, rng)
            init = np.kron(comp, np.array([1, 0], dtype=complex))
            out = run_ideal(c, init)
            want = diag * comp
            # compare up to global sign
            err_plus = np.max(np.abs(out.reshape(8, 2)[:, 0] - want))
            err_minus = np.max(np.abs(out.reshape(8, 2)[:, 0] + want))
            assert min(err_plus, err_minus) < 1e-10
            # aux column stays empty
            assert np.max(np.abs(out.reshape(8, 2)[:, 1])) < 1e-12

    def test_length_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            circ_of_weights([1, -1, 1])

    def test_entries_must_be_sign(self):
        with pytest.raises(ValueError):
            circ_of_weights([1, 0, 1, 1])

    def test_k2_uses_plain_cz_block(self):
        c = circ_of_weights([1, 1, 1, -1])
        assert c.num_computing == 2 and c.num_aux == 0
        assert c.gates[0].kind is K.CNZ and c.gates[0].n_controls == 1

    def test_k1_uses_z(self):
        c = circ_of_weights([1, -1])
        assert [g.kind for g in c.gates] == [K.Z]


class TestNeuronOutput:
    def test_uniform_all_plus(self):
        x = np.full(8, 1 / np.sqrt(8))
        assert neuron_output_ideal([1] * 8, x) == pytest.approx(1.0)

    def test_uniform_half_flipped(self):
        x = np.full(8, 1 / np.sqrt(8))
        w = [1, 1, 1, 1, -1, -1, -1, -1]
        assert neuron_output_ideal(w, x) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_matches_circuit(self):
        rng = np.random.default_rng(101)
        for code in rng.integers(0, 256, size=8):
            w = weights_from_code(int(code), 8)
            xs = rng.normal(size=(3, 8))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            closed = [neuron_output_ideal(w, x) for x in xs]
            circ = neuron_outputs(w, compile(neuron_circuit(w), linear_chain(4)), Scoring(samples(xs)))
            assert circ.shape == (3,)
            assert np.max(np.abs(closed - circ)) < 1e-10

    def test_global_sign_invariance(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            w = weights_from_code(int(rng.integers(256)), 8)
            x = rng.normal(size=8)
            x /= np.linalg.norm(x)
            neg = tuple(-v for v in w)
            assert neuron_output_ideal(w, x) == pytest.approx(neuron_output_ideal(neg, x))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            neuron_output_ideal([1, 1, 1, 1], np.ones(8))


class TestModel:
    def test_two_neuron_decision(self):
        m = model([1] * 8, [1] * 8)
        assert m.predict_from_outputs([0.6, 0.4]) == 0
        assert m.predict_from_outputs([0.4, 0.6]) == 1
        assert m.predict_from_outputs([0.5, 0.5]) == 0  # tie -> class 0

    def test_single_neuron_threshold(self):
        m = model([1] * 8)
        assert m.predict_from_outputs([0.5]) == 0
        assert m.predict_from_outputs([0.49]) == 1

    def test_per_sample_arrays(self):
        out0, out1 = np.array([0.6, 0.4, 0.5]), np.array([0.4, 0.6, 0.5])
        two = model([1] * 8, [1] * 8)
        assert two.predict_from_outputs([out0, out1]).tolist() == [0, 1, 0]
        one = model([1] * 8)
        assert one.predict_from_outputs([out0]).tolist() == [0, 1, 0]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            model([1] * 8, [1] * 4)


class TestWeightCodes:
    def test_round_trip(self):
        for code in (0, 1, 128, 255):
            assert code_from_weights(weights_from_code(code, 8)) == code

    def test_code_zero_is_all_plus(self):
        assert weights_from_code(0, 8) == (1,) * 8


class TestSyntheticDataset:
    def test_same_seed_identical(self):
        a = make_synthetic_dataset(3, 20)
        b = make_synthetic_dataset(3, 20)
        assert a == b

    def test_learnable_by_construction(self):
        ds = make_synthetic_dataset(3, 40)
        best, _ = best_exhaustive_accuracy(ds)
        assert best >= 0.9

    def test_balanced_and_unit_norm(self):
        ds = make_synthetic_dataset(9, 30)
        labels = ds.labels()
        assert abs(int(labels.sum()) - 15) <= 0
        for x, _ in ds.samples:
            assert abs(np.linalg.norm(x) - 1.0) < 1e-10

    def test_sigma_zero_perfectly_separable(self):
        ds = make_synthetic_dataset(4, 10, sigma=0.0)
        best, _ = best_exhaustive_accuracy(ds)
        assert best == pytest.approx(1.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset(0, 1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_output_table_equals_the_tuple_built_table(self, k):
        ds = make_synthetic_dataset(5, 6, k=k)
        n = 2**k
        w_all = np.array([weights_from_code(c, n) for c in range(2**n)], dtype=float)
        assert np.array_equal(_output_table(ds), (w_all @ ds.inputs().T / np.sqrt(n)) ** 2)

    def test_weight_space_beyond_cap_rejected(self):
        # k=5 means 2^32 weight codes; the table must not be built
        with pytest.raises(ValueError, match="2\\^20 cap"):
            make_synthetic_dataset(0, 4, k=5)


class TestInferenceAndAccuracy:
    def test_accuracy_matches_closed_form(self):
        ds = make_synthetic_dataset(3, 16)
        _, best = best_exhaustive_accuracy(ds)
        got = accuracy(best, Scoring(ds))
        xs, labels = ds.inputs(), ds.labels()
        want = np.mean(
            [
                best.predict_from_outputs([neuron_output_ideal(w, x) for w in best.neurons])
                == label
                for x, label in zip(xs, labels)
            ]
        )
        assert got == pytest.approx(float(want))

    def test_noise_degrades_accuracy(self):
        ds = make_synthetic_dataset(3, 16)
        _, best = best_exhaustive_accuracy(ds)
        clean = accuracy(best, Scoring(ds, "density"))
        noisy = accuracy(best, Scoring(ds, "density", NoiseModel(flip_p=0.1)))
        assert noisy < clean

    def test_density_close_to_trajectories(self):
        ds = make_synthetic_dataset(3, 10)
        m = model(weights_from_code(37, 8), weights_from_code(200, 8))
        nm = NoiseModel(flip_p=0.02)
        dens = accuracy(m, Scoring(ds, "density", nm))
        # 1e5 shots: on samples 0 and 2 the two neurons' outputs differ by
        # under 1 sigma of 1e4-shot noise, so 1e4 shots leave their
        # predictions to the draw
        traj = accuracy(m, Scoring(ds, "trajectories", nm, shots=100_000, seed=5))
        assert abs(dens - traj) <= 0.02 + 1e-9

    def test_ideal_equals_zero_noise_density(self):
        # both exact backends run one adjoint pass; with no noise bound the
        # passes are the same arithmetic, so every output agrees bit for bit.
        # The ideal backend runs with no noise whatever noise it is given.
        ds = make_synthetic_dataset(3, 10)
        g = linear_chain(4)
        ideal, noisy_ideal = Scoring(ds, "ideal"), Scoring(ds, "ideal", NoiseModel(flip_p=0.1))
        density = Scoring(ds, "density", NoiseModel())
        assert noisy_ideal.noise == NoiseModel()
        for code in range(256):
            w = weights_from_code(code, 8)
            mapped = compile(neuron_circuit(w), g)
            want = neuron_outputs(w, mapped, density)
            assert np.array_equal(neuron_outputs(w, mapped, ideal), want)
            assert np.array_equal(neuron_outputs(w, mapped, noisy_ideal), want)
        m = model(weights_from_code(37, 8), weights_from_code(200, 8))
        assert accuracy(m, noisy_ideal) == accuracy(m, density)

    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([2, 3, 4]), data=st.data())
    def test_ideal_matches_closed_form(self, k, data):
        n = 2**k
        w = tuple(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
        x = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        if np.linalg.norm(x) < 1e-3:
            x[0] = 1.0
        x /= np.linalg.norm(x)
        circ = neuron_circuit(w)
        got = neuron_outputs(w, compile(circ, linear_chain(circ.width)), Scoring(samples([x])))[0]
        assert abs(got - neuron_output_ideal(w, x)) <= 1e-12

    def test_binds_once_per_distinct_neuron(self, monkeypatch):
        import qnz.qnn as qnn_module

        calls = []
        real_bind = qnn_module.bind

        def counting_bind(noise, mapped):
            calls.append(mapped.physical_gates)
            return real_bind(noise, mapped)

        monkeypatch.setattr(qnn_module, "bind", counting_bind)
        ds = make_synthetic_dataset(3, 10)
        m = model(weights_from_code(37, 8), weights_from_code(200, 8))
        # one evaluator per call: it binds its probe once, and every neuron
        # of the model is put together from the probe's bound pieces
        accuracy(m, Scoring(ds, "density", NoiseModel(flip_p=0.02)))
        assert len(calls) == 1
        calls.clear()
        w = m.neurons[0]
        accuracy(model(w, w), Scoring(ds, "trajectories", NoiseModel(flip_p=0.02), shots=8, seed=1))
        assert len(calls) == 1

    def test_trajectory_seed_is_sign_canonical(self):
        # w (3 of 8 entries -1) and -w compile to one circuit, so they draw
        # the same shots and give identical outputs
        w = weights_from_code(0b01001010, 8)
        neg = tuple(-v for v in w)
        mapped, mapped_neg = (compile(neuron_circuit(v), linear_chain(4)) for v in (w, neg))
        assert mapped.physical_gates == mapped_neg.physical_gates
        ds = make_synthetic_dataset(3, 10)
        nm = NoiseModel(flip_p=0.05, phase_p=0.03, readout=((0, 0.02, 0.04),))
        scoring = Scoring(ds, "trajectories", nm, shots=300, seed=9)
        got = neuron_outputs(w, mapped, scoring)
        want = neuron_outputs(neg, mapped_neg, scoring)
        assert np.array_equal(got, want)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            accuracy(model([1] * 8), Scoring(Dataset((), 0)))

    def test_aux_reads_zero_in_noiseless_runs(self):
        for code in (3, 77, 129):
            w = weights_from_code(code, 8)
            mapped = compile(neuron_circuit(w), linear_chain(4))
            plan = plan_mapped_run(mapped)
            psi = run_gates_ideal(plan.gates, plan.n, plan.embed())
            d_aux = born_distribution(psi, list(plan.aux_axes))
            assert d_aux.get("0", 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_compiled_circuit_amplitudes_match_diag(self):
        rng = np.random.default_rng(71)
        g = linear_chain(4)
        for code in (1, 9, 0b1100101, 0b10011001, 254):
            w = weights_from_code(code, 8)
            mapped = compile(circ_of_weights(w), g)
            plan = plan_mapped_run(mapped)
            u = run_gates_ideal(plan.gates, plan.n, np.eye(2**plan.n))
            for _ in range(3):
                comp = random_state(3, rng)
                got = u @ plan.embed(comp)
                want = plan.embed(np.array(w) * comp)
                err = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
                assert err < 1e-9

    def test_fixed_mapping_across_weights(self):
        canonical = initial_interleaved_mapping(2, range(4))
        g = linear_chain(4)
        for code in range(0, 256, 17):
            mapped = compile(circ_of_weights(weights_from_code(code, 8)), g)
            assert mapped.initial_mapping == canonical
            assert all(bm == canonical for bm in mapped.block_mappings)


class TestOneScorer:
    """`accuracy` scores through one `Evaluator` and equals the whole-circuit
    reference bit for bit: each distinct neuron compiled whole and scored by
    `neuron_outputs`, with the same neurons, routed gates and bound events."""

    # infer-traj's calibration: flip and phase 0.05, readout per qubit
    CALIBRATION = NoiseModel(
        flip_p=0.05, phase_p=0.05, readout=tuple((q, 0.01 * (q + 1), 0.015 * (q + 1)) for q in range(4)),
    )
    # one hot physical qubit, and a readout wildcard
    HOT = NoiseModel(flip_p=0.01, phase_p=0.01, readout=((None, 0.02, 0.03),), qubit_multipliers=((0, 10.0),))

    @staticmethod
    def _case(name: str):
        if name == "8-chain":
            # w with -w: one circuit at three -1 entries, two at four
            pairs = [(37, 200), (0b01001010, 0b10110101), (0b01101010, 0b10010101), (5, 5)]
            return make_synthetic_dataset(3, 10), linear_chain(4), TestOneScorer.CALIBRATION, 8, pairs
        pairs = [tuple(p) for p in np.random.default_rng(6).integers(2**16, size=(2, 2)).tolist()]
        return make_synthetic_dataset(5, 8, k=4), linear_chain(6), TestOneScorer.HOT, 16, pairs

    @pytest.mark.parametrize("backend, shots", [("ideal", 0), ("density", 0), ("trajectories", 32)])
    @pytest.mark.parametrize("case", ["8-chain", "16-hot"])
    def test_accuracy_equals_whole_circuit_scoring(self, case, backend, shots):
        ds, graph, noise, n, pairs = self._case(case)
        for pair in pairs:
            m = model(*(weights_from_code(c, n) for c in pair))
            work = {}
            scoring = Scoring(ds, backend, noise, graph, shots, 4)
            got = accuracy(m, scoring, work=work)
            whole = {w: compile(neuron_circuit(w), graph) for w in dict.fromkeys(m.neurons)}
            want = {w: neuron_outputs(w, c, scoring) for w, c in whole.items()}
            ev = Evaluator(scoring)
            for w in whole:
                assert np.array_equal(ev.neuron_outputs(w), want[w])
            assert got == float(accuracies([want[w] for w in m.neurons], ds.labels()))
            events = 0 if backend == "ideal" else sum(bind(noise, c).total_events for c in whole.values())
            assert (work["neurons"], work["gates"], work["events"]) == (
                len(whole), sum(len(c.physical_gates) for c in whole.values()), events)


class TestScoringValidation:
    """`Scoring` holds the backend checks; `TrainConfig` and `accuracy` raise
    its messages."""

    @pytest.mark.parametrize("kw, message", [
        (dict(backend="qpu"), "unknown backend 'qpu'"),
        (dict(backend="trajectories", shots=0), "trajectories backend needs shots >= 1"),
        (dict(backend="density", shots=500), "shots are read only by the trajectories backend, not by density"),
    ])
    def test_one_message_for_scoring_train_config_and_accuracy(self, kw, message):
        ds, m = make_synthetic_dataset(3, 10), model([1] * 8)
        raised = []
        for build in (
            lambda: Scoring(ds, seed=1, **kw),
            lambda: TrainConfig(strategy="random_search", max_iters=1, seed=1, initial=m, dataset=ds, **kw),
            lambda: accuracy(m, Scoring(ds, seed=1, **kw)),
        ):
            with pytest.raises(ValueError) as err:
                build()
            raised.append(str(err.value))
        assert raised == [message] * 3

    def test_trajectories_need_a_seed(self):
        ds, m = make_synthetic_dataset(3, 10), model([1] * 8)
        for build in (lambda: Scoring(ds, "trajectories", shots=8),
                      lambda: accuracy(m, Scoring(ds, "trajectories", shots=8))):
            with pytest.raises(ValueError, match="^trajectories backend needs a seed$"):
                build()

    def test_scorers_take_only_a_checked_scoring(self):
        """`accuracy`, `neuron_outputs` and `score_run` take one `Scoring`
        and no loose backend arguments: once `neuron_outputs(w, mapped, xs,
        "qpu", noise)` returned density rows, and trajectories without a seed
        failed deep in the engine. Both now fail where the `Scoring` is built."""
        ds, w = make_synthetic_dataset(3, 10), weights_from_code(37, 8)
        mapped = compile(neuron_circuit(w), linear_chain(4))
        plan = plan_mapped_run(mapped, bind(NoiseModel(), mapped))
        assert [list(inspect.signature(f).parameters) for f in (accuracy, neuron_outputs, score_run)] == [
            ["model", "scoring", "work"], ["w", "mapped", "scoring"], ["code", "plan", "scoring"]]
        for loose in (
            lambda: neuron_outputs(w, mapped, ds.inputs(), "qpu", NoiseModel()),
            lambda: neuron_outputs(w, mapped, ds.inputs(), "trajectories", NoiseModel(), 8),
            lambda: score_run(37, plan, ds.inputs(), "trajectories", 8),
        ):
            with pytest.raises(TypeError):
                loose()
        for kw, message in ((dict(backend="qpu"), "unknown backend 'qpu'"),
                            (dict(backend="trajectories", shots=8), "trajectories backend needs a seed")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                neuron_outputs(w, mapped, Scoring(ds, **kw))

    @pytest.mark.parametrize("backend", ["ideal", "density"])
    def test_exact_evaluator_refuses_a_frame_past_the_density_cap(self, monkeypatch, backend):
        """A 128-entry neuron on chain:16 runs on 12 dense qubits, where one
        effect would take 4^12 floats. An exact evaluator raises zero_effect's
        error while it builds its frame, before it makes any effect; the
        trajectory backend, which holds states, builds."""
        import qnz.qnn as qnn_module

        ds, graph = samples([np.ones(128) / np.sqrt(128)]), linear_chain(16)
        n = Evaluator(Scoring(ds, "trajectories", NoiseModel(flip_p=0.01), graph, shots=8, seed=1))._frame.n
        assert n > DENSITY_WIDTH_CAP
        with pytest.raises(ValueError) as want:
            zero_effect([], n, None)
        monkeypatch.setattr(qnn_module, "readout_effect", lambda *a: pytest.fail("an effect was made"))
        with pytest.raises(ValueError) as err:
            Evaluator(Scoring(ds, backend, NoiseModel(flip_p=0.01), graph))
        assert str(err.value) == str(want.value) == f"width {n} exceeds the density-matrix cap of {DENSITY_WIDTH_CAP}"

    def test_accuracy_rejects_another_input_length_before_compiling(self, monkeypatch):
        import qnz.qnn as qnn_module

        compiled = []
        monkeypatch.setattr(qnn_module, "compile", lambda *a: compiled.append(a))
        with pytest.raises(ValueError, match="input length is 4"):
            accuracy(model([1] * 4), Scoring(make_synthetic_dataset(3, 10)))
        assert compiled == []


def _kron_embed(plan, comp) -> np.ndarray:
    """Dense initial state built from the mapping alone: comp (x) |0...0> of
    the auxiliaries, each logical qubit moved onto its initial dense axis and
    every unoccupied axis held at |0>."""
    width = len(plan.init_positions)
    full = np.kron(comp, np.eye(2 ** (width - plan.num_computing))[0]).reshape([2] * width)
    psi = np.zeros([2] * plan.n, dtype=complex)
    sel = tuple(slice(None) if ax in plan.init_positions else 0 for ax in range(plan.n))
    psi[sel] = np.transpose(full, sorted(range(width), key=lambda l: plan.init_positions[l]))
    return psi.reshape(-1)


# 3x3 grid, row-major: chains on it leave unused device qubits between used ones
GRID = coupling_graph(
    9, [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
    + [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)],
)


class TestComputingIndex:
    """`MappedPlan.computing_index` places each computing basis state as the
    embedding isometry V does, and exact scoring, which sums the I and Z
    slices of every axis off the computing qubits, equals x^dagger V^dagger
    E V x (to rounding: the sums come before the change to the operator
    basis)."""

    NOISE = NoiseModel(flip_p=0.05, phase_p=0.03, depol_p=0.01, readout=((None, 0.02, 0.04), (5, 0.1, 0.0)))

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([2, 4, 8, 16]), on_grid=st.booleans(), frac=st.floats(0, 1, exclude_max=True),
           noisy=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_the_isometry_formula(self, n, on_grid, frac, noisy, seed):
        w = weights_from_code(int(frac * 2**n), n)
        graph = GRID if on_grid else linear_chain(neuron_circuit(w).width)
        mapped = compile(neuron_circuit(w), graph)
        plan = plan_mapped_run(mapped, bind(self.NOISE, mapped) if noisy else None)
        idx = plan.computing_index
        iso = np.array([_kron_embed(plan, e) for e in np.eye(n)]).T
        for i in range(n):
            assert np.flatnonzero(iso[:, i]).tolist() == [idx[i]]
            assert np.flatnonzero(plan.embed(np.eye(n)[i])).tolist() == [idx[i]]
        xs = np.random.default_rng(seed).normal(size=(5, n))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        eff = effect_matrix(zero_effect(plan.gates, plan.n, plan.bound, plan.measured))
        cx = xs.astype(complex)
        want = np.einsum("si,ij,sj->s", cx.conj(), iso.conj().T @ eff @ iso, cx).real
        got = score_run(code_from_weights(w), plan, Scoring(samples(xs), "density"))
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("on_grid", [False, True])
    def test_embed_rows_equal_one_by_one(self, on_grid):
        # a (samples, 2^k) array embeds row by row, bit for bit; a wrong width raises
        w = weights_from_code(0b10010100, 8)
        mapped = compile(neuron_circuit(w), GRID if on_grid else linear_chain(4))
        plan = plan_mapped_run(mapped)
        xs = np.random.default_rng(5).normal(size=(6, 8)) + 1j
        assert np.array_equal(plan.embed(xs), np.array([plan.embed(x) for x in xs]))
        assert np.array_equal(plan.embed(xs[:1])[0], plan.embed(xs[0]))
        with pytest.raises(ValueError):
            plan.embed(xs[:, :4])


class TestBundledDataset:
    def test_fixture_matches_generator(self):
        from qnz.qnn import bundled_dataset_path, load_dataset

        bundled = load_dataset(bundled_dataset_path())
        regen = make_synthetic_dataset(2, 50, k=3)
        assert bundled.samples == regen.samples

    def test_published_baseline_reference_value(self):
        # the two-neuron starting point from the original accuracy table,
        # scored at zero noise on our fixture; pinned after first computation
        from qnz.qnn import bundled_dataset_path, load_dataset

        ds = load_dataset(bundled_dataset_path())
        m = model([-1, -1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1, 1])
        assert accuracy(m, Scoring(ds)) == pytest.approx(0.54)


class TestFileFormats:
    def test_dataset_round_trip(self):
        # 0.6 and 0.8 have no exact binary form: the text must keep every bit
        for ds in (make_synthetic_dataset(3, 12), Dataset((((0.6, 0.8), 0), ((0.8, -0.6), 1)), 5)):
            text = format_dataset(ds)
            back = parse_dataset(text, seed=ds.seed)
            assert back.samples == ds.samples

    @pytest.mark.parametrize("x", [(0.6 + 0j, 0.8j), (0.6 + 0j, 0.8 + 0j), np.array([0.6, 0.8], dtype=complex)])
    def test_complex_samples_are_refused(self, x):
        with pytest.raises(ValueError, match="sample has complex entries"):
            Dataset(((x, 0),), 0)

    def test_dataset_header_required(self):
        with pytest.raises(ValueError):
            parse_dataset("0.5 0.5 0\n")

    def test_header_only_dataset_has_no_dim(self):
        with pytest.raises(ValueError, match="dataset declares dim 8 but has no samples"):
            parse_dataset("dim 8\n")
        for call in (format_dataset, best_exhaustive_accuracy):
            with pytest.raises(ValueError, match="dataset has no samples"):
                call(Dataset((), 0))

    @pytest.mark.parametrize("text, message", [
        ("dim 2\n# a comment\n0.6 0.8 0\nabc 1.0 1\n", "line 4: could not convert string to float: 'abc'"),
        ("dim two\n", "line 1: invalid literal for int() with base 10: 'two'"),
        ("dim 2\n0.6 0.8 1\n\n0.6 0.6 0\n", "line 4: sample is not unit norm"),
        ("dim 2\n1 0 2\n", "line 2: label must be 0 or 1, got 2"),
    ])
    def test_dataset_errors_name_their_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_dataset(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        ("1 1 1 1\n1 x 1 1\n", "line 2: invalid literal for int() with base 10: 'x'"),
        ("1 1 1 1\n\n1 1\n", "line 3: all neurons must share the input length"),
        ("1 1 1\n", "line 1: weight length 3 is not a power of two >= 2"),
        ("1 1\n1 -1\n-1 1\n", "line 3: model supports one or two neurons"),
    ])
    def test_model_errors_name_their_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_model(text)
        assert str(err.value) == message

    def test_model_round_trip(self):
        m = model(weights_from_code(37, 8), weights_from_code(200, 8))
        assert parse_model(format_model(m)) == m

    def test_model_file_empty(self):
        with pytest.raises(ValueError):
            parse_model("\n")
