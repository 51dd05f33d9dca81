"""Search-strategy behavior: incumbent retention, oracle agreement, caching."""
import bisect
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import density_outcome_probabilities

from qnz import qnn, trainer
from qnz.ir import GateKind
from qnz.mapper import MappingNotCanonical, compile
from qnz.noise import NoiseModel, bind, lookup_readout, parse_noise_shorthand
from qnz.qnn import (
    Dataset,
    Model,
    best_exhaustive_accuracy,
    bundled_dataset_path,
    code_from_weights,
    flip_list,
    load_dataset,
    make_synthetic_dataset,
    model,
    neuron_circuit,
    neuron_outputs,
    weights_from_code,
    x_layer,
)
from qnz.simulator import density_coeffs, plan_mapped_run, pull_back, push_forward, zero_effect
from qnz.topology import coupling_graph, linear_chain
from qnz.trainer import (
    STRATEGIES,
    Evaluator,
    LogEntry,
    TrainConfig,
    sweep,
    sweep_rows_as_dicts,
    sweep_to_csv,
    train,
)


def small_dataset(seed=3, n=12, k=2):
    return make_synthetic_dataset(seed, n, k=k)


def base_config(dataset, initial, **kw):
    defaults = dict(
        strategy="exhaustive",
        max_iters=1_000_000,
        seed=11,
        backend="density",
        noise=NoiseModel(),
        initial=initial,
        dataset=dataset,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestConfigValidation:
    def test_unknown_strategy(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            base_config(ds, model([1, 1, 1, 1]), strategy="anneal")

    def test_exhaustive_space_cap(self):
        ds = make_synthetic_dataset(3, 4, k=4)  # 2 neurons x 2^16 = 2^32 points
        with pytest.raises(ValueError, match="exhaustive"):
            base_config(ds, model([1] * 16, [1] * 16))

    def test_seed_is_required(self):
        # `Scoring.seed` defaults to None; a search always names its seed
        with pytest.raises(TypeError, match="seed"):
            TrainConfig(strategy="random_search", max_iters=1, initial=model([1] * 4), dataset=small_dataset())

    def test_trajectories_needs_shots(self):
        ds = small_dataset()
        with pytest.raises(ValueError, match="shots"):
            base_config(ds, model([1, 1, 1, 1]), backend="trajectories", shots=0)


class TestExhaustive:
    def test_single_neuron_returns_global_argmax(self):
        ds = small_dataset()
        cfg = base_config(ds, model([1, 1, 1, 1]))
        result = train(cfg)
        want_acc, want_model = best_exhaustive_accuracy(ds, n_neurons=1)
        assert result.best_accuracy == pytest.approx(want_acc)
        # density at zero noise equals the closed form, so the argmax agrees
        assert result.evaluations >= 16

    def test_pair_space_enumerated(self):
        ds = small_dataset()
        cfg = base_config(ds, model([1, 1, 1, 1], [1, 1, 1, 1]))
        result = train(cfg)
        want_acc, _ = best_exhaustive_accuracy(ds, n_neurons=2)
        assert result.best_accuracy == pytest.approx(want_acc)

    def test_incumbent_retained_when_baseline_optimal(self):
        ds = small_dataset()
        _, best = best_exhaustive_accuracy(ds, n_neurons=1)
        cfg = base_config(ds, best)
        result = train(cfg)
        assert result.best_accuracy == result.baseline_accuracy
        assert result.best_accuracy >= result.baseline_accuracy  # invariant

    def test_max_iters_caps_enumeration(self):
        ds = small_dataset()
        cfg = base_config(ds, model([1, 1, 1, 1]), max_iters=5)
        result = train(cfg)
        assert len(result.log) == 6  # baseline + 5 proposals


def sequential_exhaustive(cfg):
    """The exhaustive strategy as a sequential loop over Models in flat code
    order, keeping the first strict improvement over the incumbent. Its rows
    are scored as `train` asks for them: the baseline's alone, then one batch
    of every code the scan reaches (a batch's rows may differ from rows scored
    alone in the last bits, which can break exact ties between neurons)."""
    ev = Evaluator(cfg)
    n, k = cfg.initial.input_length, len(cfg.initial.neurons)

    def acc(m):
        outs = [ev.neuron_outputs(w) for w in m.neurons]
        return float(np.mean(m.predict_from_outputs(outs) == ev.labels))

    log = [(0, cfg.initial.neurons, acc(cfg.initial))]
    ev.neuron_rows(range(min(2**n, cfg.max_iters)))
    best, best_acc = cfg.initial, log[0][2]
    for flat in range(min(cfg.max_iters, cfg.space_size())):
        m = Model(tuple(weights_from_code(flat >> (n * (k - 1 - j)) & (2**n - 1), n) for j in range(k)))
        log.append((flat + 1, m.neurons, acc(m)))
        if log[-1][2] > best_acc:
            best, best_acc = m, log[-1][2]
    hits = len(log) - len({neurons for _, neurons, _ in log})
    return log, best, best_acc, log[0][2], len(log), hits, ev.work


class TestExhaustiveParity:
    @pytest.mark.parametrize("backend", ["ideal", "density"])
    @pytest.mark.parametrize("max_iters", [1, 5, 17, None])
    @pytest.mark.parametrize("initial", [([1, 1, -1, 1],), ([1, 1, 1, 1], [1, 1, -1, 1])])
    def test_block_scan_equals_sequential_loop(self, backend, max_iters, initial):
        m = model(*initial)  # flat index 2 in both spaces, so a full scan revisits it
        cfg = base_config(
            small_dataset(), m, backend=backend, noise=NoiseModel(flip_p=0.03, phase_p=0.02),
            max_iters=max_iters or (2**4) ** len(initial),
        )
        r = train(cfg)
        got = (
            [(e.iteration, e.weights, e.accuracy) for e in r.log],
            r.best, r.best_accuracy, r.baseline_accuracy, r.evaluations, r.cache_hits, r.work,
        )
        assert got == sequential_exhaustive(cfg)

    @staticmethod
    def _tied_outputs(rng, shape) -> np.ndarray:
        """Outputs on a quarter grid, so neurons tie each other and 0.5."""
        return rng.integers(0, 5, size=shape) / 4.0

    @staticmethod
    def _scan_per_block(rows, n, n_neurons, labels, limit, best, on_block):
        """scan_blocks as one accuracy per block, in flat order."""
        size = 2**n
        total = min(limit, size**n_neurons)
        table = rows(range(min(size, total)))
        for start in range(0, total, size):
            prefix = tuple(start // size ** (n_neurons - 1 - j) % size for j in range(n_neurons - 1))
            outs = [table[c] for c in prefix] + [table[: total - start]]
            accs = (Model.predict_from_outputs(outs) == labels).mean(axis=-1)
            on_block(prefix, accs)
            j = int(np.argmax(accs))
            if accs[j] > best[0]:
                best = (float(accs[j]), prefix + (j,))
        return best

    # 16 codes of 12 samples: three blocks per chunk, so a chunk ends after 48 models
    @pytest.mark.parametrize("n_neurons", [1, 2])
    @pytest.mark.parametrize("limit", [1, 7, 48, 49, 256])
    @pytest.mark.parametrize("best", [(-1.0, ()), (0.75, (3,))])
    def test_chunked_scan_equals_a_per_block_loop(self, monkeypatch, n_neurons, limit, best):
        rng = np.random.default_rng(limit)
        table, labels = self._tied_outputs(rng, (16, 12)), rng.integers(0, 2, size=12)
        monkeypatch.setattr(qnn, "_SCAN_CHUNK_BYTES", 3 * table.size)
        got, want = [], []
        scanned = qnn.scan_blocks(table.__getitem__, 4, n_neurons, labels, limit, best,
                                  lambda p, a: got.append((p, a.tolist())))
        ref = self._scan_per_block(table.__getitem__, 4, n_neurons, labels, limit, best,
                                   lambda p, a: want.append((p, a.tolist())))
        assert scanned == ref and got == want
        assert sum(len(a) for _, a in got) == min(limit, 16**n_neurons)

    def test_accuracies_are_the_prediction_rule_bit_for_bit(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 2, size=40)
        for outputs in (
            [self._tied_outputs(rng, (30, 40))],
            [self._tied_outputs(rng, (30, 40)), self._tied_outputs(rng, (30, 40))],
            [self._tied_outputs(rng, (6, 1, 40)), self._tied_outputs(rng, (1, 30, 40))],
            [self._tied_outputs(rng, (30, 40)), self._tied_outputs(rng, (1, 40))],
        ):
            assert any(np.any(o == 0.5) for o in outputs)
            if len(outputs) == 2:
                assert np.any(outputs[0] == outputs[1])
            want = (Model.predict_from_outputs(outputs) == labels).mean(axis=-1)
            got = qnn.accuracies(outputs, labels)
            assert got.dtype == want.dtype and np.array_equal(got, want)


# Logs of 24 proposals recorded before the strategies proposed weight codes:
# (code of each neuron, correct predictions out of 12)
PINNED_LOGS = {
    "hill_climb": [
        ((0, 4), 3), ((8, 4), 9), ((0, 4), 3), ((12, 4), 6), ((10, 4), 11), ((2, 4), 6),
        ((14, 4), 4), ((8, 4), 9), ((11, 4), 6), ((10, 12), 7), ((10, 0), 12), ((2, 0), 12),
        ((14, 0), 12), ((8, 0), 12), ((11, 0), 9), ((10, 8), 8), ((10, 4), 11), ((10, 2), 6),
        ((10, 1), 9), ((12, 3), 6), ((4, 3), 6), ((8, 3), 9), ((0, 3), 0), ((12, 3), 6),
        ((10, 3), 7),
    ],
    "random_search": [
        ((0, 4), 3), ((5, 14), 9), ((7, 4), 9), ((9, 7), 5), ((12, 8), 3), ((2, 0), 12),
        ((12, 1), 4), ((8, 4), 9), ((7, 11), 9), ((5, 15), 12), ((2, 14), 9), ((7, 7), 6),
        ((5, 3), 7), ((0, 2), 0), ((1, 2), 3), ((5, 2), 6), ((8, 5), 4), ((4, 0), 9),
        ((3, 5), 5), ((0, 10), 0), ((3, 5), 5), ((15, 5), 0), ((11, 12), 6), ((3, 5), 5),
        ((0, 2), 0),
    ],
}


class TestPinnedStrategies:
    @pytest.mark.parametrize("strategy", sorted(PINNED_LOGS))
    def test_log_unchanged(self, strategy):
        ds = small_dataset()
        cfg = base_config(
            ds, model([1, 1, 1, 1], [1, -1, 1, 1]), strategy=strategy, max_iters=24,
            noise=NoiseModel(flip_p=0.02, phase_p=0.01),
        )
        got = [(tuple(map(code_from_weights, e.weights)), e.accuracy) for e in train(cfg).log]
        assert got == [(codes, right / 12) for codes, right in PINNED_LOGS[strategy]]

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([4, 8, 16, 32]), data=st.data())
    def test_flipping_an_entry_is_a_code_xor(self, n, data):
        code = data.draw(st.integers(0, 2**n - 1))
        i = data.draw(st.integers(0, n - 1))
        w = list(weights_from_code(code, n))
        w[i] *= -1
        assert tuple(w) == weights_from_code(code ^ (1 << (n - 1 - i)), n)


class TestHillClimb:
    def test_finds_near_optimal_point(self):
        ds = small_dataset(seed=5, n=16, k=3)
        exhaustive_acc, _ = best_exhaustive_accuracy(ds, n_neurons=1)
        cfg = base_config(
            ds,
            model([1] * 8),
            strategy="hill_climb",
            max_iters=800,
            patience=800,
            backend="ideal",
        )
        result = train(cfg)
        assert result.best_accuracy >= exhaustive_acc - 0.02

    def test_improves_over_bad_start(self):
        ds = small_dataset(seed=5, n=16, k=3)
        _, best = best_exhaustive_accuracy(ds, n_neurons=1)
        bad = model(tuple(-v for v in best.neurons[0]))  # sign-invariant: same acc
        cfg = base_config(
            ds, model([1, -1, 1, -1, 1, -1, 1, -1]),
            strategy="hill_climb", max_iters=300, patience=300, backend="ideal",
        )
        result = train(cfg)
        assert result.best_accuracy >= result.baseline_accuracy

    def test_patience_terminates(self):
        ds = small_dataset()
        cfg = base_config(
            ds, model([1, 1, 1, 1]),
            strategy="hill_climb", max_iters=100_000, patience=10, backend="ideal",
        )
        result = train(cfg)
        assert len(result.log) < 100


class TestRandomSearch:
    def test_runs_and_retains_incumbent(self):
        ds = small_dataset()
        cfg = base_config(
            ds, model([1, 1, 1, 1]),
            strategy="random_search", max_iters=60, patience=60, backend="ideal",
        )
        result = train(cfg)
        assert result.best_accuracy >= result.baseline_accuracy
        assert len(result.log) <= 61

    def test_cache_hits_on_duplicate_proposals(self):
        ds = small_dataset()
        cfg = base_config(
            ds, model([1, 1, 1, 1]),
            strategy="random_search", max_iters=200, patience=200, backend="ideal",
        )
        result = train(cfg)
        assert result.cache_hits > 0  # 16-point space, 200 draws


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        ds = small_dataset()
        cfg = base_config(
            ds, model([1, 1, 1, 1]),
            strategy="random_search", max_iters=50, patience=50,
            backend="density", noise=NoiseModel(flip_p=0.02),
        )
        a, b = train(cfg), train(cfg)
        assert a.best == b.best
        assert a.best_accuracy == b.best_accuracy
        assert [(e.iteration, e.weights, e.accuracy) for e in a.log] == [
            (e.iteration, e.weights, e.accuracy) for e in b.log
        ]

    def test_work_counters_repeat(self):
        ds = small_dataset()
        cfg = base_config(
            ds, model([1, 1, 1, 1], [1, -1, 1, 1]),
            strategy="hill_climb", max_iters=40, backend="density",
            noise=NoiseModel(flip_p=0.02, phase_p=0.01),
        )
        a, b = train(cfg), train(cfg)
        assert a.work == b.work
        distinct = {w for e in a.log for w in e.weights}
        assert a.work["neurons"] == len(distinct)
        assert a.work["gates"] > 0 and a.work["events"] > 0
        clean = train(replace(cfg, noise=NoiseModel()))
        assert clean.work["events"] == 0
        assert clean.work["neurons"] == len({w for e in clean.log for w in e.weights})

    def test_exhaustive_proposals_in_flat_order(self):
        ds = small_dataset()
        cfg = base_config(ds, model([1, 1, 1, 1], [1, 1, 1, 1]), max_iters=40)
        log = train(cfg).log[1:]
        want = [
            (weights_from_code(f // 16, 4), weights_from_code(f % 16, 4)) for f in range(40)
        ]
        assert [e.weights for e in log] == want

    def test_cached_equals_fresh(self):
        ds = small_dataset()
        cfg = base_config(ds, model([1, 1, 1, 1]), backend="trajectories", shots=400)
        ev1 = Evaluator(cfg)
        ev2 = Evaluator(cfg)
        m = model([1, -1, 1, 1])
        first = ev1.model_accuracy(m)
        again = ev1.model_accuracy(m)  # cache hit
        fresh = ev2.model_accuracy(m)
        assert first == again == fresh

    def test_every_evaluation_compiles(self):
        ds = small_dataset()
        cfg = base_config(ds, model([1, 1, 1, 1]), max_iters=20)
        result = train(cfg)
        assert result.phase_seconds["map"] > 0.0


# 3x3 grid, row-major: a 2-D device on which every register shape here fits
GRID = coupling_graph(
    9, [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
    + [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)],
)


class TestSharedSuffixes:
    """The evaluator memoizes the suffix half of every flip list it meets; a
    neuron scored alone stays bit-equal to a fresh uncached evaluation."""

    @pytest.mark.parametrize("noise", [
        NoiseModel(flip_p=0.05), NoiseModel(phase_p=0.05),
        NoiseModel(depol_p=0.01), parse_noise_shorthand("readout:0.03"),
    ], ids=["flip", "phase", "depol", "readout"])
    def test_rows_equal_fresh_evaluations(self, noise):
        ds = load_dataset(bundled_dataset_path())
        cfg = base_config(ds, model([1] * 8), noise=noise)
        ev = Evaluator(cfg)
        for c in range(256):
            w = weights_from_code(c, 8)
            fresh = neuron_outputs(w, compile(neuron_circuit(w), ev.graph), cfg)
            assert np.array_equal(ev.neuron_outputs(w), fresh)
        assert ev.work["neurons"] == 256
        assert 0 < ev.work["steps"] < ev.work["gates"] / 2

    def test_one_neuron_walks_each_gate_once(self):
        cfg = base_config(small_dataset(), model([1, -1, 1, 1]), noise=NoiseModel(flip_p=0.05))
        ev = Evaluator(cfg)
        ev.model_accuracy(cfg.initial)
        assert ev.work["steps"] == ev.work["gates"] > 0
        # -w has the same flip list: the same routed circuit, so its row is
        # shared and no step is applied
        w = cfg.initial.neurons[0]
        assert np.array_equal(ev.neuron_outputs(tuple(-v for v in w)), ev.neuron_outputs(w))
        assert ev.work["neurons"] == 2 and 2 * ev.work["steps"] == ev.work["gates"]

    NOISE = NoiseModel(flip_p=0.07, phase_p=0.05, depol_p=0.02, readout=((0, 0.03, 0.08), (3, 0.06, 0.02)))

    def _evaluator(self, **kw) -> Evaluator:
        cfg = base_config(load_dataset(bundled_dataset_path()), model([1] * 8), noise=self.NOISE, **kw)
        ev = Evaluator(cfg)
        ev.neuron_outputs(cfg.initial.neurons[0])
        return ev

    def test_returned_effect_is_read_only(self):
        ev = self._evaluator()
        w = weights_from_code(0b10010110, 8)
        f = flip_list(w)
        plan = ev.plan(code_from_weights(w))
        steps = ev.work["steps"]
        eff = ev._suffix(f)
        assert eff.flags.c_contiguous and ev._suffixes[f] is eff
        with pytest.raises(ValueError):
            eff *= 2.0
        with pytest.raises(ValueError):
            eff[(0,) * plan.n] = 7.0
        # the memo lacked some of the suffixes of f; asked again, it applies no step
        assert 0 < ev.work["steps"] - steps < len(plan.gates)
        steps = ev.work["steps"]
        assert ev._suffix(f) is eff and ev.work["steps"] == steps
        # pulled back through the first X layer, S(f) is the whole neuron's effect
        layer = ev._layer(None, f[0])
        whole = zero_effect(plan.gates, plan.n, plan.bound, plan.measured)
        assert np.array_equal(pull_back(np.array(eff), layer.steps), whole)

    def test_byte_cap_stores_no_more_and_keeps_rows(self, monkeypatch):
        ws = [weights_from_code(c, 8) for c in range(256)]
        want = self._evaluator().neuron_rows(range(256))
        effect_bytes = 8 * 4**4  # the Pauli coefficients of an effect at width 4
        table_bytes = 50 * effect_bytes  # one prefix table: 50 samples
        # two effects: no prefix table fits, so every neuron is scored alone
        monkeypatch.setattr(qnn, "_SUFFIX_CACHE_BYTES", 2 * effect_bytes)
        ev = self._evaluator()
        rows = ev.neuron_rows(range(256))
        for c in range(0, 256, 7):
            fresh = neuron_outputs(ws[c], compile(neuron_circuit(ws[c]), ev.graph), ev.cfg)
            assert np.array_equal(rows[c], fresh)
        assert len(ev._suffixes) == 2
        assert ev.work["steps"] < ev.work["gates"]
        # two prefix tables: a split after entry 0, and more suffixes than the memo holds
        monkeypatch.setattr(qnn, "_SUFFIX_CACHE_BYTES", 2 * table_bytes)
        ev = self._evaluator()
        assert np.max(np.abs(ev.neuron_rows(range(256)) - want)) <= 1e-12
        memo_bytes = len(ev._suffixes) * effect_bytes
        assert memo_bytes <= 2 * table_bytes < len({flip_list(w) for w in ws}) * effect_bytes

    @pytest.mark.parametrize("backend", ["ideal", "density"])
    def test_shared_suffixes_save_steps_on_a_grid(self, backend):
        cfg = base_config(
            make_synthetic_dataset(5, 8, k=4), model([1] * 16), noise=self.NOISE, backend=backend,
            graph=GRID, strategy="random_search",
        )
        ev = Evaluator(cfg)
        for c in np.random.default_rng(3).integers(2**16, size=12):
            w = weights_from_code(int(c), 16)
            fresh = neuron_outputs(w, compile(neuron_circuit(w), GRID), cfg)
            assert np.array_equal(ev.neuron_outputs(w), fresh)
        assert 0 < ev.work["steps"] < ev.work["gates"]

    def test_steps_equal_gates_when_nothing_is_shared(self):
        cfg = base_config(
            small_dataset(), model([1, 1, 1, 1]), noise=NoiseModel(flip_p=0.05),
            backend="trajectories", shots=64, max_iters=20,
        )
        work = train(cfg).work
        # the 16 codes hold 8 w/-w pairs; 5 pairs share a flip list, so one
        # routed circuit and one row, and every other gate is a step
        circuits = {flip_list(weights_from_code(c, 4)): c for c in range(16)}
        plan = Evaluator(cfg).plan
        assert work["neurons"] == 16 and len(circuits) == 11
        assert work["steps"] == sum(len(plan(c).gates) for c in circuits.values())
        work = train(replace(cfg, backend="density", shots=0)).work
        assert work["steps"] < work["gates"]


class TestBatchedRows:
    """`Evaluator.neuron_rows` scores a batch of neurons from prefix and
    suffix halves; its rows are within 1e-12 of per-neuron rows of fresh
    evaluators."""

    NOISE = NoiseModel(flip_p=0.07, phase_p=0.05, depol_p=0.02, readout=((0, 0.03, 0.08), (3, 0.06, 0.02)))

    @staticmethod
    def _batch(n: int) -> tuple[list[int], list[int]]:
        """Codes scored before the batch, and the batch: new codes, w/-w
        pairs, duplicates and the codes scored before."""
        codes = np.random.default_rng(n).integers(2**n, size=16).tolist()
        before, new = codes[:4], codes[4:]
        return before, new + [c ^ (2**n - 1) for c in new[:5]] + new[:3] + before

    @pytest.mark.parametrize("backend", ["ideal", "density"])
    @pytest.mark.parametrize("n, graph", [
        (4, linear_chain(2)), (8, linear_chain(4)), (16, GRID),
    ], ids=["4-chain", "8-chain", "16-grid"])
    def test_batch_equals_fresh_per_neuron_rows(self, backend, n, graph):
        dataset = make_synthetic_dataset(5, 8, k=n.bit_length() - 1)
        cfg = base_config(
            dataset, model([1] * n), backend=backend, noise=self.NOISE, graph=graph,
            strategy="random_search",
        )
        before, batch = self._batch(n)
        ws = [weights_from_code(c, n) for c in batch]
        ev, one_by_one = Evaluator(cfg), Evaluator(cfg)
        for other in (ev, one_by_one):
            other.neuron_outputs(weights_from_code(before[0], n))
            other.neuron_rows(before[1:])
        rows = ev.neuron_rows(batch)
        fresh = np.array([Evaluator(cfg).neuron_outputs(w) for w in ws])
        assert rows.shape == (len(ws), len(dataset.samples))
        # a prefix table is new arithmetic, so rows may differ in the last bits
        assert np.max(np.abs(rows - fresh)) <= 1e-12
        # the same neurons one at a time take more passes through the engine
        for w in ws:
            one_by_one.neuron_outputs(w)
        assert ev.work["walks"] < one_by_one.work["walks"]
        assert {k: v for k, v in ev.work.items() if k not in ("steps", "walks")} == {
            k: v for k, v in one_by_one.work.items() if k not in ("steps", "walks")}
        assert 0 < len(ev._suffixes) * ev._suffixes[()].nbytes <= qnn._SUFFIX_CACHE_BYTES


class TestHalves:
    """A batch splits each flip list at one entry: prefix tables push every
    input's rho forward, suffix halves pull the effect back, and an X layer
    joins them."""

    NOISE = NoiseModel(flip_p=0.05, phase_p=0.03, depol_p=0.01, readout=((None, 0.02, 0.04), (1, 0.05, 0.01)))

    @staticmethod
    def _oracle_row(ev: Evaluator, w, xs) -> np.ndarray:
        plan = ev.plan(code_from_weights(w))
        readout = lookup_readout(plan.bound.readout, plan.measured)
        return np.array([
            density_outcome_probabilities(
                plan.gates, plan.n, plan.bound.events, plan.embed(x), plan.measured, readout,
            )[0]
            for x in xs
        ])

    # (entries, device, codes, neurons and samples checked against the oracle)
    @pytest.mark.parametrize("n, graph, codes, checks", [
        (8, linear_chain(4), range(256), (3, 2)),
        (16, GRID, np.random.default_rng(16).integers(2**16, size=64).tolist(), (1, 1)),
    ], ids=["8-chain", "16-grid"])
    def test_batched_rows_match_lone_rows_and_the_oracle(self, monkeypatch, n, graph, codes, checks):
        tables = []
        monkeypatch.setattr(qnn, "push_forward", lambda *a: tables.append(a[0].shape) or push_forward(*a))
        dataset = make_synthetic_dataset(5, 8, k=n.bit_length() - 1)
        cfg = base_config(dataset, model([1] * n), noise=self.NOISE, graph=graph, strategy="random_search")
        ws = [weights_from_code(c, n) for c in codes]
        ev = Evaluator(cfg)
        rows = ev.neuron_rows(codes)
        assert tables  # split after entry s > 0
        lone = Evaluator(cfg)
        assert np.max(np.abs(rows - np.array([lone.neuron_outputs(w) for w in ws]))) <= 1e-12
        neurons, samples = checks
        for i in np.random.default_rng(n).choice(len(ws), size=neurons, replace=False):
            want = self._oracle_row(ev, ws[i], dataset.inputs()[:samples])
            assert np.max(np.abs(rows[i, :samples] - want)) <= 1e-12

    def test_a_batch_of_one_builds_no_prefix_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(qnn, "density_coeffs", lambda *a: built.append(a) or density_coeffs(*a))
        cfg = base_config(load_dataset(bundled_dataset_path()), model([1] * 8), noise=self.NOISE)
        ev = Evaluator(cfg)
        for c in (0, 3, 90, 255):
            ev.neuron_rows([c])
        assert built == []
        ev.neuron_rows(range(16))
        assert len(built) == 1

    @pytest.mark.parametrize("n, graph", [(8, linear_chain(4)), (16, GRID)], ids=["8-chain", "16-grid"])
    def test_x_layer_is_its_diagonal(self, n, graph):
        cfg = base_config(
            make_synthetic_dataset(5, 4, k=n.bit_length() - 1), model([1] * n), noise=self.NOISE,
            graph=graph, strategy="random_search",
        )
        ev = Evaluator(cfg)
        rng = np.random.default_rng(n)
        for a, b in [(None, None), (None, 0), (0, n - 1), (3, 5), (n - 2, None)]:
            layer = ev._layer(a, b)
            assert [g.kind for g in layer.gates] == [GateKind.X] * len(x_layer(a, b, n.bit_length() - 1))
            c = rng.normal(size=(4,) * ev._frame.n)
            want = pull_back(c.copy(), layer.steps)
            assert np.max(np.abs(ev._diagonal(a, b) * c - want)) <= 1e-15


class TestLevelBuiltSuffixes:
    """A batch builds its missing suffix halves one length per pass through
    the body; each equals the suffix that neurons scored one at a time build,
    bit for bit."""

    @pytest.mark.parametrize("noise", [
        NoiseModel(flip_p=0.05), NoiseModel(phase_p=0.05),
        NoiseModel(depol_p=0.01), parse_noise_shorthand("readout:0.03"),
    ], ids=["flip", "phase", "depol", "readout"])
    @pytest.mark.parametrize("n, graph, codes", [
        (8, linear_chain(4), range(256)),
        (16, GRID, np.random.default_rng(16).integers(2**16, size=64).tolist()),
    ], ids=["8-chain", "16-grid"])
    def test_level_built_suffixes_equal_sequential_ones(self, noise, n, graph, codes):
        cfg = base_config(
            make_synthetic_dataset(5, 8, k=n.bit_length() - 1), model([1] * n), noise=noise, graph=graph,
            strategy="random_search",
        )
        ws = [weights_from_code(c, n) for c in codes]
        ev, lone = Evaluator(cfg), Evaluator(cfg)
        rows = ev.neuron_rows(codes)
        want = np.array([lone.neuron_outputs(w) for w in ws])
        assert np.max(np.abs(rows - want)) <= 1e-12
        # some length held more than one suffix, so it went through the body as one stack
        assert max(Counter(map(len, ev._suffixes)).values()) > 1
        for t, eff in ev._suffixes.items():
            assert np.array_equal(eff, lone._suffix(t)), t

    def test_a_cap_below_a_whole_length_keeps_rows(self, monkeypatch):
        """The memo fills part of a length and `_suffix` rebuilds the rest:
        the rows equal those from suffixes that are all rebuilt alone."""
        ws = [weights_from_code(c, 8) for c in range(256)]
        cfg = base_config(
            make_synthetic_dataset(5, 8, k=3), model([1] * 8), noise=TestHalves.NOISE, graph=linear_chain(4),
            strategy="random_search",
        )
        effect_bytes = 8 * 4**4
        # four prefix tables of 8 samples (a split after entry 2) and a memo of 32 effects
        monkeypatch.setattr(qnn, "_SUFFIX_CACHE_BYTES", 4 * 8 * effect_bytes)
        ev = Evaluator(cfg)
        rows = ev.neuron_rows(range(256))
        lengths = Counter(map(len, ev._suffixes))
        assert len(ev._suffixes) == 32 and len(lengths) > 2
        joined = {f[bisect.bisect_left(f, 2):] for f in map(flip_list, ws)}  # the suffixes rows read
        assert any(len(t) == max(lengths) and t not in ev._suffixes for t in joined)
        real = Evaluator._halves
        monkeypatch.setattr(Evaluator, "_halves", lambda self, run, keys, *a: real(
            self, run, keys if run is push_forward else [], *a))
        alone = Evaluator(cfg)
        assert np.array_equal(rows, alone.neuron_rows(range(256)))
        assert alone.work["walks"] > ev.work["walks"]


class TestSegmentTable:
    """The evaluator compiles one probe neuron per run and assembles every
    neuron from the probe's routed pieces; an assembled plan is the
    whole-circuit plan."""

    NOISE = NoiseModel(flip_p=0.05, phase_p=0.03, depol_p=0.01, readout=((None, 0.02, 0.04),))

    @staticmethod
    def _dataset(n: int) -> Dataset:
        rng = np.random.default_rng(n)
        xs = rng.normal(size=(4, n))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        return Dataset(tuple((tuple(x), i % 2) for i, x in enumerate(xs)), 0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 8, 16]), on_grid=st.booleans(),
        fracs=st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=5),
    )
    # 32 entries: width 8, one probe piece per computing qubit and up to 16 blocks
    @example(n=32, on_grid=False, fracs=[0.3, 0.61])
    @example(n=32, on_grid=True, fracs=[0.45, 0.9])
    def test_assembled_run_equals_whole_compile(self, n, on_grid, fracs):
        codes = [int(f * 2**n) for f in fracs]
        width = neuron_circuit((1,) * n).width
        graph = GRID if on_grid else linear_chain(width)
        ds = self._dataset(n)
        for backend, shots in (("density", 0), ("trajectories", 32)):
            cfg = base_config(
                ds, model([1] * n), backend=backend, noise=self.NOISE, graph=graph, shots=shots,
                strategy="random_search",
            )
            ev = Evaluator(cfg)
            for c in codes:
                w = weights_from_code(c, n)
                mapped = compile(neuron_circuit(w), graph)
                assert all(m == mapped.initial_mapping for m in mapped.block_mappings)
                # gates, measured axes, embedding, and events and readout on dense axes
                assert ev.plan(c) == plan_mapped_run(mapped, bind(self.NOISE, mapped))
                fresh = neuron_outputs(w, mapped, cfg)
                assert np.array_equal(ev.neuron_outputs(w), fresh)

    @pytest.mark.parametrize("backend, shots, codes", [
        ("density", 0, range(256)), ("trajectories", 16, (0, 1, 90, 255)),
    ], ids=["density", "trajectories"])
    def test_compiles_once_per_run(self, monkeypatch, backend, shots, codes):
        compiled = []

        def counted(circ, graph):
            compiled.append(circ)
            return compile_(circ, graph)

        compile_ = qnn.compile
        monkeypatch.setattr(qnn, "compile", counted)
        cfg = base_config(
            load_dataset(bundled_dataset_path()), model([1] * 8), noise=self.NOISE,
            backend=backend, shots=shots,
        )
        ev = Evaluator(cfg)
        for c in codes:
            ev.neuron_outputs(weights_from_code(c, 8))
        assert len(compiled) == 1
        assert ev.work["neurons"] == len(codes)
        assert "compiled" not in ev.work
        assert ev.phase_seconds["map"] > 0.0

    def test_rejects_a_block_that_moves_the_mapping(self, monkeypatch):
        def moved(circ, graph):
            mapped = compile_(circ, graph)
            m = mapped.initial_mapping
            return replace(mapped, block_mappings=(m.with_swap(*m.physical[:2]),))

        compile_ = qnn.compile
        monkeypatch.setattr(qnn, "compile", moved)
        with pytest.raises(MappingNotCanonical):
            Evaluator(base_config(small_dataset(), model([1] * 4)))


class TestSweep:
    def test_zero_rate_matches_baseline_when_optimal(self):
        ds = small_dataset()
        _, best = best_exhaustive_accuracy(ds, n_neurons=1)
        cfg = base_config(ds, best)
        rows = sweep([0.0], cfg)
        assert rows[0].searched_accuracy == pytest.approx(rows[0].baseline_accuracy)

    def test_monotone_improvement_at_every_rate(self):
        ds = small_dataset()
        _, best = best_exhaustive_accuracy(ds, n_neurons=1)
        cfg = base_config(ds, best)
        rows = sweep([0.0, 0.01, 0.1], cfg)
        for row in rows:
            assert row.searched_accuracy >= row.baseline_accuracy

    def test_keeps_the_configs_other_noise(self, monkeypatch):
        """Only the flip and phase rates are swept; readout, depol and
        per-qubit multipliers of the config reach every run."""
        seen = []
        real = trainer.train

        def recording(cfg, log_stream=None):
            seen.append(cfg.noise)
            return real(cfg, log_stream)

        monkeypatch.setattr(trainer, "train", recording)
        nm = NoiseModel(flip_p=0.3, depol_p=0.01, readout=((None, 0.05, 0.1),),
                        qubit_multipliers=((0, 2.0),))
        sweep([0.0, 0.02], base_config(small_dataset(), model([1, 1, 1, 1]), noise=nm, max_iters=3))
        assert seen == [replace(nm, flip_p=r, phase_p=r) for r in (0.0, 0.02)]

    def test_rate_validation(self, monkeypatch):
        trained = []
        monkeypatch.setattr(trainer, "train", lambda cfg, log_stream=None: trained.append(cfg))
        cfg = base_config(small_dataset(), model([1, 1, 1, 1]))
        for rates in ([1.5], [0.01, 0.02, 2.0]):
            with pytest.raises(ValueError):
                sweep(rates, cfg)
        # every rate is checked before any is trained
        assert trained == []

    def test_serialization(self):
        ds = small_dataset()
        _, best = best_exhaustive_accuracy(ds, n_neurons=1)
        rows = sweep([0.0], base_config(ds, best))
        dicts = sweep_rows_as_dicts(rows)
        assert dicts[0]["rate"] == 0.0
        csv = sweep_to_csv(rows)
        assert csv.splitlines()[0] == "rate,baseline_accuracy,searched_accuracy,weights"


class TestColumnLog:
    """`train` keeps its log as columns and reads it back entry by entry."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_log_equals_entries_scored_one_by_one(self, strategy):
        cfg = base_config(
            small_dataset(), model([1, 1, 1, 1], [1, -1, 1, 1]), strategy=strategy,
            max_iters=300, patience=300, noise=NoiseModel(flip_p=0.02, phase_p=0.01),
        )
        streamed = []
        r = train(cfg, log_stream=streamed.append)
        reference = Evaluator(cfg)
        if strategy == "exhaustive":  # rows as train scores them: the baseline's, then one batch
            reference.model_accuracy(cfg.initial)
            reference.neuron_rows(range(16))
        want = tuple(
            LogEntry(i, e.weights, reference.model_accuracy(Model(e.weights)), e.elapsed_ms)
            for i, e in enumerate(streamed)
        )
        assert r.log == want == tuple(streamed)
        assert r.evaluations == len(r.log) == (257 if strategy == "exhaustive" else 301)
        assert r.cache_hits == len(r.log) - len({e.weights for e in r.log})
        assert all(a.elapsed_ms <= b.elapsed_ms for a, b in zip(r.log, r.log[1:]))

    def test_no_entries_built_without_a_stream(self, monkeypatch):
        built = []

        def counted(*fields):
            built.append(fields)
            return LogEntry(*fields)

        monkeypatch.setattr(trainer, "LogEntry", counted)
        r = train(base_config(small_dataset(), model([1, 1, 1, 1], [1, 1, 1, 1])))
        assert built == [] and r.evaluations == 257
        assert len(r.log) == len(built) == 257


def test_log_stream_receives_entries():
    ds = small_dataset()
    got = []
    cfg = base_config(ds, model([1, 1, 1, 1]), max_iters=3)
    train(cfg, log_stream=got.append)
    assert len(got) == 4
    assert got[0].iteration == 0
