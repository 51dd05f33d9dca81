"""Search-strategy behavior: incumbent retention, oracle agreement, caching."""
from dataclasses import replace

import pytest

from qnz.noise import NoiseModel
from qnz.qnn import best_exhaustive_accuracy, make_synthetic_dataset, model, weights_from_code
from qnz.trainer import (
    Evaluator,
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

    def test_rate_validation(self):
        ds = small_dataset()
        cfg = base_config(ds, model([1, 1, 1, 1]))
        with pytest.raises(ValueError):
            sweep([1.5], cfg)

    def test_serialization(self):
        ds = small_dataset()
        _, best = best_exhaustive_accuracy(ds, n_neurons=1)
        rows = sweep([0.0], base_config(ds, best))
        dicts = sweep_rows_as_dicts(rows)
        assert dicts[0]["rate"] == 0.0
        csv = sweep_to_csv(rows)
        assert csv.splitlines()[0] == "rate,baseline_accuracy,searched_accuracy,weights"


def test_log_stream_receives_entries():
    ds = small_dataset()
    got = []
    cfg = base_config(ds, model([1, 1, 1, 1]), max_iters=3)
    train(cfg, log_stream=got.append)
    assert len(got) == 4
    assert got[0].iteration == 0
