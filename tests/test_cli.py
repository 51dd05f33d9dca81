"""End-to-end CLI tests: file round trips, reports, error envelopes, seeds."""
import json

import pytest

from qnz.bench import COMPLEXITY_CLASSES, complexity_circuit
from qnz.cli import main
from qnz.qnn import best_exhaustive_accuracy, format_dataset, format_model, make_synthetic_dataset
from qnz.ir import format_circuit, parse_circuit
from qnz.trainer import train


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "circ.txt").write_text("qubits 4 2\nx 0\ncnz3 0 1 2 3\nx 0\n")
    (tmp_path / "cal.json").write_text(json.dumps({"flip_p": 0.01, "phase_p": 0.01}))
    ds = make_synthetic_dataset(2, 10, k=3)
    (tmp_path / "data.txt").write_text(format_dataset(ds))
    _, best = best_exhaustive_accuracy(ds)
    (tmp_path / "best.model").write_text(format_model(best))
    (tmp_path / "train.json").write_text(
        json.dumps(
            {
                "strategy": "random_search",
                "max_iters": 12,
                "backend": "density",
                "noise": "flip:0.02,phase:0.02",
                "model": str(tmp_path / "best.model"),
                "dataset": str(tmp_path / "data.txt"),
                "topology": "chain:4",
                "patience": 12,
            }
        )
    )
    return tmp_path


def run_cli(capsys, *argv) -> tuple[int, dict | None, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestCompile:
    def test_writes_routed_circuit_and_stats(self, workdir, capsys):
        out = workdir / "routed.txt"
        stats = workdir / "stats.json"
        code, report, _ = run_cli(
            capsys,
            "compile",
            "--circuit", str(workdir / "circ.txt"),
            "--topology", "chain:6",
            "--out", str(out),
            "--stats", str(stats),
        )
        assert code == 0
        assert report["subcommand"] == "compile"
        assert report["stats"]["swaps"] == 4
        assert report["stats"]["bridges"] == 2
        assert report["stats"]["extra_cx"] == 18
        assert "compile_time_ms" in report["stats"]
        assert report["inputs"]["circuit"]["sha256"]
        parsed = parse_circuit(out.read_text())
        assert parsed.num_computing == 6
        saved = json.loads(stats.read_text())
        assert saved["swaps"] == 4

    @pytest.mark.parametrize("name, depth", [("simple", 55), ("middle", 165), ("complex", 275)])
    def test_stats_report_the_routed_depth(self, workdir, capsys, name, depth):
        circ = workdir / f"{name}.txt"
        circ.write_text(format_circuit(complexity_circuit(COMPLEXITY_CLASSES[name])))
        stats = workdir / "stats.json"
        code, report, _ = run_cli(
            capsys, "compile", "--circuit", str(circ), "--topology", "chain:6", "--stats", str(stats)
        )
        assert code == 0
        assert report["stats"]["depth"] == json.loads(stats.read_text())["depth"] == depth

    def test_greedy_router(self, workdir, capsys):
        (workdir / "flat.txt").write_text("qubits 3 0\ncx 0 2\n")
        code, report, _ = run_cli(
            capsys,
            "compile",
            "--circuit", str(workdir / "flat.txt"),
            "--topology", "chain:3",
            "--router", "greedy",
        )
        assert code == 0
        assert report["stats"]["swaps"] == 1

    def test_bad_circuit_is_json_error(self, workdir, capsys):
        (workdir / "bad.txt").write_text("qubits 2 0\nwobble 0\n")
        code, report, err = run_cli(
            capsys, "compile", "--circuit", str(workdir / "bad.txt"), "--topology", "chain:2"
        )
        assert code == 1
        assert report is None
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "CircuitParseError"
        assert "line 2" in payload["message"]


class TestSimulate:
    def test_requires_seed(self, workdir, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--circuit", str(workdir / "circ.txt"), "--shots", "10"
        )
        assert code == 1
        assert json.loads(err.strip())["error"] == "CliError"

    def test_trajectories_deterministic(self, workdir, capsys):
        args = (
            "simulate",
            "--circuit", str(workdir / "circ.txt"),
            "--noise", str(workdir / "cal.json"),
            "--shots", "300",
            "--seed", "9",
        )
        code1, r1, _ = run_cli(capsys, *args)
        code2, r2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert r1["result"]["counts"] == r2["result"]["counts"]
        assert sum(r1["result"]["counts"].values()) == 300

    def test_density_histogram(self, workdir, capsys):
        code, report, _ = run_cli(
            capsys,
            "simulate",
            "--circuit", str(workdir / "circ.txt"),
            "--backend", "density",
            "--seed", "1",
            "--init", "basis:0",
        )
        assert code == 0
        dist = report["result"]["distribution"]
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_amplitude_init(self, workdir, capsys):
        amp = workdir / "amps.txt"
        amp.write_text("0.7071067811865476 0\n0.7071067811865476 0\n")
        (workdir / "one.txt").write_text("qubits 1 0\nz 0\n")
        code, report, _ = run_cli(
            capsys,
            "simulate",
            "--circuit", str(workdir / "one.txt"),
            "--backend", "density",
            "--seed", "1",
            "--init", f"amplitudes:{amp}",
        )
        assert code == 0
        dist = report["result"]["distribution"]
        assert dist["0"] == pytest.approx(0.5, abs=1e-9)


    def test_density_rejects_shots(self, workdir, capsys):
        code, report, err = run_cli(
            capsys, "simulate", "--circuit", str(workdir / "circ.txt"), "--backend", "density",
            "--shots", "10", "--seed", "1",
        )
        assert (code, report) == (1, None)
        assert json.loads(err.strip()) == {
            "error": "CliError", "message": "--shots is read only by the traj backend, not by density",
        }


class TestInfer:
    @pytest.mark.parametrize("backend", ["density", "ideal"])
    def test_exact_backends_reject_shots(self, workdir, capsys, backend):
        code, report, err = run_cli(
            capsys, "infer", "--model", str(workdir / "best.model"), "--dataset", str(workdir / "data.txt"),
            "--backend", backend, "--shots", "100", "--seed", "3",
        )
        assert (code, report) == (1, None)
        assert json.loads(err.strip()) == {
            "error": "CliError", "message": f"--shots is read only by the traj backend, not by {backend}",
        }

    def test_accuracy_report(self, workdir, capsys):
        code, report, _ = run_cli(
            capsys,
            "infer",
            "--model", str(workdir / "best.model"),
            "--dataset", str(workdir / "data.txt"),
            "--noise", "flip:0.01,phase:0.01",
            "--backend", "density",
            "--seed", "3",
        )
        assert code == 0
        assert 0.0 <= report["result"]["accuracy"] <= 1.0
        assert report["result"]["samples"] == 10

    def test_dataset_of_another_length_is_json_error(self, workdir, capsys):
        (workdir / "short.txt").write_text(format_dataset(make_synthetic_dataset(2, 10, k=2)))
        code, _, err = run_cli(
            capsys, "infer", "--model", str(workdir / "best.model"),
            "--dataset", str(workdir / "short.txt"), "--backend", "density", "--seed", "3",
        )
        assert code == 1
        assert json.loads(err.strip()) == {
            "error": "ValueError",
            "message": "dataset samples have length 4, the model's input length is 8",
        }

    def test_threads_reach_trajectories_and_keep_accuracy(self, workdir, capsys, monkeypatch):
        import qnz.qnn as qnn_module

        seen = []
        real = qnn_module.trajectory_counts

        def recording(*args, **kwargs):
            seen.append(kwargs["threads"])
            return real(*args, **kwargs)

        monkeypatch.setattr(qnn_module, "trajectory_counts", recording)
        args = (
            "infer",
            "--model", str(workdir / "best.model"),
            "--dataset", str(workdir / "data.txt"),
            "--noise", "flip:0.05,phase:0.05,readout:0.05",
            "--backend", "traj",
            "--shots", "200",
            "--seed", "4",
        )
        acc = {}
        for threads in ("1", "2"):
            seen.clear()
            code, report, _ = run_cli(capsys, *args, "--threads", threads)
            assert code == 0
            assert set(seen) == {int(threads)}
            acc[threads] = report["result"]["accuracy"]
        assert acc["1"] == acc["2"]

    def test_reports_work(self, workdir, capsys):
        """Neurons, routed gates and bound events of the model's distinct
        neurons, each compiled whole, and the evaluator's engine steps and
        passes, as the trainer counts them."""
        from qnz.mapper import compile
        from qnz.noise import bind, load_noise
        from qnz.qnn import Evaluator, Scoring, load_dataset, load_model, neuron_circuit
        from qnz.topology import load_topology

        m = load_model(str(workdir / "best.model"))
        args = ("--model", str(workdir / "best.model"), "--dataset", str(workdir / "data.txt"),
                "--topology", "chain:4", "--seed", "3")
        code, report, _ = run_cli(capsys, "infer", *args, "--noise", "flip:0.01,depol:0.02")
        assert code == 0
        graph = load_topology("chain:4")
        mapped = [compile(neuron_circuit(w), graph) for w in dict.fromkeys(m.neurons)]
        noise = load_noise("flip:0.01,depol:0.02")
        ev = Evaluator(Scoring(load_dataset(str(workdir / "data.txt")), "density", noise, graph, seed=3))
        ev.model_accuracy(m)
        assert report["result"]["work"] == {
            "neurons": len(mapped),
            "gates": sum(len(c.physical_gates) for c in mapped),
            "events": sum(bind(noise, c).total_events for c in mapped),
            "steps": ev.work["steps"],
            "walks": ev.work["walks"],
        }
        assert 0 < ev.work["walks"] < ev.work["steps"]
        code, report, _ = run_cli(capsys, "infer", *args, "--backend", "ideal")
        assert code == 0 and report["result"]["work"]["events"] == 0

    def test_one_evaluator_behind_infer_train_and_bench(self, workdir, capsys):
        # the same 2-neuron model under flip + phase + readout noise, scored
        # by `qnz infer`, the trainer's Evaluator and `bench --mode compare`
        from qnz.bench import report_router_comparison
        from qnz.noise import load_noise
        from qnz.qnn import load_dataset, load_model
        from qnz.topology import load_topology
        from qnz.trainer import Evaluator, TrainConfig

        spec = "flip:0.03,phase:0.02,readout:0.04"
        code, report, _ = run_cli(
            capsys,
            "infer",
            "--model", str(workdir / "best.model"),
            "--dataset", str(workdir / "data.txt"),
            "--noise", spec,
            "--backend", "density",
            "--topology", "chain:4",
            "--seed", "3",
        )
        assert code == 0
        m = load_model(str(workdir / "best.model"))
        ds = load_dataset(str(workdir / "data.txt"))
        noise, graph = load_noise(spec), load_topology("chain:4")
        assert len(m.neurons) == 2 and noise.readout
        cfg = TrainConfig(
            strategy="random_search", max_iters=1, seed=3, backend="density",
            noise=noise, initial=m, dataset=ds, graph=graph,
        )
        trained = Evaluator(cfg).model_accuracy(m)
        rows = report_router_comparison(m, m, graph, noise, ds)
        (ours_searched,) = [r for r in rows if (r.router, r.model) == ("ours", "searched")]
        assert report["result"]["accuracy"] == trained == ours_searched.accuracy


class TestTrainAndSweep:
    def test_train_reports_incumbent(self, workdir, capsys):
        code, report, err = run_cli(
            capsys, "train", "--config", str(workdir / "train.json"), "--seed", "5", "--log"
        )
        assert code == 0
        res = report["result"]
        assert res["best_accuracy"] >= res["baseline_accuracy"]
        assert set(res["work"]) == {"neurons", "gates", "events", "steps", "walks"}
        events = [json.loads(line) for line in err.strip().splitlines()]
        assert events[0]["iter"] == 0
        assert {"iter", "weights", "accuracy", "elapsed_ms"} <= events[0].keys()

    @pytest.mark.parametrize("strategy", ["exhaustive", "hill_climb", "random_search"])
    def test_log_streams_the_result_log(self, workdir, capsys, monkeypatch, strategy):
        from qnz import cli

        results = []

        def keeping(cfg, log_stream=None):
            results.append(train(cfg, log_stream))
            return results[-1]

        monkeypatch.setattr(cli, "train", keeping)
        config = json.loads((workdir / "train.json").read_text())
        # exhaustive: two whole blocks of 256 entries and part of a third
        config.update(strategy=strategy, max_iters=600, patience=600)
        (workdir / "log.json").write_text(json.dumps(config))
        code, report, err = run_cli(
            capsys, "train", "--config", str(workdir / "log.json"), "--seed", "5", "--log"
        )
        assert code == 0
        (result,) = results
        assert [json.loads(line) for line in err.strip().splitlines()] == [
            {"iter": e.iteration, "weights": [list(w) for w in e.weights],
             "accuracy": e.accuracy, "elapsed_ms": e.elapsed_ms}
            for e in result.log
        ] + [{"work": result.work, "phase_seconds": result.phase_seconds}]
        assert result.work == report["result"]["work"]
        assert report["result"]["evaluations"] == len(result.log) == 601

    def test_train_without_log_builds_no_entries(self, workdir, capsys, monkeypatch):
        from qnz import trainer

        def refused(*fields):
            raise AssertionError("a log entry was built")

        monkeypatch.setattr(trainer, "LogEntry", refused)
        code, report, _ = run_cli(capsys, "train", "--config", str(workdir / "train.json"), "--seed", "5")
        assert code == 0 and report["result"]["evaluations"] == 13

    @pytest.mark.parametrize("backend", ["density", "trajectories"])
    @pytest.mark.parametrize("data, message", [
        ("dim 8\n", "dataset declares dim 8 but has no samples"),
        (format_dataset(make_synthetic_dataset(2, 10, k=2)),
         "dataset samples have length 4, the model's input length is 8"),
    ], ids=["empty", "short"])
    def test_dataset_that_does_not_fit_is_json_error(self, workdir, capsys, backend, data, message):
        (workdir / "unfit.txt").write_text(data)
        config = json.loads((workdir / "train.json").read_text())
        config.update(dataset=str(workdir / "unfit.txt"), backend=backend)
        if backend == "trajectories":
            config.update(shots=16)
        (workdir / "unfit.json").write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "train", "--config", str(workdir / "unfit.json"), "--seed", "5")
        assert code == 1
        assert json.loads(err.strip()) == {"error": "ValueError", "message": message}

    def test_config_shots_on_an_exact_backend_is_json_error(self, workdir, capsys):
        config = json.loads((workdir / "train.json").read_text())
        assert config["backend"] == "density"
        (workdir / "shots.json").write_text(json.dumps(dict(config, shots=500)))
        code, _, err = run_cli(capsys, "train", "--config", str(workdir / "shots.json"), "--seed", "5")
        assert code == 1
        assert json.loads(err.strip()) == {
            "error": "ValueError",
            "message": "shots are read only by the trajectories backend, not by density",
        }

    def test_train_missing_field(self, workdir, capsys):
        (workdir / "bad.json").write_text(json.dumps({"strategy": "exhaustive"}))
        code, _, err = run_cli(
            capsys, "train", "--config", str(workdir / "bad.json"), "--seed", "5"
        )
        assert code == 1
        assert "missing" in json.loads(err.strip())["message"]

    def test_sweep_csv(self, workdir, capsys):
        out = workdir / "table.csv"
        code, report, _ = run_cli(
            capsys,
            "sweep",
            "--config", str(workdir / "train.json"),
            "--rates", "0,0.05",
            "--seed", "5",
            "--format", "csv",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rate,baseline_accuracy,searched_accuracy,weights"
        assert len(lines) == 3
        for row in report["result"]:
            assert row["searched_accuracy"] >= row["baseline_accuracy"]

    def test_sweep_sums_work_and_phase_seconds(self, workdir, capsys):
        from dataclasses import replace

        from qnz.cli import load_train_config

        code, report, _ = run_cli(
            capsys, "sweep", "--config", str(workdir / "train.json"), "--rates", "0,0.05", "--seed", "5",
        )
        assert code == 0
        cfg, _ = load_train_config(str(workdir / "train.json"), 5, 1)
        runs = [train(replace(cfg, noise=replace(cfg.noise, flip_p=r, phase_p=r))) for r in (0.0, 0.05)]
        assert report["work"] == {k: sum(r.work[k] for r in runs) for k in runs[0].work}
        assert report["work"]["neurons"] > 0 and report["work"]["events"] > 0
        assert set(report["phase_seconds"]) == set(runs[0].phase_seconds)
        assert report["phase_seconds"]["infer"] > 0.0


class TestBench:
    def test_latency_mode(self, workdir, capsys):
        code, report, _ = run_cli(
            capsys, "bench", "--topology", "chain:6", "--repetitions", "3"
        )
        assert code == 0
        classes = report["result"]["classes"]
        assert [c["name"] for c in classes] == ["simple", "middle", "complex"]

    def test_zero_repetitions_usage_error(self, workdir, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--topology", "chain:6", "--repetitions", "0"
        )
        assert code == 1
        assert json.loads(err.strip())["error"] == "CliError"

    def test_compare_mode(self, workdir, capsys):
        code, report, _ = run_cli(
            capsys,
            "bench",
            "--mode", "compare",
            "--topology", "chain:4",
            "--baseline-model", str(workdir / "best.model"),
            "--searched-model", str(workdir / "best.model"),
            "--dataset", str(workdir / "data.txt"),
            "--noise", "flip:0.01,phase:0.01",
        )
        assert code == 0
        rows = report["result"]["comparison"]
        assert len(rows) == 3
        assert rows[0]["router"] == "ours"

    def test_compare_rejects_a_dataset_that_does_not_fit(self, workdir, capsys):
        (workdir / "empty.txt").write_text("dim 8\n")
        code, _, err = run_cli(
            capsys, "bench", "--mode", "compare", "--topology", "chain:4",
            "--baseline-model", str(workdir / "best.model"),
            "--searched-model", str(workdir / "best.model"),
            "--dataset", str(workdir / "empty.txt"),
        )
        assert code == 1
        assert json.loads(err.strip()) == {
            "error": "ValueError", "message": "dataset declares dim 8 but has no samples",
        }

    @pytest.mark.parametrize("flag", [["--scaling"], ["--repetitions", "3"]])
    def test_compare_mode_rejects_latency_flags(self, workdir, capsys, flag):
        code, _, err = run_cli(
            capsys, "bench", "--mode", "compare", "--topology", "chain:4",
            "--baseline-model", str(workdir / "best.model"),
            "--searched-model", str(workdir / "best.model"),
            "--dataset", str(workdir / "data.txt"), *flag,
        )
        assert code == 1
        error = json.loads(err.strip())
        assert error["error"] == "CliError" and error["message"].startswith(flag[0])

    @pytest.mark.parametrize("flag", ["--baseline-model", "--searched-model", "--dataset", "--noise"])
    def test_latency_mode_rejects_compare_flags(self, workdir, capsys, flag):
        value = "flip:0.01" if flag == "--noise" else str(workdir / "best.model")
        code, _, err = run_cli(capsys, "bench", "--topology", "chain:6", flag, value)
        assert code == 1
        error = json.loads(err.strip())
        assert error["error"] == "CliError" and error["message"].startswith(flag)

    def test_compare_requires_models(self, workdir, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--mode", "compare", "--topology", "chain:4"
        )
        assert code == 1
        assert "requires" in json.loads(err.strip())["message"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("qnz ")


def test_threads_env_fallback(workdir, monkeypatch):
    from qnz.cli import build_parser

    monkeypatch.setenv("QNZ_THREADS", "3")
    args = build_parser().parse_args(
        ["simulate", "--circuit", str(workdir / "circ.txt"), "--seed", "1"]
    )
    assert args.threads == 3
    args = build_parser().parse_args(
        ["simulate", "--circuit", str(workdir / "circ.txt"), "--seed", "1", "--threads", "2"]
    )
    assert args.threads == 2


def test_bad_threads_env_is_a_usage_error(workdir, monkeypatch, capsys):
    """A QNZ_THREADS that is not an integer fails as a bad --threads does."""
    monkeypatch.setenv("QNZ_THREADS", "two")
    for argv in (
        ["simulate", "--circuit", str(workdir / "circ.txt"), "--seed", "1"],
        ["simulate", "--circuit", str(workdir / "circ.txt"), "--seed", "1", "--threads", "two"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --threads: invalid int value: 'two'" in capsys.readouterr().err
    # a subcommand without --threads never reads it
    circuit = str(workdir / "circ.txt")
    code, report, _ = run_cli(capsys, "compile", "--circuit", circuit, "--topology", "chain:6")
    assert code == 0 and report["stats"]["swaps"] == 4


# every flag a subcommand used to accept and ignore, after its required arguments
IGNORED_FLAGS = [
    (["compile", "--circuit", "c.txt", "--topology", "chain:6"], ["--seed", "1"]),
    (["compile", "--circuit", "c.txt", "--topology", "chain:6"], ["--threads", "2"]),
    (["compile", "--circuit", "c.txt", "--topology", "chain:6"], ["--format", "csv"]),
    (["simulate", "--circuit", "c.txt"], ["--format", "csv"]),
    (["infer", "--model", "m.txt", "--dataset", "d.txt"], ["--format", "csv"]),
    (["train", "--config", "t.json", "--seed", "5"], ["--format", "csv"]),
    (["bench", "--topology", "chain:6"], ["--seed", "1"]),
    (["bench", "--topology", "chain:6"], ["--threads", "2"]),
]


@pytest.mark.parametrize("argv, flag", IGNORED_FLAGS, ids=lambda a: " ".join(a[:1]))
def test_subcommands_reject_flags_they_ignore(argv, flag, capsys):
    """Each subcommand declares only the flags it reads: `train --format csv`
    is a usage error, not a JSON run."""
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
