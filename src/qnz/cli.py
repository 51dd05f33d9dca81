"""Command-line interface: compile, simulate, infer, train, sweep, bench.

Every run prints a report to stdout with input hashes, stage timings, and the
tool version. Structured errors go to stderr as a single JSON line and the
exit code is nonzero. All randomness flows from --seed; the stochastic
subcommands refuse to run without one.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bench import (
    COMPLEXITY_CLASSES,
    latency_scaling,
    report_router_comparison,
    rows_as_dicts,
    rows_to_csv,
    standard_bench_rows,
)
from .ir import parse_circuit
from .mapper import compile as compile_circuit
from .mapper import circuit_depth, mapped_to_text, naive_route
from .noise import NoiseModel, bind_gates, load_noise
from .qnn import Scoring, accuracy, load_dataset, load_model
from .simulator import basis_state, run_density, run_trajectories, state_from_amplitudes
from .topology import load_topology
from .trainer import (
    TrainConfig,
    sweep,
    sweep_rows_as_dicts,
    sweep_to_csv,
    train,
)


class CliError(Exception):
    """User-facing failure; rendered as a single JSON line on stderr."""


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_record(spec: str) -> dict:
    if os.path.exists(spec):
        return {"path": spec, "sha256": _sha256(spec)}
    return {"arg": spec}


def _read_circuit(path: str):
    with open(path, encoding="utf-8") as f:
        return parse_circuit(f.read())


def _parse_init(spec: str, width: int) -> np.ndarray:
    if spec.startswith("basis:"):
        index = int(spec.split(":", 1)[1])
        if not 0 <= index < 2**width:
            raise CliError(f"basis index {index} out of range for width {width}")
        return basis_state(width, index)
    if spec.startswith("amplitudes:"):
        path = spec.split(":", 1)[1]
        rows = []
        with open(path, encoding="utf-8") as f:
            for raw in f:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = [float(v) for v in line.split()]
                rows.append(complex(parts[0], parts[1] if len(parts) > 1 else 0.0))
        return state_from_amplitudes(rows)
    raise CliError(f"bad --init {spec!r}: use basis:<index> or amplitudes:<file>")


def _require_seed(args) -> int:
    if args.seed is None:
        raise CliError(f"{args.command} requires --seed (no silent nondeterminism)")
    return args.seed


def _write(path: str | None, text: str) -> list[str]:
    """Write the primary artifact; stdout stays reserved for the run report."""
    if path is None:
        return []
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return [path]


# ---------------------------------------------------------------------------
# Subcommand implementations


def cmd_compile(args) -> dict:
    circuit = _read_circuit(args.circuit)
    graph = load_topology(args.topology)
    t0 = time.perf_counter()
    if args.router == "greedy":
        mapped = naive_route(circuit, graph)
    else:
        mapped = compile_circuit(circuit, graph)
    compile_ms = (time.perf_counter() - t0) * 1e3
    text = mapped_to_text(mapped)
    outputs = _write(args.out, text)
    stats = {
        "swaps": mapped.stats.swaps,
        "bridges": mapped.stats.bridges,
        "extra_cx": mapped.stats.extra_cx,
        "depth": circuit_depth(mapped.physical_gates),
        "compile_time_ms": compile_ms,
    }
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as f:
            json.dump(stats, f, indent=2)
        outputs.append(args.stats)
    report = {
        "inputs": {"circuit": _input_record(args.circuit), "topology": _input_record(args.topology)},
        "outputs": outputs,
        "stats": stats,
        "timings_ms": {"compile": compile_ms},
    }
    if args.out is None:
        report["circuit_text"] = text
    return report


def cmd_simulate(args) -> dict:
    seed = _require_seed(args)
    if args.shots is not None and args.backend != "traj":
        raise CliError(f"--shots is read only by the traj backend, not by {args.backend}")
    circuit = _read_circuit(args.circuit)
    noise = load_noise(args.noise) if args.noise else NoiseModel()
    init = _parse_init(args.init, circuit.width)
    bound = bind_gates(noise, circuit.gates)
    t0 = time.perf_counter()
    if args.backend == "density":
        dist = run_density(circuit, bound, init=init)
        histogram = {k: v for k, v in sorted(dist.items())}
        payload = {"backend": "density", "distribution": histogram}
    else:
        if args.shots is None or args.shots < 1:
            raise CliError("trajectory backend requires --shots >= 1")
        counts = run_trajectories(
            circuit, bound, init, shots=args.shots, seed=seed, threads=args.threads
        )
        payload = {
            "backend": "traj",
            "shots": counts.shots,
            "seed": counts.seed,
            "counts": counts.counts,
        }
    simulate_ms = (time.perf_counter() - t0) * 1e3
    outputs = _write(args.out, json.dumps(payload, indent=2) + "\n")
    return {
        "inputs": {
            "circuit": _input_record(args.circuit),
            "noise": _input_record(args.noise) if args.noise else {"arg": "none"},
        },
        "outputs": outputs,
        "result": payload,
        "timings_ms": {"simulate": simulate_ms},
    }


def cmd_infer(args) -> dict:
    seed = _require_seed(args)
    if args.shots is not None and args.backend != "traj":
        raise CliError(f"--shots is read only by the traj backend, not by {args.backend}")
    model = load_model(args.model)
    dataset = load_dataset(args.dataset)
    noise = load_noise(args.noise) if args.noise else NoiseModel()
    graph = load_topology(args.topology) if args.topology else None
    backend = {"traj": "trajectories"}.get(args.backend, args.backend)
    t0 = time.perf_counter()
    work: dict[str, int] = {}
    scoring = Scoring(dataset, backend, noise, graph, args.shots or 0, seed, args.threads)
    acc = accuracy(model, scoring, work=work)
    infer_ms = (time.perf_counter() - t0) * 1e3
    payload = {"accuracy": acc, "samples": len(dataset.samples), "backend": backend, "work": work}
    outputs = _write(args.out, json.dumps(payload, indent=2) + "\n")
    return {
        "inputs": {
            "model": _input_record(args.model),
            "dataset": _input_record(args.dataset),
            "noise": _input_record(args.noise) if args.noise else {"arg": "none"},
        },
        "outputs": outputs,
        "result": payload,
        "timings_ms": {"infer": infer_ms},
    }


def load_train_config(path: str, seed: int, threads: int) -> tuple[TrainConfig, dict]:
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    required = {"strategy", "max_iters", "backend", "model", "dataset"}
    missing = required - raw.keys()
    if missing:
        raise CliError(f"train config missing fields: {sorted(missing)}")
    noise = load_noise(raw["noise"]) if raw.get("noise") else NoiseModel()
    graph = load_topology(raw["topology"]) if raw.get("topology") else None
    cfg = TrainConfig(
        strategy=raw["strategy"],
        max_iters=int(raw["max_iters"]),
        seed=seed,
        backend=raw["backend"],
        noise=noise,
        initial=load_model(raw["model"]),
        dataset=load_dataset(raw["dataset"]),
        graph=graph,
        shots=int(raw.get("shots", 0)),
        patience=int(raw.get("patience", 64)),
        threads=threads,
    )
    inputs = {
        "config": _input_record(path),
        "model": _input_record(raw["model"]),
        "dataset": _input_record(raw["dataset"]),
    }
    if raw.get("noise"):
        inputs["noise"] = _input_record(raw["noise"])
    return cfg, inputs


def _log_stream(entry):
    print(
        json.dumps(
            {
                "iter": entry.iteration,
                "weights": [list(w) for w in entry.weights],
                "accuracy": entry.accuracy,
                "elapsed_ms": entry.elapsed_ms,
            }
        ),
        file=sys.stderr,
    )


def cmd_train(args) -> dict:
    seed = _require_seed(args)
    cfg, inputs = load_train_config(args.config, seed, args.threads)
    t0 = time.perf_counter()
    result = train(cfg, log_stream=_log_stream if args.log else None)
    train_ms = (time.perf_counter() - t0) * 1e3
    if args.log:  # the stream ends with where the run's time and work went
        print(json.dumps({"work": result.work, "phase_seconds": result.phase_seconds}), file=sys.stderr)
    payload = {
        "best_weights": [list(w) for w in result.best.neurons],
        "best_accuracy": result.best_accuracy,
        "baseline_accuracy": result.baseline_accuracy,
        "evaluations": result.evaluations,
        "cache_hits": result.cache_hits,
        "phase_seconds": result.phase_seconds,
        "work": result.work,
    }
    outputs = _write(args.out, json.dumps(payload, indent=2) + "\n")
    return {
        "inputs": inputs,
        "outputs": outputs,
        "result": payload,
        "timings_ms": {"train": train_ms},
    }


def cmd_sweep(args) -> dict:
    seed = _require_seed(args)
    cfg, inputs = load_train_config(args.config, seed, args.threads)
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        raise CliError(f"bad --rates {args.rates!r}") from None
    if not rates:
        raise CliError("--rates needs at least one value")
    t0 = time.perf_counter()
    rows = sweep(rates, cfg)
    sweep_ms = (time.perf_counter() - t0) * 1e3
    if args.format == "csv":
        outputs = _write(args.out, sweep_to_csv(rows))
    else:
        outputs = _write(args.out, json.dumps(sweep_rows_as_dicts(rows), indent=2) + "\n")
    return {
        "inputs": inputs,
        "outputs": outputs,
        "result": sweep_rows_as_dicts(rows),
        # summed over the rates
        "work": {k: sum(r.work[k] for r in rows) for k in rows[0].work},
        "phase_seconds": {k: sum(r.phase_seconds[k] for r in rows) for k in rows[0].phase_seconds},
        "timings_ms": {"sweep": sweep_ms},
    }


def cmd_bench(args) -> dict:
    latency_only = {"--scaling": args.scaling, "--repetitions": args.repetitions is not None}
    compare_only = {"--baseline-model": args.baseline_model, "--searched-model": args.searched_model,
                    "--dataset": args.dataset, "--noise": args.noise}
    other = "compare" if args.mode == "latency" else "latency"
    for name, given in (compare_only if other == "compare" else latency_only).items():
        if given:
            raise CliError(f"{name} is read only by --mode {other}, not by --mode {args.mode}")
    repetitions = 25 if args.repetitions is None else args.repetitions
    if repetitions < 1:
        raise CliError("--repetitions must be >= 1")
    graph = load_topology(args.topology)
    t0 = time.perf_counter()
    if args.mode == "latency":
        rows = standard_bench_rows(graph, repetitions)
        payload: dict = {"classes": rows_as_dicts(rows)}
        if args.scaling:
            points, r2 = latency_scaling(graph, repetitions=repetitions)
            payload["scaling"] = {"points": points, "r_squared": r2}
        inputs = {"topology": _input_record(args.topology)}
    else:
        for name, value in (
            ("--baseline-model", args.baseline_model),
            ("--searched-model", args.searched_model),
            ("--dataset", args.dataset),
        ):
            if not value:
                raise CliError(f"bench --mode compare requires {name}")
        noise = load_noise(args.noise) if args.noise else NoiseModel()
        rows = report_router_comparison(
            load_model(args.baseline_model),
            load_model(args.searched_model),
            graph,
            noise,
            load_dataset(args.dataset),
        )
        payload = {"comparison": rows_as_dicts(rows)}
        inputs = {
            "topology": _input_record(args.topology),
            "baseline_model": _input_record(args.baseline_model),
            "searched_model": _input_record(args.searched_model),
            "dataset": _input_record(args.dataset),
        }
    bench_ms = (time.perf_counter() - t0) * 1e3
    if args.format == "csv":
        outputs = _write(args.out, rows_to_csv(rows))
    else:
        outputs = _write(args.out, json.dumps(payload, indent=2) + "\n")
    return {
        "inputs": inputs,
        "outputs": outputs,
        "result": payload,
        "timings_ms": {"bench": bench_ms},
    }


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnz",
        description="Fixed-mapping compiler and error-aware trainer for "
        "C^nZ binary-weight quantum neuron circuits.",
    )
    parser.add_argument("--version", action="version", version=f"qnz {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags a subcommand may take besides --out; a string default is
    # parsed like a command-line value, so a bad QNZ_THREADS is a usage error
    flags = {
        "--seed": dict(type=int, default=None, help="root seed for all randomness"),
        "--threads": dict(type=int, default=os.environ.get("QNZ_THREADS", "1"),
                          help="worker threads (env QNZ_THREADS)"),
        "--format": dict(choices=("json", "csv"), default="json"),
    }

    def common(p, *names):
        p.add_argument("--out", default=None, help="write the primary artifact here")
        for name in names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("compile", help="route a circuit onto a device topology")
    common(p)
    p.add_argument("--circuit", required=True)
    p.add_argument("--topology", required=True, help="file or chain:<n>")
    p.add_argument("--stats", default=None, help="write stats JSON here")
    p.add_argument("--router", choices=("ours", "greedy"), default="ours")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("simulate", help="run a circuit on a noisy backend")
    common(p, "--seed", "--threads")
    p.add_argument("--circuit", required=True)
    p.add_argument("--noise", default=None, help="calibration JSON or flip:0.01,phase:0.01")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--backend", choices=("traj", "density"), default="traj")
    p.add_argument("--init", default="basis:0", help="basis:<index> or amplitudes:<file>")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("infer", help="evaluate a model's accuracy on a dataset")
    common(p, "--seed", "--threads")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--noise", default=None)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--backend", choices=("ideal", "density", "traj"), default="density")
    p.add_argument("--topology", default=None)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("train", help="error-aware weight search from a JSON config")
    common(p, "--seed", "--threads")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--log",
        action="store_true",
        help="stream evaluation events to stderr (exhaustive search: once per block of 2^N), "
        "then one line of work counters and phase seconds",
    )
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sweep", help="train across a list of error rates")
    common(p, "--seed", "--threads", "--format")
    p.add_argument("--config", required=True)
    p.add_argument("--rates", required=True, help="comma-separated rates")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "bench",
        help="compile-latency benchmark or router comparison",
        description="Latency mode times the simple/middle/complex classes "
        f"({COMPLEXITY_CLASSES} C^3Z blocks). Compare mode reruns a baseline "
        "and a searched model under both routers.",
    )
    common(p, "--format")
    p.add_argument("--mode", choices=("latency", "compare"), default="latency")
    p.add_argument("--topology", required=True)
    p.add_argument("--repetitions", type=int, default=None, help="latency mode; default 25")
    p.add_argument("--scaling", action="store_true", help="also fit latency vs block count")
    p.add_argument("--baseline-model", default=None)
    p.add_argument("--searched-model", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--noise", default=None)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        body = args.fn(args)
    except Exception as e:  # CLI boundary: every failure becomes one JSON line
        print(
            json.dumps({"error": type(e).__name__, "message": str(e)}),
            file=sys.stderr,
        )
        return 1
    report = {
        "subcommand": args.command,
        "version": __version__,
        "elapsed_ms": (time.perf_counter() - t0) * 1e3,
    }
    report.update(body)
    print(json.dumps(report, default=str))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
