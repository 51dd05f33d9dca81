"""Layer spans recorded from outside the program.

Tracing replaces each layer's public function (or method) in every loaded
``qnz`` module that refers to it with a wrapper that records a span: call
count, wall time and self time (wall time minus the time of the layer spans
it encloses). Some spans also count work from their arguments or results.
Spans are aggregated in memory and restored to the originals afterwards.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    """Aggregated spans and work counts; records nothing while paused."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.wall = defaultdict(float)  # seconds
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.bound_circuits: set = set()
        self.paused = False
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn, after=None):
        """Span around fn; ``after(tracer, args, kwargs, result)`` counts work."""
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.wall[name] += dt
                self.self_time[name] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return span


def _count_gates(tr, args, kwargs, mapped):
    tr.counts["mapper.gates_out"] += len(mapped.physical_gates)


def _count_events(tr, args, kwargs, bound):
    tr.counts["noise.events"] += bound.total_events
    tr.bound_circuits.add(args[1].physical_gates)


def _count_shots(tr, args, kwargs, counts):
    tr.counts["simulator.traj.shots"] += counts.shots


def _count_cache_hits(tr, args, kwargs, result):
    tr.counts["trainer.cache_hits"] += result.cache_hits


# (module, function, span name, work counter)
FUNCTIONS = (
    ("qnz.topology", "find_chain", "topology.find_chain", None),
    ("qnz.mapper", "compile", "mapper.compile", _count_gates),
    ("qnz.qnn", "neuron_circuit", "qnn.neuron_circuit", None),
    ("qnz.qnn", "accuracy", "qnn.accuracy", None),
    ("qnz.noise", "bind", "noise.bind", _count_events),
    ("qnz.simulator", "plan_mapped_run", "simulator.plan", None),
    ("qnz.simulator", "run_gates_trajectories", "simulator.traj", _count_shots),
    ("qnz.trainer", "train", "trainer.search", _count_cache_hits),
    ("qnz.cli", "main", "cli", None),
)
# (module, class, method, span name)
METHODS = (
    ("qnz.simulator", "DensityProgram", "__init__", "simulator.density.build"),
    ("qnz.simulator", "DensityProgram", "distribution", "simulator.density.run"),
    ("qnz.trainer", "Evaluator", "neuron_outputs", "trainer.neuron_outputs"),
    ("qnz.trainer", "Evaluator", "model_accuracy", "trainer.model_accuracy"),
)


def replace_everywhere(original, replacement) -> list:
    """Point every loaded qnz module attribute bound to ``original`` at
    ``replacement``; returns (module, name) pairs for restoring."""
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qnz" or mod_name.startswith("qnz.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr))
    return patched


def install(tracer: Tracer):
    """Wrap every layer; returns a function that restores the originals."""
    undo = []
    for mod_name, fn_name, span_name, after in FUNCTIONS:
        original = getattr(importlib.import_module(mod_name), fn_name)
        wrapper = tracer.wrap(span_name, original, after)
        undo.append((original, replace_everywhere(original, wrapper)))
    methods = []
    for mod_name, cls_name, meth, span_name in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(span_name, original))
        methods.append((cls, meth, original))

    def restore():
        for original, places in undo:
            for mod, attr in places:
                setattr(mod, attr, original)
        for cls, meth, original in methods:
            setattr(cls, meth, original)

    return restore


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics, each averaged over the traced rounds."""
    ms = {name: 1e3 * t / rounds for name, t in tr.wall.items()}
    self_ms = {name: 1e3 * t / rounds for name, t in tr.self_time.items()}

    def calls(name):
        return tr.calls[name] / rounds

    traj_s = tr.wall["simulator.traj"]
    return {
        "topology.find_chain.calls": calls("topology.find_chain"),
        "topology.find_chain.ms": ms.get("topology.find_chain", 0.0),
        "mapper.compile.calls": calls("mapper.compile"),
        "mapper.compile.ms": ms.get("mapper.compile", 0.0),
        "mapper.gates_out": tr.counts["mapper.gates_out"] / rounds,
        "qnn.neuron_circuit.ms": ms.get("qnn.neuron_circuit", 0.0),
        "qnn.accuracy.self_ms": self_ms.get("qnn.accuracy", 0.0),
        "noise.bind.calls": calls("noise.bind"),
        "noise.bind.distinct": float(len(tr.bound_circuits)),
        "noise.bind.ms": ms.get("noise.bind", 0.0),
        "noise.events": tr.counts["noise.events"] / rounds,
        "simulator.plan.calls": calls("simulator.plan"),
        "simulator.plan.ms": ms.get("simulator.plan", 0.0),
        "simulator.density.programs": calls("simulator.density.build"),
        "simulator.density.build_ms": ms.get("simulator.density.build", 0.0),
        "simulator.density.runs": calls("simulator.density.run"),
        "simulator.density.run_ms": ms.get("simulator.density.run", 0.0),
        "simulator.traj.calls": calls("simulator.traj"),
        "simulator.traj.shots": tr.counts["simulator.traj.shots"] / rounds,
        "simulator.traj.ms": ms.get("simulator.traj", 0.0),
        "simulator.traj.shots_per_s": tr.counts["simulator.traj.shots"] / traj_s if traj_s else 0.0,
        "trainer.neuron_outputs.calls": calls("trainer.neuron_outputs"),
        "trainer.neuron_outputs.ms": ms.get("trainer.neuron_outputs", 0.0),
        "trainer.model_accuracy.calls": calls("trainer.model_accuracy"),
        "trainer.cache_hits": tr.counts["trainer.cache_hits"] / rounds,
        "trainer.search.self_ms": self_ms.get("trainer.search", 0.0),
        "cli.self_ms": self_ms.get("cli", 0.0),
    }
