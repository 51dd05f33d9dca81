"""Stochastic error models and their binding to the physical gates of a mapped circuit.

Four channel families are supported: qubit-flip (stochastic X after gates in
the flip set), phase (stochastic Z after gates in the phase set), per-gate
depolarizing (uniform non-identity Pauli on the gate's qubits), and classical
readout corruption P(n|m) factorized over bits.

Binding is a pure function of the noise model and the mapped gate list, so two
circuits with identical mapping traces get identical channel placements. That
determinism is what makes the error learnable by the trainer.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ir import Gate, GateKind, decompose_bridge3, decompose_swap

FLIP_KINDS = frozenset({GateKind.X, GateKind.CX, GateKind.CCX})
PHASE_KINDS = frozenset({GateKind.Z, GateKind.CZ})


class CalibrationError(Exception):
    """Malformed calibration data; message names the offending field path."""


@dataclass(frozen=True)
class NoiseModel:
    """Abstract error-rate specification, independent of any mapping.

    `readout` maps a physical qubit to (p01, p10): P(read 1 | true 0) and
    P(read 0 | true 1); an entry for qubit None covers every unlisted qubit.
    `qubit_multipliers` scale flip/phase rates per physical qubit.
    """

    flip_p: float = 0.0
    phase_p: float = 0.0
    depol_p: float = 0.0
    readout: tuple[tuple[int, float, float], ...] = ()
    qubit_multipliers: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        for name, p in (("flip_p", self.flip_p), ("phase_p", self.phase_p), ("depol_p", self.depol_p)):
            _check_prob(name, p)
        for q, p01, p10 in self.readout:
            _check_prob(f"readout[{q}].p01", p01)
            _check_prob(f"readout[{q}].p10", p10)

    def multiplier_for(self, qubit: int) -> float:
        for q, f in self.qubit_multipliers:
            if q == qubit:
                return f
        return 1.0


def lookup_readout(readout, qubits) -> list[tuple[float, float]]:
    """(p01, p10) per qubit from a readout table; the first entry for a qubit
    wins, a qubit of None is a wildcard for every unlisted qubit, and unlisted
    qubits read clean without one."""
    table: dict[int | None, tuple[float, float]] = {}
    for q, p01, p10 in readout:
        table.setdefault(q, (p01, p10))
    default = table.get(None, (0.0, 0.0))
    return [table.get(q, default) for q in qubits]


def _check_prob(name: str, p) -> None:
    if not isinstance(p, (int, float)) or not (0.0 <= float(p) <= 1.0):
        raise CalibrationError(f"{name}: probability must be in [0, 1], got {p!r}")


# One stochastic error event: ("flip", (q,), p), ("phase", (q,), p) or
# ("depol", qubits, p).
Event = tuple[str, tuple[int, ...], float]


@dataclass(frozen=True)
class BoundNoise:
    """Channel assignments for one mapped circuit: `events[i]` fire after gate i."""

    events: tuple[tuple[Event, ...], ...]
    readout: tuple[tuple[int, float, float], ...] = ()

    @property
    def total_events(self) -> int:
        return sum(len(e) for e in self.events)


def _constituent_cx(g: Gate) -> list[tuple[int, ...]]:
    """The CX of a SWAP or bridge composite, for per-CX error accounting."""
    decompose = decompose_swap if g.kind is GateKind.SWAP else decompose_bridge3
    return [cx.qubits for cx in decompose(g)]


def _gate_events(noise: NoiseModel, g: Gate) -> tuple[Event, ...]:
    events: list[Event] = []

    def flip(qubits):
        for q in qubits:
            p = noise.flip_p * noise.multiplier_for(q)
            if p > 0.0:
                events.append(("flip", (q,), min(p, 1.0)))

    def phase(qubits):
        for q in qubits:
            p = noise.phase_p * noise.multiplier_for(q)
            if p > 0.0:
                events.append(("phase", (q,), min(p, 1.0)))

    def depol(qubits):
        if noise.depol_p > 0.0:
            events.append(("depol", tuple(qubits), noise.depol_p))

    if g.kind in (GateKind.SWAP, GateKind.BRIDGE3):
        # Composite gates are noise-expanded to their 3 CX: each constituent
        # CX draws the channels a CX would.
        for pair in _constituent_cx(g):
            flip(pair)
            depol(pair)
    else:
        if g.kind in FLIP_KINDS:
            flip(g.qubits)
        if g.kind in PHASE_KINDS:
            phase(g.qubits)
        depol(g.qubits)
    return tuple(events)


def bind_gates(noise: NoiseModel, gates) -> BoundNoise:
    """Attach channels to an explicit physical gate sequence."""
    return BoundNoise(
        events=tuple(_gate_events(noise, g) for g in gates),
        readout=noise.readout,
    )


def bind(noise: NoiseModel, m) -> BoundNoise:
    """Attach channels to a MappedCircuit's physical gates.

    Affected-set membership is decided on the gate kinds as routed, before any
    expansion: a CCX unit draws one flip per touched qubit, while SWAP and
    bridge composites pay per constituent CX, which is what makes routing
    overhead cost fidelity.
    """
    return bind_gates(noise, m.physical_gates)


def apply_readout(bits: np.ndarray, pairs, uniforms: np.ndarray) -> np.ndarray:
    """Readout-corrupted copy of a (shots, m) array of measured bits.

    `pairs[j]` is the (p01, p10) pair of the qubit measured in column j: a 0
    there reads 1 when its uniform in `uniforms` is below p01, and a 1 reads
    0 when it is below p10.
    """
    p01, p10 = np.array(pairs, dtype=float).reshape(-1, 2).T
    return bits ^ (uniforms < np.where(bits == 1, p10, p01))


def _as_prob(path: str, value) -> float:
    _check_prob(path, value)
    return float(value)


def load_calibration(path: str) -> NoiseModel:
    """Load a JSON calibration file; unspecified rates default to 0."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise CalibrationError(f"{path}: invalid JSON: {e}") from None
    return noise_model_from_dict(raw, source=path)


def noise_model_from_dict(raw: dict, source: str = "calibration") -> NoiseModel:
    if not isinstance(raw, dict):
        raise CalibrationError(f"{source}: expected an object at the top level")
    known = {"flip_p", "phase_p", "depol_p", "readout", "qubit_multipliers"}
    for key in raw:
        if key not in known:
            raise CalibrationError(f"{source}: unknown field {key!r}")
    readout = []
    for i, entry in enumerate(raw.get("readout", [])):
        if not isinstance(entry, dict) or "qubit" not in entry:
            raise CalibrationError(f"{source}: readout[{i}] must be an object with 'qubit'")
        readout.append(
            (
                int(entry["qubit"]),
                _as_prob(f"readout[{i}].p01", entry.get("p01", 0.0)),
                _as_prob(f"readout[{i}].p10", entry.get("p10", 0.0)),
            )
        )
    mults = []
    for i, entry in enumerate(raw.get("qubit_multipliers", [])):
        if not isinstance(entry, dict) or "qubit" not in entry or "factor" not in entry:
            raise CalibrationError(
                f"{source}: qubit_multipliers[{i}] must be an object with 'qubit' and 'factor'"
            )
        factor = float(entry["factor"])
        if factor < 0:
            raise CalibrationError(f"{source}: qubit_multipliers[{i}].factor must be >= 0")
        mults.append((int(entry["qubit"]), factor))
    return NoiseModel(
        flip_p=_as_prob("flip_p", raw.get("flip_p", 0.0)),
        phase_p=_as_prob("phase_p", raw.get("phase_p", 0.0)),
        depol_p=_as_prob("depol_p", raw.get("depol_p", 0.0)),
        readout=tuple(readout),
        qubit_multipliers=tuple(mults),
    )


def parse_noise_shorthand(spec: str) -> NoiseModel:
    """Shorthand like 'flip:0.01,phase:0.01,depol:0.05,readout:0.1'.

    The readout rate applies symmetrically (p01 = p10) to every measured qubit.
    """
    flip = phase = depol = 0.0
    read = None
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise CalibrationError(f"shorthand term {part!r} must look like name:rate")
        name, _, value = part.partition(":")
        try:
            rate = float(value)
        except ValueError:
            raise CalibrationError(f"shorthand term {part!r}: bad rate") from None
        if name == "flip":
            flip = rate
        elif name == "phase":
            phase = rate
        elif name == "depol":
            depol = rate
        elif name == "readout":
            read = rate
        else:
            raise CalibrationError(f"shorthand term {part!r}: unknown channel {name!r}")
    readout = ()
    if read is not None:
        _check_prob("readout", read)
        readout = ((None, read, read),)  # a wildcard: every qubit
    return NoiseModel(flip_p=flip, phase_p=phase, depol_p=depol, readout=readout)


def load_noise(spec: str) -> NoiseModel:
    """CLI noise argument: a JSON file path or a shorthand string."""
    if ":" in spec and not spec.endswith(".json"):
        return parse_noise_shorthand(spec)
    return load_calibration(spec)
