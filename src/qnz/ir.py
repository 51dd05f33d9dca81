"""Gate and circuit representation, fixed decompositions, and the plaintext format.

Conventions used throughout the package:

- Qubit 0 is the most significant bit of a basis-state index, so weight
  index i corresponds directly to basis state |i>.
- Auxiliary qubits are numbered after computing qubits and must enter and
  leave every weight block in |0>.
- C^nZ gates list their controls in ascending order followed by the target.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class GateKind(str, Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    T = "t"
    TDG = "tdg"
    CX = "cx"
    CZ = "cz"
    SWAP = "swap"
    BRIDGE3 = "bridge"
    CCX = "ccx"
    CNZ = "cnz"


# Fixed arity per kind; CNZ is variable (n controls + 1 target, n >= 1).
ARITY: dict[GateKind, int | None] = {
    GateKind.X: 1,
    GateKind.Y: 1,
    GateKind.Z: 1,
    GateKind.H: 1,
    GateKind.S: 1,
    GateKind.T: 1,
    GateKind.TDG: 1,
    GateKind.CX: 2,
    GateKind.CZ: 2,
    GateKind.SWAP: 2,
    GateKind.BRIDGE3: 3,
    GateKind.CCX: 3,
    GateKind.CNZ: None,
}

BASIS_KINDS = frozenset(
    {
        GateKind.X,
        GateKind.Y,
        GateKind.Z,
        GateKind.H,
        GateKind.S,
        GateKind.T,
        GateKind.TDG,
        GateKind.CX,
        GateKind.CZ,
        GateKind.SWAP,
    }
)


class AuxShortageError(Exception):
    """Raised when a decomposition needs more auxiliary qubits than exist."""

    def __init__(self, needed: int, available: int):
        self.needed = needed
        self.available = available
        super().__init__(
            f"decomposition needs {needed} auxiliary qubit(s), only {available} available"
        )


class CircuitParseError(Exception):
    """Malformed circuit text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class Gate:
    """One gate application. qubits are logical (or physical, post-mapping) indices.

    For CX the order is (control, target); for BRIDGE3 (control, middle, target);
    for CNZ all controls then the target. `tag` carries provenance labels such
    as the g1..g6 positions of a Toffoli network.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    tag: str | None = None

    def __post_init__(self):
        arity = ARITY[self.kind]
        if arity is not None and len(self.qubits) != arity:
            raise ValueError(f"{self.kind.value} expects {arity} qubits, got {len(self.qubits)}")
        if self.kind is GateKind.CNZ and len(self.qubits) < 2:
            raise ValueError("cnz needs at least 1 control and 1 target")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {self.kind.value} {self.qubits}")

    @property
    def n_controls(self) -> int:
        if self.kind is not GateKind.CNZ:
            raise ValueError("n_controls only defined for cnz gates")
        return len(self.qubits) - 1


def gate(kind: GateKind, *qubits: int, tag: str | None = None) -> Gate:
    return Gate(kind, tuple(qubits), tag)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over `num_computing + num_aux` logical qubits.

    `block_boundaries` optionally marks half-open gate-index ranges, one per
    weight block; auxiliary qubits must be |0> at every boundary (checked by
    simulation in tests, not at construction).
    """

    num_computing: int
    num_aux: int
    gates: tuple[Gate, ...] = ()
    block_boundaries: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.num_computing < 0 or self.num_aux < 0:
            raise ValueError("qubit counts must be nonnegative")
        width = self.width
        for g in self.gates:
            if any(q < 0 or q >= width for q in g.qubits):
                raise ValueError(f"gate {g.kind.value} {g.qubits} out of range for width {width}")
        if self.block_boundaries is not None:
            for lo, hi in self.block_boundaries:
                if not (0 <= lo <= hi <= len(self.gates)):
                    raise ValueError(f"block boundary ({lo}, {hi}) out of range")

    @property
    def width(self) -> int:
        return self.num_computing + self.num_aux


def decompose_cnz(g: Gate, aux_base: int, available_aux: int | None = None) -> list[Gate]:
    """Expand a C^nZ gate into the CCX ladder with a CZ apex.

    Uses n-1 auxiliaries starting at `aux_base`, each assumed |0> on entry and
    returned to |0> by the mirrored uncompute half. n=1 degenerates to a bare CZ.
    """
    if g.kind is not GateKind.CNZ:
        raise ValueError("decompose_cnz expects a cnz gate")
    n = g.n_controls
    controls, target = g.qubits[:-1], g.qubits[-1]
    if n == 1:
        return [Gate(GateKind.CZ, (controls[0], target))]
    if available_aux is not None and available_aux < n - 1:
        raise AuxShortageError(needed=n - 1, available=available_aux)
    aux = [aux_base + j for j in range(n - 1)]
    forward = [Gate(GateKind.CCX, (controls[0], controls[1], aux[0]))]
    for j in range(1, n - 1):
        forward.append(Gate(GateKind.CCX, (controls[j + 1], aux[j - 1], aux[j])))
    apex = Gate(GateKind.CZ, (aux[-1], target))
    return forward + [apex] + forward[::-1]


# The Clifford+T Toffoli network on (a, b, t), a and b the controls and t the
# target: per gate its kind, the positions of its qubits in (a, b, t), and its
# tag. Rows 0-10 couple t to each control (g1-g4); g5 and g6 couple a and b.
CCX_NETWORK: tuple[tuple[GateKind, tuple[int, ...], str | None], ...] = (
    (GateKind.H, (2,), None),
    (GateKind.CX, (1, 2), "g1"),
    (GateKind.TDG, (2,), None),
    (GateKind.CX, (0, 2), "g2"),
    (GateKind.T, (2,), None),
    (GateKind.CX, (1, 2), "g3"),
    (GateKind.TDG, (2,), None),
    (GateKind.CX, (0, 2), "g4"),
    (GateKind.T, (1,), None),
    (GateKind.T, (2,), None),
    (GateKind.H, (2,), None),
    (GateKind.CX, (0, 1), "g5"),
    (GateKind.T, (0,), None),
    (GateKind.TDG, (1,), None),
    (GateKind.CX, (0, 1), "g6"),
)


def decompose_ccx(g: Gate) -> list[Gate]:
    """The Toffoli network `CCX_NETWORK` on the gate's qubits."""
    if g.kind is not GateKind.CCX:
        raise ValueError("decompose_ccx expects a ccx gate")
    return [Gate(kind, tuple(g.qubits[i] for i in pos), tag) for kind, pos, tag in CCX_NETWORK]


def decompose_swap(g: Gate) -> list[Gate]:
    """SWAP as 3 CX."""
    if g.kind is not GateKind.SWAP:
        raise ValueError("decompose_swap expects a swap gate")
    a, b = g.qubits
    return [Gate(GateKind.CX, (a, b)), Gate(GateKind.CX, (b, a)), Gate(GateKind.CX, (a, b))]


def decompose_bridge3(g: Gate) -> list[Gate]:
    """3-CX bridge: acts as CX(control, target) when the middle qubit is |0>.

    The middle qubit returns to |0>, including for entangled control states.
    Callers are responsible for the |0> precondition; it is not representable
    at construction time.
    """
    if g.kind is not GateKind.BRIDGE3:
        raise ValueError("decompose_bridge3 expects a bridge gate")
    c, m, t = g.qubits
    return [Gate(GateKind.CX, (c, m)), Gate(GateKind.CX, (m, t)), Gate(GateKind.CX, (c, m))]


def expand_to_basis(circuit: Circuit) -> Circuit:
    """Recursively expand CNZ/CCX/BRIDGE3 until only basis kinds remain.

    Idempotent on already-expanded circuits. Block boundaries are remapped to
    the expanded gate indices.
    """
    out: list[Gate] = []
    index_map: list[int] = []  # index_map[i] = expanded index where input gate i starts

    def emit(g: Gate):
        if g.kind in BASIS_KINDS:
            out.append(g)
        elif g.kind is GateKind.CNZ:
            for sub in decompose_cnz(g, circuit.num_computing, available_aux=circuit.num_aux):
                emit(sub)
        elif g.kind is GateKind.CCX:
            out.extend(decompose_ccx(g))
        elif g.kind is GateKind.BRIDGE3:
            out.extend(decompose_bridge3(g))
        else:  # pragma: no cover - all kinds handled above
            raise ValueError(f"cannot expand {g.kind.value}")

    for g in circuit.gates:
        index_map.append(len(out))
        emit(g)
    index_map.append(len(out))

    boundaries = None
    if circuit.block_boundaries is not None:
        boundaries = tuple((index_map[lo], index_map[hi]) for lo, hi in circuit.block_boundaries)
    return Circuit(circuit.num_computing, circuit.num_aux, tuple(out), boundaries)


def _kind_token(g: Gate) -> str:
    if g.kind is GateKind.CNZ:
        return f"cnz{g.n_controls}"
    return g.kind.value


def format_circuit(circuit: Circuit, comments: list[str] | None = None) -> str:
    """Render to the plaintext format: header line then one gate per line."""
    lines = [f"# {c}" for c in comments or []]
    lines.append(f"qubits {circuit.num_computing} {circuit.num_aux}")
    for g in circuit.gates:
        lines.append(" ".join([_kind_token(g)] + [str(q) for q in g.qubits]))
    return "\n".join(lines) + "\n"


_TOKEN_TO_KIND = {k.value: k for k in GateKind if k is not GateKind.CNZ}


def parse_circuit(text: str) -> Circuit:
    """Parse the plaintext format; rejects unknown kinds and bad arities with line numbers."""
    header: tuple[int, int] | None = None
    gates: list[Gate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "qubits" or len(parts) != 3:
                raise CircuitParseError(line_no, "expected header 'qubits <computing> <aux>'")
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise CircuitParseError(line_no, "qubit counts must be integers") from None
            continue
        token, args = parts[0], parts[1:]
        try:
            qubits = tuple(int(a) for a in args)
        except ValueError:
            raise CircuitParseError(line_no, f"non-integer qubit index in {line!r}") from None
        if token.startswith("cnz"):
            try:
                n = int(token[3:])
            except ValueError:
                raise CircuitParseError(line_no, f"unknown gate kind {token!r}") from None
            if n < 1:
                raise CircuitParseError(line_no, "cnz control count must be >= 1")
            if len(qubits) != n + 1:
                raise CircuitParseError(
                    line_no, f"cnz{n} expects {n + 1} qubits, got {len(qubits)}"
                )
            kind = GateKind.CNZ
        else:
            kind = _TOKEN_TO_KIND.get(token)
            if kind is None:
                raise CircuitParseError(line_no, f"unknown gate kind {token!r}")
            if len(qubits) != ARITY[kind]:
                raise CircuitParseError(
                    line_no, f"{token} expects {ARITY[kind]} qubits, got {len(qubits)}"
                )
        try:
            gates.append(Gate(kind, qubits))
        except ValueError as e:
            raise CircuitParseError(line_no, str(e)) from None
    if header is None:
        raise CircuitParseError(1, "missing 'qubits' header")
    try:
        return Circuit(header[0], header[1], tuple(gates))
    except ValueError as e:
        raise CircuitParseError(1, str(e)) from None
