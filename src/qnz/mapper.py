"""Application-specific router for C^nZ weight-block circuits, plus a greedy baseline.

The weight-block router places the computing and auxiliary register
interleaved along a chain of physical qubits and routes every block in two
phases. Forward phase, per ladder CCX: g1-g4 of the Toffoli network
(`ir.CCX_NETWORK`) run on existing couplings, one SWAP just before g5 brings
the two controls adjacent. Backward phase, per uncompute CCX: one SWAP before
g1 restores the triple to its resting slots, then g5 and g6 run across the
middle qubit as a single bridge detour, legal because that qubit is back in
|0> by then. Every block therefore ends with the mapping it started with, so
error locations are independent of which blocks a weight vector produces.

The greedy baseline (`naive_route`) swaps along shortest paths with no
restoration guarantee and is only here for comparison.
"""
from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

from .ir import CCX_NETWORK, Circuit, Gate, GateKind, decompose_cnz
from .topology import CouplingGraph, Mapping, NoChainFound, find_chain


class MappingNotCanonical(Exception):
    """Block routing requires the canonical interleaved mapping on entry."""


@dataclass(frozen=True)
class BridgeEvent:
    """One bridge detour: gate index of its first CX, the physical triple, and
    the logical qubit whose |0> state makes the 3-CX form valid."""

    index: int
    control: int
    middle: int
    target: int
    middle_logical: int


@dataclass(frozen=True)
class MapStats:
    swaps: int
    bridges: int
    extra_cx: int  # CX cost of insertions: 3 per SWAP, 3 per bridge detour


@dataclass(frozen=True)
class MappedCircuit:
    """Routed circuit over physical qubit indices.

    `swap_events` (gate index, slot a, slot b) reconstruct the mapping at any
    point; `block_mappings` snapshots it at each input block boundary.
    """

    physical_gates: tuple[Gate, ...]
    num_physical: int
    num_computing: int
    num_aux: int
    chain: tuple[int, ...]
    initial_mapping: Mapping
    final_mapping: Mapping
    swap_events: tuple[tuple[int, int, int], ...]
    bridge_events: tuple[BridgeEvent, ...]
    block_boundaries: tuple[tuple[int, int], ...]
    block_mappings: tuple[Mapping, ...]
    stats: MapStats


def circuit_depth(gates) -> int:
    level: dict[int, int] = {}
    for g in gates:
        l = 1 + max((level.get(q, 0) for q in g.qubits), default=0)
        for q in g.qubits:
            level[q] = l
    return max(level.values(), default=0)


@functools.cache
def _gate(kind: GateKind, qubits: tuple[int, ...], tag: str | None) -> Gate:
    """Each distinct routed gate, built and validated once; `kind` must be a GateKind member."""
    return Gate(kind, qubits, tag)


def initial_interleaved_mapping(n_controls: int, chain: list[int] | tuple[int, ...]) -> Mapping:
    """Canonical layout q0, aux0, q1, aux1, ..., q_{n-2}, aux_{n-2}, q_{n-1}, q_n.

    Logical indices are computing 0..n then auxiliaries n+1..2n-1; the chain
    must have exactly 2n vertices.
    """
    n = n_controls
    if n < 1:
        raise ValueError("need at least one control")
    if len(chain) != 2 * n:
        raise ValueError(f"chain of {2 * n} qubits required, got {len(chain)}")
    physical = [0] * (2 * n)
    for i in range(n - 1):
        physical[i] = chain[2 * i]  # q_i
        physical[n + 1 + i] = chain[2 * i + 1]  # aux_i
    physical[n - 1] = chain[2 * n - 2]  # q_{n-1}
    physical[n] = chain[2 * n - 1]  # q_n (target)
    return Mapping(tuple(physical))


@dataclass
class _Router:
    """Mutable routing state shared by block routing and assembly."""

    chain: tuple[int, ...]
    mapping: Mapping
    gates: list[Gate] = field(default_factory=list)
    swap_events: list[tuple[int, int, int]] = field(default_factory=list)
    bridge_events: list[BridgeEvent] = field(default_factory=list)
    chain_pos: dict[int, int] = field(init=False)

    def __post_init__(self):
        self.chain_pos = {p: i for i, p in enumerate(self.chain)}

    def pos(self, logical: int) -> int:
        return self.chain_pos[self.mapping.physical_of(logical)]

    def phys(self, logical: int) -> int:
        return self.mapping.physical_of(logical)

    def emit(self, kind: GateKind, *logicals: int, tag: str | None = None):
        self.gates.append(_gate(GateKind(kind), tuple(self.phys(l) for l in logicals), tag))

    def emit_swap(self, la: int, lb: int):
        pa, pb = self.phys(la), self.phys(lb)
        self.swap_events.append((len(self.gates), pa, pb))
        self.gates.append(_gate(GateKind.SWAP, (pa, pb), None))
        self.mapping = self.mapping.with_swap(pa, pb)

    def emit_network(self, rows, a: int, b: int, t: int):
        """Rows of `CCX_NETWORK` on the physical qubits of (a, b, t)."""
        abt = (self.phys(a), self.phys(b), self.phys(t))
        self.gates.extend(_gate(kind, tuple(abt[i] for i in pos), tag) for kind, pos, tag in rows)

    def route_ccx_forward(self, a: int, b: int, t: int):
        ca, cb, ct = self.pos(a), self.pos(b), self.pos(t)
        if abs(ca - ct) != 1 or abs(cb - ct) != 1:
            raise MappingNotCanonical(
                f"forward CCX expects its target between the controls, got chain "
                f"positions a={ca} b={cb} t={ct}"
            )
        self.emit_network(CCX_NETWORK[:11], a, b, t)
        # One SWAP before g5: push the target out to the higher slot, pulling
        # the far control next to the other one.
        self.emit_swap(t, a if ca > cb else b)
        self.emit_network(CCX_NETWORK[11:], a, b, t)

    def route_ccx_backward(self, a: int, b: int, t: int):
        ca, cb, ct = self.pos(a), self.pos(b), self.pos(t)
        if abs(ca - cb) != 1:
            raise MappingNotCanonical("backward CCX expects adjacent controls on entry")
        if abs(ca - ct) == 1:
            adj = a
        elif abs(cb - ct) == 1:
            adj = b
        else:
            raise MappingNotCanonical("backward CCX expects its target next to one control")
        # One SWAP before g1 undoes the forward displacement and puts the
        # target back between the controls.
        self.emit_swap(t, adj)
        self.emit_network(CCX_NETWORK[:11], a, b, t)
        # g5 and g6 both need the control pair, now at distance 2 across the
        # target, which is back in |0> after rows 0-10 of the network. A full
        # 3-CX bridge per gate would repeat CX(control, middle) twice in a
        # row; with that pair cancelled, one detour of four CX realizes
        # g5, T, Tdg, g6 exactly and returns the middle qubit to |0>.
        pa, pm, pb = self.phys(a), self.phys(t), self.phys(b)
        if abs(self.pos(a) - self.pos(t)) != 1 or abs(self.pos(t) - self.pos(b)) != 1:
            raise MappingNotCanonical("bridge detour expects the target between the controls")
        self.bridge_events.append(
            BridgeEvent(len(self.gates), pa, pm, pb, middle_logical=t)
        )
        K = GateKind
        self.gates.append(_gate(K.CX, (pa, pm), "bridge"))
        self.gates.append(_gate(K.CX, (pm, pb), "bridge"))
        self.gates.append(_gate(K.T, (pa,), None))
        self.gates.append(_gate(K.TDG, (pb,), None))
        self.gates.append(_gate(K.CX, (pm, pb), "bridge"))
        self.gates.append(_gate(K.CX, (pa, pm), "bridge"))

    def route_block(self, block: list[Gate]):
        """Route one expanded C^nZ fragment (CCX ladder + CZ apex + mirror)."""
        n_ccx = sum(1 for g in block if g.kind is GateKind.CCX)
        if n_ccx % 2 != 0:
            raise MappingNotCanonical("block is not a mirrored CCX ladder")
        half = n_ccx // 2
        seen_ccx = 0
        for g in block:
            if g.kind is GateKind.CCX:
                a, b, t = g.qubits
                if seen_ccx < half:
                    self.route_ccx_forward(a, b, t)
                else:
                    self.route_ccx_backward(a, b, t)
                seen_ccx += 1
            elif g.kind is GateKind.CZ:
                x, y = g.qubits
                if abs(self.pos(x) - self.pos(y)) != 1:
                    raise MappingNotCanonical("apex CZ expects adjacent operands")
                self.emit(GateKind.CZ, x, y)
            elif len(g.qubits) == 1:
                self.emit(g.kind, g.qubits[0], tag=g.tag)
            else:
                raise MappingNotCanonical(f"unexpected {g.kind.value} inside a block")


def _weight_register_controls(circuit: Circuit) -> int:
    """Control count implied by the register shape (aux = computing - 2)."""
    if circuit.num_computing >= 2 and circuit.num_aux == circuit.num_computing - 2:
        return circuit.num_computing - 1
    raise ValueError(
        "compile expects the weight-register shape: num_aux == num_computing - 2; "
        f"got {circuit.num_computing} computing, {circuit.num_aux} aux"
    )


def compile(circuit: Circuit, g: CouplingGraph) -> MappedCircuit:  # noqa: A001
    """Map a circuit of C^nZ blocks and single-qubit gates onto `g`.

    The chain and initial mapping depend only on the register shape, never on
    the gate content, so every weight vector of a given width shares one
    mapping and every block boundary sees that same mapping.
    """
    width = circuit.width
    has_multi = any(len(gt.qubits) > 1 for gt in circuit.gates)
    if width == 0:
        chain: tuple[int, ...] = ()
        mapping = Mapping(())
    elif has_multi or (circuit.num_computing >= 2 and circuit.num_aux == circuit.num_computing - 2):
        n = _weight_register_controls(circuit)
        chain = tuple(find_chain(g, 2 * n))
        mapping = initial_interleaved_mapping(n, chain)
    else:
        chain = tuple(find_chain(g, width))
        mapping = Mapping(tuple(chain))

    for gt in circuit.gates:
        if gt.kind is GateKind.CNZ:
            n = _weight_register_controls(circuit)
            if gt.qubits != tuple(range(n + 1)):
                raise ValueError(
                    "compile expects each cnz to act on the full computing register "
                    f"(controls 0..{n - 1}, target {n}); got {gt.qubits}"
                )
        elif len(gt.qubits) > 1:
            raise ValueError(
                f"compile handles cnz blocks and single-qubit gates only, got {gt.kind.value}"
            )

    r = _Router(chain, mapping)
    boundaries = circuit.block_boundaries or ()
    out_boundaries: list[tuple[int, int]] = []
    block_mappings: list[Mapping] = []
    ends = {hi: i for i, (lo, hi) in enumerate(boundaries)}
    starts = {lo: i for i, (lo, hi) in enumerate(boundaries)}
    open_start = 0

    def note_boundaries(input_index: int):
        # close the ending block before opening the next: consecutive blocks
        # share the boundary index
        nonlocal open_start
        if input_index in ends:
            out_boundaries.append((open_start, len(r.gates)))
            block_mappings.append(r.mapping)
        if input_index in starts:
            open_start = len(r.gates)

    for i, gt in enumerate(circuit.gates):
        note_boundaries(i)
        if gt.kind is GateKind.CNZ:
            block = decompose_cnz(gt, circuit.num_computing, available_aux=circuit.num_aux)
            r.route_block(block)
        else:
            r.emit(gt.kind, gt.qubits[0], tag=gt.tag)
    note_boundaries(len(circuit.gates))

    stats = MapStats(
        swaps=len(r.swap_events),
        bridges=len(r.bridge_events),
        extra_cx=3 * len(r.swap_events) + 3 * len(r.bridge_events),
    )
    return MappedCircuit(
        physical_gates=tuple(r.gates),
        num_physical=g.num_physical,
        num_computing=circuit.num_computing,
        num_aux=circuit.num_aux,
        chain=chain,
        initial_mapping=mapping,
        final_mapping=r.mapping,
        swap_events=tuple(r.swap_events),
        bridge_events=tuple(r.bridge_events),
        block_boundaries=tuple(out_boundaries),
        block_mappings=tuple(block_mappings),
        stats=stats,
    )


def _bfs_path(g: CouplingGraph, src: int, dst: int) -> list[int]:
    """Shortest path, lowest-index exploration order for determinism."""
    parent = {src: src}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            path = [v]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return path[::-1]
        for nb in g.neighbors(v):
            if nb not in parent:
                parent[nb] = v
                queue.append(nb)
    raise NoChainFound(f"no path between physical qubits {src} and {dst}")


def naive_route(circuit: Circuit, g: CouplingGraph) -> MappedCircuit:
    """Greedy baseline: identity layout, SWAP the first operand down a shortest
    path until each two-qubit gate is legal. No restoration guarantee; the net
    permutation is recorded in final_mapping."""
    width = circuit.width
    if width > g.num_physical:
        raise ValueError(f"circuit needs {width} qubits, device has {g.num_physical}")
    for gt in circuit.gates:
        if gt.kind in (GateKind.CNZ, GateKind.CCX, GateKind.BRIDGE3):
            raise ValueError("naive_route expects a circuit expanded to basis gates")

    mapping = Mapping(tuple(range(width)))
    gates: list[Gate] = []
    swap_events: list[tuple[int, int, int]] = []

    def slot_swap(pa: int, pb: int):
        nonlocal mapping
        swap_events.append((len(gates), pa, pb))
        gates.append(Gate(GateKind.SWAP, (pa, pb)))
        mapping = mapping.with_swap(pa, pb)

    for gt in circuit.gates:
        phys = [mapping.physical_of(q) for q in gt.qubits]
        if len(phys) == 2 and not g.are_coupled(phys[0], phys[1]):
            path = _bfs_path(g, phys[0], phys[1])
            for i in range(len(path) - 2):
                slot_swap(path[i], path[i + 1])
            phys = [path[-2], path[-1]]
        gates.append(Gate(gt.kind, tuple(phys), gt.tag))

    stats = MapStats(
        swaps=len(swap_events),
        bridges=0,
        extra_cx=3 * len(swap_events),
    )
    return MappedCircuit(
        physical_gates=tuple(gates),
        num_physical=g.num_physical,
        num_computing=circuit.num_computing,
        num_aux=circuit.num_aux,
        chain=(),
        initial_mapping=Mapping(tuple(range(width))),
        final_mapping=mapping,
        swap_events=tuple(swap_events),
        bridge_events=(),
        block_boundaries=(),
        block_mappings=(),
        stats=stats,
    )


def check_legal(m: MappedCircuit, g: CouplingGraph) -> None:
    """Raise if any multi-qubit physical gate sits on uncoupled qubits."""
    for gt in m.physical_gates:
        qs = gt.qubits
        if gt.kind is GateKind.BRIDGE3:
            pairs = [(qs[0], qs[1]), (qs[1], qs[2])]
        else:
            pairs = [(qs[i], qs[j]) for i in range(len(qs)) for j in range(i + 1, len(qs))]
        for a, b in pairs:
            if not g.are_coupled(a, b):
                raise ValueError(f"illegal gate {gt.kind.value} {qs}: ({a}, {b}) not coupled")


def mapped_to_text(m: MappedCircuit) -> str:
    """Routed circuit in the plaintext format with a mapping comment block."""
    lines = ["# mapping (logical -> physical)"]
    for l, p in enumerate(m.initial_mapping.physical):
        lines.append(f"# map {l} {p}")
    if m.chain:
        lines.append("# chain " + " ".join(str(p) for p in m.chain))
    lines.append(f"qubits {m.num_physical} 0")
    for gt in m.physical_gates:
        token = gt.kind.value if gt.kind is not GateKind.CNZ else f"cnz{gt.n_controls}"
        lines.append(" ".join([token] + [str(q) for q in gt.qubits]))
    return "\n".join(lines) + "\n"
