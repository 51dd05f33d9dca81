"""Physical device model: coupling graph, logical-to-physical mapping, chain embedding.

Error rates are deliberately not stored here; the noise module binds rates to
physical qubits separately, keeping topology purely structural.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class NoChainFound(Exception):
    """No simple path of the requested length exists in the coupling graph."""


def _norm_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected device connectivity; two-qubit gates are legal only on edges."""

    num_physical: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on physical qubit {a}")
            if not (0 <= a < self.num_physical and 0 <= b < self.num_physical):
                raise ValueError(f"edge ({a}, {b}) out of range")
            if a > b:
                raise ValueError("edges must be stored as (low, high) pairs")

    def are_coupled(self, a: int, b: int) -> bool:
        if not (0 <= a < self.num_physical and 0 <= b < self.num_physical):
            raise ValueError(f"physical index out of range: ({a}, {b})")
        return _norm_edge(a, b) in self.edges

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.num_physical)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(tuple(sorted(nbs)) for nbs in adj)

    @cached_property
    def component_sizes(self) -> tuple[int, ...]:
        """Vertex count of each vertex's connected component."""
        size = [0] * self.num_physical
        for root in (v for v in range(self.num_physical) if not size[v]):
            seen, todo = {root}, [root]
            while todo:
                fresh = [nb for nb in self._adjacency[todo.pop()] if nb not in seen]
                seen.update(fresh)
                todo += fresh
            for v in seen:
                size[v] = len(seen)
        return tuple(size)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v, lowest index first (built once per graph)."""
        return self._adjacency[v]


def coupling_graph(num_physical: int, edges) -> CouplingGraph:
    return CouplingGraph(num_physical, frozenset(_norm_edge(a, b) for a, b in edges))


def linear_chain(n: int) -> CouplingGraph:
    """Path graph 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("chain needs at least one qubit")
    return coupling_graph(n, [(i, i + 1) for i in range(n - 1)])


def find_chain(g: CouplingGraph, length: int) -> list[int]:
    """Deterministic simple path of `length` vertices: DFS, lowest index first.

    The DFS keeps its own stack, so long chains do not hit Python's recursion
    limit. Raises NoChainFound when the graph has no simple path that long,
    at once when no connected component has `length` vertices.
    """
    if length < 1:
        raise ValueError("chain length must be >= 1")
    largest = max(g.component_sizes, default=0)
    if length > largest:
        raise NoChainFound(f"need {length} connected qubits, largest component has {largest}")
    for start in range(g.num_physical):
        if g.component_sizes[start] < length:
            continue
        path, used, untried = [start], {start}, [iter(g.neighbors(start))]
        while 0 < len(path) < length:  # untried: neighbors left per path vertex
            nxt = next((v for v in untried[-1] if v not in used), None)
            if nxt is None:
                untried.pop()
                used.discard(path.pop())
            else:
                path.append(nxt)
                used.add(nxt)
                untried.append(iter(g.neighbors(nxt)))
        if path:
            return path
    raise NoChainFound(f"no simple path of {length} vertices in the coupling graph")


@dataclass(frozen=True)
class Mapping:
    """Total injective assignment of logical qubits to physical indices.

    `physical[l]` is the physical index hosting logical qubit l.
    """

    physical: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.physical)) != len(self.physical):
            raise ValueError("mapping must be injective")
        if any(p < 0 for p in self.physical):
            raise ValueError("physical indices must be nonnegative")

    def physical_of(self, logical: int) -> int:
        return self.physical[logical]

    def with_swap(self, pa: int, pb: int) -> "Mapping":
        """Mapping after exchanging the states at physical slots pa and pb."""
        moved = []
        for p in self.physical:
            if p == pa:
                moved.append(pb)
            elif p == pb:
                moved.append(pa)
            else:
                moved.append(p)
        return Mapping(tuple(moved))


def parse_topology(text: str) -> CouplingGraph:
    """Topology file: line 1 'physical <n>', then one 'edge a b' per line;
    every error names its line."""
    num = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if num is None:
                if parts[0] != "physical" or len(parts) != 2:
                    raise ValueError("expected header 'physical <n>'")
                num = int(parts[1])
            elif parts[0] != "edge" or len(parts) != 3:
                raise ValueError("expected 'edge a b'")
            else:  # the edge checked on its own
                edges += coupling_graph(num, [(int(parts[1]), int(parts[2]))]).edges
        except ValueError as e:
            raise ValueError(f"line {line_no}: {e}") from None
    if num is None:
        raise ValueError("missing 'physical' header")
    return coupling_graph(num, edges)


def format_topology(g: CouplingGraph) -> str:
    lines = [f"physical {g.num_physical}"]
    lines += [f"edge {a} {b}" for a, b in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def load_topology(spec: str) -> CouplingGraph:
    """CLI topology argument: a file path or the shorthand 'chain:<n>'."""
    if spec.startswith("chain:"):
        return linear_chain(int(spec.split(":", 1)[1]))
    with open(spec, encoding="utf-8") as f:
        return parse_topology(f.read())
