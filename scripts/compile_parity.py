"""Digest the router's outputs, to compare two source trees bit for bit.

Each line names one set of circuits and prints the number compiled, one
SHA-256 digest over every routed circuit of the set, and the sums of
`extra_cx` and `circuit_depth` beside it. A circuit's digest covers its
physical gates (kind, qubits, tag), swap and bridge events, block boundaries
and block mappings, chain, initial and final mapping, stats, and
`circuit_depth`. The sets:

- the circuits of the compile-grid workload on a 5x5 grid: all 256 8-entry
  neurons, and per seed 1..10, 64 16-entry neurons with 1 + i % 8 entries -1
  and 32 32-entry neurons with 2 + i % 4, drawn from
  `default_rng(SeedSequence((seed, 0x9B3)))` as the workload draws them, plus
  the three complexity classes;
- all 256 8-entry neurons on chain:4 and chain:6, through `mapper.compile`
  and through `naive_route` on the basis expansion;
- the simple, middle and complex classes on chain:6 through both routers.

Run it on two trees and diff the output:

    PYTHONPATH=src python3 scripts/compile_parity.py > a.txt
    PYTHONPATH=/other/tree/src python3 scripts/compile_parity.py > b.txt
    diff a.txt b.txt

Takes about 3-5 s on one core of a 2-vCPU VM.
"""
import hashlib
import json

import numpy as np

from qnz.bench import COMPLEXITY_CLASSES, complexity_circuit
from qnz.ir import expand_to_basis
from qnz.mapper import circuit_depth, compile, naive_route
from qnz.qnn import neuron_circuit, weights_from_code
from qnz.topology import coupling_graph, linear_chain

GRID = (5, 5)
SEEDS = range(1, 11)


def grid_graph(rows: int, cols: int):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return coupling_graph(rows * cols, edges)


def weights_with_flips(rng: np.random.Generator, n: int, flips: int) -> tuple[int, ...]:
    w = np.ones(n, dtype=int)
    w[rng.choice(n, size=flips, replace=False)] = -1
    return tuple(int(v) for v in w)


def record(m) -> list:
    return [
        [[g.kind.value, list(g.qubits), g.tag] for g in m.physical_gates],
        [list(e) for e in m.swap_events],
        [[b.index, b.control, b.middle, b.target, b.middle_logical] for b in m.bridge_events],
        [list(b) for b in m.block_boundaries],
        [list(bm.physical) for bm in m.block_mappings],
        list(m.chain),
        list(m.initial_mapping.physical),
        list(m.final_mapping.physical),
        [m.stats.swaps, m.stats.bridges, m.stats.extra_cx],
        circuit_depth(m.physical_gates),
    ]


def report(label: str, routed) -> None:
    h = hashlib.sha256()
    extra_cx = depth = 0
    for m in routed:
        h.update(json.dumps(record(m)).encode())
        extra_cx += m.stats.extra_cx
        depth += circuit_depth(m.physical_gates)
    print(f"{label} n {len(routed)} {h.hexdigest()[:16]} extra_cx {extra_cx} depth {depth}")


def main() -> None:
    grid = grid_graph(*GRID)
    neurons8 = [neuron_circuit(weights_from_code(c, 8)) for c in range(256)]
    classes = {name: complexity_circuit(b) for name, b in COMPLEXITY_CLASSES.items()}
    report("grid w8", [compile(c, grid) for c in neurons8])
    for seed in SEEDS:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9B3)))
        w16 = [weights_with_flips(rng, 16, 1 + i % 8) for i in range(64)]
        w32 = [weights_with_flips(rng, 32, 2 + i % 4) for i in range(32)]
        report(f"grid seed {seed} w16", [compile(neuron_circuit(w), grid) for w in w16])
        report(f"grid seed {seed} w32", [compile(neuron_circuit(w), grid) for w in w32])
    report("grid classes", [compile(c, grid) for c in classes.values()])
    for width in (4, 6):
        chain = linear_chain(width)
        report(f"chain:{width} w8 ours", [compile(c, chain) for c in neurons8])
        report(f"chain:{width} w8 greedy", [naive_route(expand_to_basis(c), chain) for c in neurons8])
    chain = linear_chain(6)
    for name, c in classes.items():
        report(f"chain:6 {name} ours", [compile(c, chain)])
        report(f"chain:6 {name} greedy", [naive_route(expand_to_basis(c), chain)])


if __name__ == "__main__":
    main()
