"""Router tests: restoration, insertion counts, legality, semantics, determinism."""
import numpy as np
import pytest

from qnz.ir import Circuit, Gate, GateKind, decompose_ccx, decompose_cnz, gate
from qnz.mapper import (
    _gate,
    check_legal,
    compile,
    circuit_depth,
    initial_interleaved_mapping,
    mapped_to_text,
    naive_route,
)
from qnz.simulator import (
    born_distribution,
    plan_mapped_run,
    run_gates_ideal,
    run_ideal,
    total_variation,
)
from qnz.topology import NoChainFound, coupling_graph, linear_chain

from oracle import random_state

K = GateKind


def cnz_circuit(n: int) -> Circuit:
    """One C^nZ block on the canonical register: n+1 computing, n-1 aux."""
    return Circuit(n + 1, n - 1, (gate(K.CNZ, *range(n + 1)),), block_boundaries=((0, 1),))


def logical_state(num_computing: int, num_aux: int, comp: np.ndarray) -> np.ndarray:
    aux = np.zeros(2**num_aux, dtype=complex) if num_aux else None
    if aux is None:
        return comp
    aux[0] = 1.0
    return np.kron(comp, aux)


class TestInterleavedMapping:
    def test_n3_matches_chain_layout(self):
        m = initial_interleaved_mapping(3, [0, 1, 2, 3, 4, 5])
        # layout q0, aux0, q1, aux1, q2, q3; logicals are q0..q3=0..3, aux0=4, aux1=5
        assert m.physical_of(0) == 0
        assert m.physical_of(4) == 1
        assert m.physical_of(1) == 2
        assert m.physical_of(5) == 3
        assert m.physical_of(2) == 4
        assert m.physical_of(3) == 5

    def test_n2_layout(self):
        m = initial_interleaved_mapping(2, [0, 1, 2, 3])
        # q0, aux0, q1, q2
        assert [m.physical_of(l) for l in (0, 3, 1, 2)] == [0, 1, 2, 3]

    def test_wrong_chain_length(self):
        with pytest.raises(ValueError):
            initial_interleaved_mapping(3, [0, 1, 2, 3, 4])

    def test_arbitrary_chain_vertices(self):
        m = initial_interleaved_mapping(2, [7, 3, 9, 2])
        assert [m.physical_of(l) for l in (0, 3, 1, 2)] == [7, 3, 9, 2]


GRID_4X4 = coupling_graph(
    16, [(r * 4 + c, r * 4 + c + 1) for r in range(4) for c in range(3)]
    + [(r * 4 + c, r * 4 + c + 4) for r in range(3) for c in range(4)],
)


class TestRouteCnzBlock:
    """One C^nZ block routed through `compile`, the router's only entry."""

    def test_cnz3_insertion_counts(self):
        m = compile(cnz_circuit(3), linear_chain(6))
        assert sum(1 for g in m.physical_gates if g.kind is K.SWAP) == 4
        assert len(m.bridge_events) == 2
        assert m.final_mapping == m.initial_mapping

    def test_cnz1_no_insertions(self):
        m = compile(cnz_circuit(1), linear_chain(2))
        assert m.physical_gates == (Gate(K.CZ, (0, 1)),)
        assert m.swap_events == () and m.bridge_events == ()
        assert m.final_mapping == m.initial_mapping

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_forward_ccx_is_the_network_with_one_swap_before_g5(self, n):
        chain = [7, 3, 9, 2, 5, 8, 0, 1][: 2 * n]
        # the device is the path graph of `chain`; find_chain may walk it either way
        m = compile(cnz_circuit(n), coupling_graph(10, list(zip(chain, chain[1:]))))
        assert m.chain in (tuple(chain), tuple(chain[::-1]))
        mapping = m.initial_mapping
        block = decompose_cnz(gate(K.CNZ, *range(n + 1)), aux_base=n + 1)
        at = 0
        for ccx, (index, pa, pb) in zip(block[: n - 1], m.swap_events):
            before = Gate(K.CCX, tuple(mapping.physical_of(q) for q in ccx.qubits))
            mapping = mapping.with_swap(pa, pb)
            after = Gate(K.CCX, tuple(mapping.physical_of(q) for q in ccx.qubits))
            assert index == at + 11
            assert m.physical_gates[at : at + 16] == (
                *decompose_ccx(before)[:11], Gate(K.SWAP, (pa, pb)), *decompose_ccx(after)[11:]
            )
            at += 16

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_restoration_for_all_sizes(self, n):
        m = compile(cnz_circuit(n), linear_chain(2 * n))
        assert m.initial_mapping == initial_interleaved_mapping(n, m.chain)
        assert m.final_mapping == m.initial_mapping

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_semantics_match_logical_block(self, n):
        rng = np.random.default_rng(40 + n)
        circ = cnz_circuit(n)
        plan = plan_mapped_run(compile(circ, linear_chain(2 * n)))
        for _ in range(20 if n < 4 else 6):
            comp = random_state(n + 1, rng)
            init = logical_state(n + 1, n - 1, comp)
            want = run_ideal(circ, init)
            got = run_gates_ideal(plan.gates, plan.n, plan.embed(comp))
            d_log = born_distribution(want, list(range(n + 1)))
            d_phys = born_distribution(got, list(plan.measured))
            assert total_variation(d_log, d_phys) < 1e-9
            # auxiliaries end in |0>: all probability on their 0 outcome
            d_aux = born_distribution(got, list(plan.aux_axes))
            assert d_aux.get("0" * (n - 1), 0.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "n, device",
        [(n, "chain") for n in range(2, 9)] + [(n, "grid4x4") for n in range(2, 5)],
    )
    def test_one_block_is_legal_and_restores_its_mapping(self, n, device):
        g = linear_chain(2 * n) if device == "chain" else GRID_4X4
        m = compile(cnz_circuit(n), g)
        check_legal(m, g)
        assert m.final_mapping == m.initial_mapping
        assert m.block_mappings == (m.initial_mapping,)


class TestCompile:
    def test_empty_circuit(self):
        m = compile(Circuit(3, 1, ()), linear_chain(4))
        assert m.physical_gates == ()
        assert m.initial_mapping == m.final_mapping == initial_interleaved_mapping(2, [0, 1, 2, 3])

    def test_zero_width(self):
        m = compile(Circuit(0, 0, ()), linear_chain(1))
        assert m.physical_gates == ()

    def test_cnz3_stats(self):
        m = compile(cnz_circuit(3), linear_chain(6))
        assert m.stats.swaps == 4
        assert m.stats.bridges == 2
        assert m.stats.extra_cx == 18
        check_legal(m, linear_chain(6))

    def test_five_block_stats_scale_linearly(self):
        gates = tuple(gate(K.CNZ, 0, 1, 2, 3) for _ in range(5))
        bounds = tuple((i, i + 1) for i in range(5))
        c = Circuit(4, 2, gates, block_boundaries=bounds)
        m = compile(c, linear_chain(6))
        assert m.stats.swaps == 20
        assert m.stats.bridges == 10

    def test_block_boundary_mappings_all_canonical(self):
        gates = (gate(K.X, 0), gate(K.CNZ, 0, 1, 2, 3), gate(K.X, 0), gate(K.CNZ, 0, 1, 2, 3))
        c = Circuit(4, 2, gates, block_boundaries=((0, 2), (2, 4)))
        m = compile(c, linear_chain(6))
        canonical = initial_interleaved_mapping(3, range(6))
        assert len(m.block_mappings) == 2
        assert all(bm == canonical for bm in m.block_mappings)
        assert m.final_mapping == canonical

    def test_block_boundaries_partition_output_gates(self):
        gates = (gate(K.X, 0), gate(K.CNZ, 0, 1, 2, 3), gate(K.X, 0), gate(K.CNZ, 0, 1, 2, 3))
        c = Circuit(4, 2, gates, block_boundaries=((0, 2), (2, 4)))
        m = compile(c, linear_chain(6))
        (lo1, hi1), (lo2, hi2) = m.block_boundaries
        assert lo1 == 0
        assert hi1 == lo2
        assert hi2 == len(m.physical_gates)
        assert hi1 > lo1 and hi2 > lo2

    def test_mapping_trace_via_swap_events(self):
        m = compile(cnz_circuit(3), linear_chain(6))
        trace = [m.initial_mapping]
        for _, pa, pb in m.swap_events:
            trace.append(trace[-1].with_swap(pa, pb))
        assert trace[-1] == m.initial_mapping
        # right after the first forward swap, q1 and aux0 have exchanged slots
        assert trace[1] == m.initial_mapping.with_swap(1, 2)

    def test_single_qubit_gates_placed_on_mapped_slots(self):
        c = Circuit(4, 2, (gate(K.H, 0), gate(K.X, 3)))
        m = compile(c, linear_chain(6))
        assert m.physical_gates == (Gate(K.H, (0,)), Gate(K.X, (5,)))

    def test_rejects_partial_register_cnz(self):
        c = Circuit(4, 2, (gate(K.CNZ, 0, 1, 2),))
        with pytest.raises(ValueError):
            compile(c, linear_chain(6))

    def test_rejects_loose_two_qubit_gates(self):
        c = Circuit(4, 2, (gate(K.CX, 0, 1),))
        with pytest.raises(ValueError):
            compile(c, linear_chain(6))

    def test_no_chain_propagates(self):
        star = coupling_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
        with pytest.raises(NoChainFound):
            compile(cnz_circuit(3), star)

    def test_deterministic(self):
        c = cnz_circuit(3)
        a = compile(c, linear_chain(6))
        b = compile(c, linear_chain(6))
        assert a == b
        assert mapped_to_text(a) == mapped_to_text(b)

    def test_works_on_nonpath_device(self):
        # 3x3 grid: the chain is found by DFS, vertices are not 0..5 in order
        edges = []
        for r in range(3):
            for c in range(3):
                v = 3 * r + c
                if c < 2:
                    edges.append((v, v + 1))
                if r < 2:
                    edges.append((v, v + 3))
        grid = coupling_graph(9, edges)
        m = compile(cnz_circuit(3), grid)
        check_legal(m, grid)
        assert m.final_mapping == m.initial_mapping
        rng = np.random.default_rng(3)
        comp = random_state(4, rng)
        want = run_ideal(cnz_circuit(3), logical_state(4, 2, comp))
        plan = plan_mapped_run(m)
        got = run_gates_ideal(plan.gates, plan.n, plan.embed(comp))
        d_log = born_distribution(want, [0, 1, 2, 3])
        d_phys = born_distribution(got, list(plan.measured))
        assert total_variation(d_log, d_phys) < 1e-9


class TestNaiveRoute:
    def test_distance_two_cx_needs_one_swap(self):
        c = Circuit(3, 0, (gate(K.CX, 0, 2),))
        m = naive_route(c, linear_chain(3))
        assert m.stats.swaps == 1
        kinds = [g.kind for g in m.physical_gates]
        assert kinds == [K.SWAP, K.CX]
        check_legal(m, linear_chain(3))

    def test_adjacent_circuit_untouched(self):
        c = Circuit(3, 0, (gate(K.CX, 0, 1), gate(K.CZ, 1, 2)))
        m = naive_route(c, linear_chain(3))
        assert m.stats.swaps == 0
        assert m.final_mapping == m.initial_mapping

    def test_rejects_unexpanded(self):
        with pytest.raises(ValueError):
            naive_route(cnz_circuit(3), linear_chain(6))

    def test_semantics_up_to_final_permutation(self):
        from qnz.ir import expand_to_basis

        rng = np.random.default_rng(9)
        circ = expand_to_basis(cnz_circuit(3))
        g = linear_chain(6)
        m = naive_route(circ, g)
        check_legal(m, g)
        plan = plan_mapped_run(m)
        for _ in range(5):
            comp = random_state(4, rng)
            init = logical_state(4, 2, comp)
            want = born_distribution(run_ideal(circ, init), [0, 1, 2, 3])
            got = run_gates_ideal(plan.gates, plan.n, plan.embed(comp))
            have = born_distribution(got, list(plan.measured))
            assert total_variation(want, have) < 1e-9

    def test_costs_more_than_block_router(self):
        from qnz.ir import expand_to_basis

        circ = cnz_circuit(3)
        ours = compile(circ, linear_chain(6))
        greedy = naive_route(expand_to_basis(circ), linear_chain(6))
        assert ours.stats.swaps < greedy.stats.swaps
        assert greedy.final_mapping != greedy.initial_mapping


def test_circuit_depth():
    gates = [Gate(K.H, (0,)), Gate(K.H, (1,)), Gate(K.CX, (0, 1)), Gate(K.X, (1,))]
    assert circuit_depth(gates) == 3
    assert circuit_depth([]) == 0


def test_routed_depth_of_every_8_entry_neuron():
    from qnz.qnn import neuron_circuit, weights_from_code

    g = linear_chain(4)
    routed = [compile(neuron_circuit(weights_from_code(c, 8)), g) for c in range(256)]
    assert sum(circuit_depth(m.physical_gates) for m in routed) == 22605


class TestGateInterning:
    """The router builds each distinct gate once and shares it."""

    def test_a_bad_gate_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="duplicate qubit in cx"):
                _gate(K.CX, (1, 1), None)

    def test_routed_gates_are_shared(self):
        a = compile(cnz_circuit(3), linear_chain(6)).physical_gates
        b = compile(cnz_circuit(3), linear_chain(6)).physical_gates
        assert a == b
        assert all(x is y for x, y in zip(a, b))

    def test_string_kinds_route_to_member_kinds(self):
        circ = Circuit(4, 2, (Gate("h", (0,)), gate(K.CNZ, 0, 1, 2, 3)), block_boundaries=((1, 2),))
        m = compile(circ, linear_chain(6))
        assert m.physical_gates[0] == Gate(K.H, (m.initial_mapping.physical_of(0),))
        assert all(type(g.kind) is GateKind for g in m.physical_gates)


def test_mapped_text_round_trips_as_circuit():
    from qnz.ir import parse_circuit

    m = compile(cnz_circuit(2), linear_chain(4))
    text = mapped_to_text(m)
    assert "# map 0 0" in text
    parsed = parse_circuit(text)
    assert len(parsed.gates) == len(m.physical_gates)
