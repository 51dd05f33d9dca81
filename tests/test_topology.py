import time

import pytest

from qnz.topology import (
    CouplingGraph,
    Mapping,
    NoChainFound,
    coupling_graph,
    find_chain,
    format_topology,
    linear_chain,
    load_topology,
    parse_topology,
)


def test_linear_chain_edges():
    g = linear_chain(3)
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert linear_chain(1).edges == frozenset()
    assert len(linear_chain(6).edges) == 5


def test_are_coupled():
    g = linear_chain(3)
    assert g.are_coupled(0, 1)
    assert g.are_coupled(1, 0)
    assert not g.are_coupled(0, 2)
    empty = coupling_graph(3, [])
    assert not empty.are_coupled(0, 1)


def test_are_coupled_range_check():
    g = linear_chain(3)
    with pytest.raises(ValueError):
        g.are_coupled(0, 3)


def test_graph_validation():
    with pytest.raises(ValueError):
        coupling_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        coupling_graph(2, [(0, 5)])
    with pytest.raises(ValueError):
        CouplingGraph(2, frozenset({(1, 0)}))  # not stored (low, high)


class TestFindChain:
    def test_whole_path(self):
        assert find_chain(linear_chain(6), 6) == [0, 1, 2, 3, 4, 5]

    def test_four_cycle(self):
        g = coupling_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert find_chain(g, 4) == [0, 1, 2, 3]

    def test_star_has_no_long_path(self):
        g = coupling_graph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(NoChainFound):
            find_chain(g, 4)
        assert find_chain(g, 3) == [1, 0, 2]

    def test_deterministic_and_valid(self):
        # heavy-hex-ish fragment with several equally long paths
        g = coupling_graph(
            9, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (7, 8), (8, 4)]
        )
        for length in (2, 4, 6):
            a = find_chain(g, length)
            b = find_chain(g, length)
            assert a == b
            assert len(set(a)) == length
            for u, v in zip(a, a[1:]):
                assert g.are_coupled(u, v)

    def test_too_long(self):
        with pytest.raises(NoChainFound):
            find_chain(linear_chain(3), 4)

    def test_long_chain_needs_no_recursion(self):
        assert find_chain(linear_chain(1200), 1100) == list(range(1100))

    def test_disjoint_grids_raise_at_once(self):
        # the exhaustive DFS took 7.5 s to give up here
        g = coupling_graph(50, _grid_edges(5, 5) + _grid_edges(5, 5, offset=25))
        t0 = time.perf_counter()
        with pytest.raises(NoChainFound):
            find_chain(g, 26)
        assert time.perf_counter() - t0 < 1.0
        assert g.component_sizes == (25,) * 50

    def test_same_chains_as_recursive_search(self):
        graphs = [
            linear_chain(6),
            coupling_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            coupling_graph(4, [(0, 1), (0, 2), (0, 3)]),
            coupling_graph(
                9, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (7, 8), (8, 4)]
            ),
            coupling_graph(16, _grid_edges(4, 4)),
            coupling_graph(18, _grid_edges(3, 3) + _grid_edges(3, 3, offset=9)),
            coupling_graph(7, [(1, 2), (2, 3), (4, 5)]),
        ]
        for g in graphs:
            for length in range(1, g.num_physical + 1):
                try:
                    want = _recursive_find_chain(g, length)
                except NoChainFound:
                    with pytest.raises(NoChainFound):
                        find_chain(g, length)
                    continue
                assert find_chain(g, length) == want


def _grid_edges(rows: int, cols: int, offset: int = 0) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = offset + r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _recursive_find_chain(g, length: int) -> list[int]:
    """The former recursive DFS, lowest index first, kept as a reference."""

    def dfs(path, used):
        if len(path) == length:
            return path
        for nxt in g.neighbors(path[-1]):
            if nxt not in used:
                found = dfs(path + [nxt], used | {nxt})
                if found is not None:
                    return found
        return None

    for start in range(g.num_physical):
        found = dfs([start], {start})
        if found is not None:
            return found
    raise NoChainFound(length)


class TestMapping:
    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            Mapping((0, 0, 1))

    def test_with_swap(self):
        m = Mapping((0, 1, 2))
        s = m.with_swap(0, 2)
        assert s.physical == (2, 1, 0)
        assert m.physical == (0, 1, 2)  # original untouched

    def test_swap_into_unoccupied_slot(self):
        m = Mapping((0, 1))
        s = m.with_swap(1, 5)
        assert s.physical == (0, 5)


def test_topology_text_round_trip(tmp_path):
    g = coupling_graph(4, [(0, 1), (1, 2), (2, 3)])
    text = format_topology(g)
    assert parse_topology(text) == g
    p = tmp_path / "dev.topo"
    p.write_text(text)
    assert load_topology(str(p)) == g
    assert load_topology("chain:4") == linear_chain(4)


def test_topology_parse_errors():
    with pytest.raises(ValueError):
        parse_topology("edge 0 1\n")
    with pytest.raises(ValueError):
        parse_topology("physical 3\nvertex 0\n")


@pytest.mark.parametrize("text, message", [
    ("physical 4\nedge 0 1\n# a comment\nedge 0 5\n", "line 4: edge (0, 5) out of range"),
    ("physical 4\nedge 2 2\n", "line 2: self-loop on physical qubit 2"),
    ("physical 4\nedge 0 x\n", "line 2: invalid literal for int() with base 10: 'x'"),
    ("physical four\n", "line 1: invalid literal for int() with base 10: 'four'"),
    ("physical 3\nvertex 0\n", "line 2: expected 'edge a b'"),
])
def test_topology_errors_name_their_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_topology(text)
    assert str(err.value) == message
