import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsegraph import (
    EdgeListFormatError,
    InvalidEdge,
    VertexOutOfRange,
    build_graph,
    read_edge_list,
    sample_gnp,
    write_edge_list,
)
from morsegraph.graph import is_clique_mask, vertex_mask
from helpers import complete_graph, cycle_graph, path_graph


def test_build_path_graph():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert g.adjacent(0, 1) and g.adjacent(1, 2) and not g.adjacent(0, 2)


def test_build_rejects_self_loop():
    with pytest.raises(InvalidEdge):
        build_graph(2, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexOutOfRange):
        build_graph(3, [(0, 3)])
    with pytest.raises(VertexOutOfRange):
        build_graph(3, [(-1, 2)])


def test_build_five_cycle():
    g = cycle_graph(5)
    assert g.m == 5
    assert sorted(g.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_is_clique_examples():
    g = path_graph(3)
    assert is_clique_mask(g, 0)
    assert is_clique_mask(g, 0b10)
    assert not is_clique_mask(g, 0b101)
    k4 = complete_graph(4)
    assert is_clique_mask(k4, 0b1011)
    assert is_clique_mask(k4, 0b1111)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(2, 40))
def test_sampled_graphs_are_symmetric_and_consistent(seed, n):
    g = sample_gnp(n, 0.4, seed)
    assert all((g.rows[u] >> v) & 1 == (g.rows[v] >> u) & 1 for u in range(n) for v in range(n))
    assert all(not (g.rows[v] >> v) & 1 for v in range(n))
    assert g.m == sum(row.bit_count() for row in g.rows) // 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.integers(0, 6))
def test_is_clique_matches_edge_count(seed, size):
    g = sample_gnp(12, 0.6, seed)
    s = list(range(size))
    induced_edges = sum(1 for i in s for j in s if i < j and g.adjacent(i, j))
    assert is_clique_mask(g, vertex_mask(g, s)) == (induced_edges == size * (size - 1) // 2)


def test_edge_list_round_trip(tmp_path):
    g = sample_gnp(30, 0.3, 77)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == f"30 {g.m}"
    body = [tuple(map(int, line.split())) for line in lines[1:]]
    assert body == sorted(body)
    assert all(u < v for u, v in body)
    assert read_edge_list(path) == g


def test_edge_list_reader_accepts_unsorted_and_reversed():
    text = "3 2\n2 1\n1 0\n"
    g = read_edge_list(io.StringIO(text))
    assert g == build_graph(3, [(0, 1), (1, 2)])


def test_edge_list_reader_rejects_malformed():
    with pytest.raises(EdgeListFormatError):
        read_edge_list(io.StringIO(""))
    with pytest.raises(EdgeListFormatError):
        read_edge_list(io.StringIO("3\n"))
    with pytest.raises(EdgeListFormatError):
        read_edge_list(io.StringIO("3 1\n0 1 2\n"))
    with pytest.raises(EdgeListFormatError):
        read_edge_list(io.StringIO("3 2\n0 1\n"))
    with pytest.raises(EdgeListFormatError):
        read_edge_list(io.StringIO("3 1\na b\n"))


def test_edge_list_reader_rejects_bad_vertices():
    with pytest.raises(VertexOutOfRange):
        read_edge_list(io.StringIO("2 1\n0 5\n"))
    with pytest.raises(InvalidEdge):
        read_edge_list(io.StringIO("2 1\n1 1\n"))


def test_module_doctests():
    import doctest

    import morsegraph.graph as graph_module

    result = doctest.testmod(graph_module)
    assert result.failed == 0 and result.attempted > 0
