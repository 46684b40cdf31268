import json
import tracemalloc
from pathlib import Path

import pytest

from morsegraph import (
    CapacityExceeded,
    build_graph,
    build_square_graph,
    components,
    count_morse_cycles,
    density_from_coefficient,
    dump_square_graph,
    has_isolated_square,
    is_cfs,
    is_square_graph_connected,
    isolated_count,
    read_edge_list,
    sample_gnp,
    trial_seed,
)
from morsegraph.squares import square_graph_edges
from helpers import (
    brute_induced_squares,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    neighbor_set_squares,
    two_disjoint_squares,
)


def bucket(sq, pair):
    """Square indices having ``pair`` as a diagonal, read off the arrays."""
    [d] = [i for i, diagonal in enumerate(sq.diagonal_index.tolist()) if diagonal == list(pair)]
    return [i for i, ids in enumerate(sq.square_diagonals.tolist()) if d in ids]


def test_c4_square_graph():
    sq = build_square_graph(cycle_graph(4))
    assert len(sq) == 1
    assert sq.squares.tolist() == [[0, 1, 2, 3]]
    assert sq.diagonal_index.tolist() == [[0, 2], [1, 3]]
    assert sq.square_diagonals.tolist() == [[0, 1]]
    assert sq.bucket_sizes.tolist() == [1, 1]
    assert isolated_count(sq) == 1
    assert len(components(sq)) == 1
    assert is_cfs(cycle_graph(4), sq)
    assert is_square_graph_connected(sq)


def test_k23_square_graph():
    g = complete_bipartite(2, 3)
    sq = build_square_graph(g)
    assert len(sq) == 3
    assert bucket(sq, (0, 1)) == [0, 1, 2]
    assert isolated_count(sq) == 0
    comps = components(sq)
    assert len(comps) == 1
    indices, support = comps[0]
    assert indices == (0, 1, 2)
    assert support == frozenset(range(5))
    assert is_cfs(g, sq)
    assert is_square_graph_connected(sq)
    # square graph of K_{2,3} is a triangle on the shared diagonal
    assert square_graph_edges(sq).tolist() == [[0, 1], [0, 2], [1, 2]]


def test_wide_diagonal_bucket():
    # K_{2,50}: every pair from the large part spans a square with the
    # same diagonal, one bucket of size C(50, 2)
    g = complete_bipartite(2, 50)
    sq = build_square_graph(g)
    assert len(sq) == 50 * 49 // 2
    assert len(bucket(sq, (0, 1))) == 1225
    assert isolated_count(sq) == 0
    comps = components(sq)
    assert len(comps) == 1 and comps[0][1] == frozenset(range(52))
    assert is_cfs(g, sq)
    assert is_square_graph_connected(sq)


def test_square_free_host():
    sq = build_square_graph(cycle_graph(5))
    assert len(sq) == 0
    assert components(sq) == ()
    assert isolated_count(sq) == 0
    assert not is_cfs(cycle_graph(5), sq)
    assert not is_square_graph_connected(sq)


def test_two_disjoint_squares():
    g = two_disjoint_squares()
    sq = build_square_graph(g)
    assert len(sq) == 2
    assert isolated_count(sq) == 2
    comps = components(sq)
    assert len(comps) == 2
    assert [len(support) for _, support in comps] == [4, 4]
    assert not is_cfs(g, sq)
    assert not is_square_graph_connected(sq)


def test_every_square_in_exactly_one_component():
    g = sample_gnp(30, 0.25, 12)
    sq = build_square_graph(g)
    seen = [i for indices, _ in components(sq) for i in indices]
    assert sorted(seen) == list(range(len(sq)))
    for indices, support in components(sq):
        assert support == frozenset(v for i in indices for v in sq.squares[i].tolist())


def test_capacity_cap():
    # the cap is exact: m squares fit in cap = m, not in cap = m - 1, also
    # when the squares come from several row blocks
    for g in (complete_bipartite(2, 3), sample_gnp(600, 0.05, 6)):
        m = len(build_square_graph(g))
        assert m > 0
        assert len(build_square_graph(g, cap=m)) == m
        with pytest.raises(CapacityExceeded, match=rf"^square count exceeded cap \({m - 1}\)$"):
            build_square_graph(g, cap=m - 1)


def test_capacity_cap_bounds_memory():
    # the cap is checked after every piece of candidate diagonals, so a
    # dense host stops with one piece's squares built, not a row block's
    g = sample_gnp(400, density_from_coefficient(2.0, 400).p, 3)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded):
            build_square_graph(g, cap=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2**20


@pytest.mark.parametrize("seed", range(10))
def test_isolated_count_matches_morse_square_count(seed):
    g = sample_gnp(24, 0.25, trial_seed(5150, seed))
    sq = build_square_graph(g)
    assert isolated_count(sq) == count_morse_cycles(g, 4)
    assert (isolated_count(sq) > 0) == (has_isolated_square(g) is not None)


def test_has_isolated_square_returns_valid_witness():
    g = two_disjoint_squares()
    square = has_isolated_square(g)
    assert square == (0, 1, 2, 3)
    assert has_isolated_square(complete_bipartite(2, 3)) is None


@pytest.mark.parametrize("seed", range(4))
def test_isolated_scan_matches_full_build_with_prefilter(seed):
    # a random graph with many candidate diagonals; the early-exit scan and
    # the full square-graph build must agree on existence
    g = sample_gnp(150, 0.09, trial_seed(2150, seed))
    sq = build_square_graph(g)
    assert (isolated_count(sq) > 0) == (has_isolated_square(g) is not None)


@pytest.mark.parametrize("seed", range(4))
def test_shared_diagonal_equals_nonadjacent_intersection(seed):
    # adjacency via shared diagonal must match the literal rule: the two
    # squares' vertex intersection contains a host-non-adjacent pair
    g = sample_gnp(12, 0.4, trial_seed(31, seed))
    sq = build_square_graph(g)
    via_buckets = set(map(tuple, square_graph_edges(sq).tolist()))
    via_intersection = set()
    for i in range(len(sq)):
        for j in range(i + 1, len(sq)):
            shared = set(sq.squares[i].tolist()) & set(sq.squares[j].tolist())
            if any(
                not g.adjacent(a, b)
                for a in shared
                for b in shared
                if a < b
            ):
                via_intersection.add((i, j))
    assert via_buckets == via_intersection


def test_component_structure_on_chained_squares():
    # squares 0-1-2-3 and 2-3-4-5 share diagonal pair only through vertices
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 3)])
    sq = build_square_graph(g)
    assert len(sq) == 2
    comps = components(sq)
    # the two squares meet in the edge {2, 3}, an adjacent pair: no square-graph edge
    assert len(comps) == 2


def test_dump_round_trip(tmp_path):
    g = complete_bipartite(2, 3)
    sq = build_square_graph(g)
    dest = tmp_path / "sq.edges"
    companion = dump_square_graph(sq, dest)
    dumped = read_edge_list(dest)
    assert dumped.n == 3 and dumped.m == 3
    mapping = json.loads(Path(companion).read_text())
    assert mapping == {"0": [0, 2, 1, 3], "1": [0, 2, 1, 4], "2": [0, 3, 1, 4]}


def test_cfs_host_mismatch_rejected():
    from morsegraph import InvalidParameter

    sq = build_square_graph(cycle_graph(4))
    with pytest.raises(InvalidParameter):
        is_cfs(cycle_graph(5), sq)


def test_components_are_memoized():
    sq = build_square_graph(sample_gnp(40, 0.2, 2024))
    assert components(sq) is components(sq)


def _reference_square_graph(g):
    """Squares in (u, w, x, y) order, bucket sizes, components and CFS, from
    the squares listed by Python neighbor sets (checked against the 4-subset
    brute force up to n = 40) and a union-find over shared diagonals."""
    found = neighbor_set_squares(g)
    if g.n <= 40:
        assert found == brute_induced_squares(g)
    squares = sorted(found, key=lambda s: (s[0], s[2], s[1], s[3]))
    buckets = {}
    for i, (a, b, c, d) in enumerate(squares):
        for pair in ((min(a, c), max(a, c)), (min(b, d), max(b, d))):
            buckets.setdefault(pair, []).append(i)
    parent = list(range(len(squares)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for members in buckets.values():
        for other in members[1:]:
            ri, rj = find(members[0]), find(other)
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(squares)):
        groups.setdefault(find(i), []).append(i)
    comps = [(tuple(groups[r]), frozenset(v for i in groups[r] for v in squares[i]))
             for r in sorted(groups)]
    isolated = sum(
        len(buckets[(min(a, c), max(a, c))]) == 1 and len(buckets[(min(b, d), max(b, d))]) == 1
        for a, b, c, d in squares
    )
    cfs = g.n > 0 and any(support == frozenset(range(g.n)) for _, support in comps)
    sizes = {pair: len(members) for pair, members in buckets.items()}
    return squares, sizes, comps, isolated, cfs


ARRAY_LAYER_GRAPHS = (
    [(f"gnp{n}", sample_gnp(n, 0.5, trial_seed(606, n))) for n in range(7)]
    + [("c4", cycle_graph(4)), ("k4", complete_graph(4)), ("k23", complete_bipartite(2, 3)),
       ("k2_50", complete_bipartite(2, 50))]
    + [(f"gnp{n}-{p}", sample_gnp(n, p, trial_seed(607, n))) for n, p in
       [(14, 0.3), (14, 0.5), (40, 0.2), (40, 0.35), (150, 0.07), (150, 0.12)]]
)


@pytest.mark.parametrize("name,g", ARRAY_LAYER_GRAPHS, ids=[name for name, _ in ARRAY_LAYER_GRAPHS])
def test_array_layer_matches_reference(name, g):
    squares, sizes, comps, isolated, cfs = _reference_square_graph(g)
    sq = build_square_graph(g)
    assert [tuple(s) for s in sq.squares.tolist()] == squares
    got_sizes = dict(zip(map(tuple, sq.diagonal_index.tolist()), sq.bucket_sizes.tolist()))
    assert got_sizes == sizes
    assert list(got_sizes) == sorted(sizes)
    assert components(sq) == tuple(comps)
    assert isolated_count(sq) == isolated
    assert is_cfs(g, sq) == cfs
    assert is_square_graph_connected(sq) == (len(comps) == 1)
