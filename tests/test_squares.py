import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from morsegraph import (
    CapacityExceeded,
    CycleWitness,
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
from morsegraph.cycles import (
    _BLOCK_CELLS, _candidate_blocks, _diagonal_bucket, _lowest_gaps, _packed_rows
)
import morsegraph.squares as squares_module
from morsegraph.squares import _argsort, isolated_squares, square_graph_edges
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


def label_partition(sq):
    """``(squares, support)`` per component, by least square, read from
    ``sq.labels`` (squares grouped by label, each group's least square its
    label) and ``sq.supports``; ``components(sq)`` must list those least
    squares in increasing order."""
    groups = {}
    for i, label in enumerate(sq.labels.tolist()):
        groups.setdefault(label, []).append(i)
    assert all(members[0] == label for label, members in groups.items())
    supports = {}
    for label, v in zip(*(a.tolist() for a in sq.supports)):
        supports.setdefault(label, set()).add(v)
    assert sorted(supports) == sorted(groups)
    assert components(sq).tolist() == sorted(groups)
    return [(tuple(groups[r]), frozenset(supports[r])) for r in sorted(groups)]


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
    comps = label_partition(sq)
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
    comps = label_partition(sq)
    assert len(comps) == 1 and comps[0][1] == frozenset(range(52))
    assert is_cfs(g, sq)
    assert is_square_graph_connected(sq)


def test_square_free_host():
    sq = build_square_graph(cycle_graph(5))
    assert len(sq) == 0
    assert label_partition(sq) == []
    assert isolated_count(sq) == 0
    assert not is_cfs(cycle_graph(5), sq)
    assert not is_square_graph_connected(sq)


def test_two_disjoint_squares():
    g = two_disjoint_squares()
    sq = build_square_graph(g)
    assert len(sq) == 2
    assert isolated_count(sq) == 2
    comps = label_partition(sq)
    assert len(comps) == 2
    assert [len(support) for _, support in comps] == [4, 4]
    assert not is_cfs(g, sq)
    assert not is_square_graph_connected(sq)


def test_every_square_in_exactly_one_component():
    g = sample_gnp(30, 0.25, 12)
    sq = build_square_graph(g)
    comps = label_partition(sq)
    seen = [i for indices, _ in comps for i in indices]
    assert sorted(seen) == list(range(len(sq)))
    for indices, support in comps:
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


def test_isolated_scan_memory():
    # the scan shares the packed rows with the candidate filter, which adds
    # its padded copy and one span's lists and planes, and holds a flag per
    # word and candidate of one piece, so it stays under the bound of the
    # candidate filter alone
    n = 2048
    g = sample_gnp(n, density_from_coefficient(0.9, n).p, trial_seed(11, 0))
    tracemalloc.start()
    try:
        has_isolated_square(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * n // 4 + 16 * _BLOCK_CELLS


def _reference_isolated_squares(g):
    """Isolated squares in the scan's (u, w, x, y) order, from the squares
    listed by Python neighbor sets and the number of squares on each diagonal."""
    squares = neighbor_set_squares(g)
    sizes = {}
    for a, b, c, d in squares:
        for pair in ((a, c), (b, d)):
            sizes[pair] = sizes.get(pair, 0) + 1
    isolated = [s for s in squares if sizes[s[0], s[2]] == sizes[s[1], s[3]] == 1]
    return sorted(isolated, key=lambda s: (s[0], s[2], s[1], s[3]))


# (number of common neighbors a < b < c < d of the planted diagonal, edges
# among them by position) and the diagonal's bucket, read with the lowest
# three in mind
PLANTED_BUCKETS = [
    (2, []),  # {ab}: two common neighbors, a C4
    (2, [(0, 1)]),  # empty
    (3, [(0, 2), (1, 2)]),  # {ab}
    (3, [(0, 1), (0, 2)]),  # {bc}
    (3, [(0, 1)]),  # {ac, bc}
    (4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),  # {cd}, d above the lowest three
    (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),  # {ad}
    (4, [(0, 1), (0, 2), (1, 2)]),  # {ad, bd, cd}, none among the lowest three
]
# common neighbors from vertex 0 on, and around the 64-bit word boundaries
PLANTED_LAYOUTS = [
    (0, 1, 2, 3), (61, 62, 63, 64), (62, 63, 64, 65), (63, 64, 65, 66),
    (0, 63, 64, 127), (0, 64, 127, 128), (63, 64, 127, 128), (125, 126, 127, 128),
]


def _planted_hosts(n):
    """Hosts on ``n`` vertices with one diagonal ``(u, w)`` planted over each
    layout and bucket that fit, ``u`` and ``w`` below or above the rest."""
    for layout in PLANTED_LAYOUTS:
        for size, chords in PLANTED_BUCKETS:
            common = layout[:size]
            if common[-1] >= n:
                continue
            rest = [v for v in range(n) if v not in common]
            for u, w in (rest[:2], rest[-2:]):
                edges = [(v, x) for v in (u, w) for x in common]
                yield build_graph(n, edges + [(common[i], common[j]) for i, j in chords])


@pytest.mark.parametrize(
    "kind, value", [("planted", n) for n in (63, 64, 65, 127, 128, 129)]
    + [("gnp", c) for c in (0.6, 0.8, 1.0, 1.5, 3.0)]
)
def test_isolated_squares_match_reference(kind, value):
    if kind == "planted":
        hosts = list(_planted_hosts(value))
    else:
        p = density_from_coefficient(value, 150).p
        hosts = [sample_gnp(150, p, trial_seed(1500, int(10 * value)))]
    found = 0
    for g in hosts:
        expected = _reference_isolated_squares(g)
        assert list(isolated_squares(g)) == expected
        assert has_isolated_square(g) == next(iter(expected), None)
        found += len(expected)
    assert found or kind == "gnp" and value > 1.0


@pytest.mark.parametrize("n, p", [(63, 0.2), (64, 0.1), (65, 0.3), (129, 0.08), (200, 0.15)])
def test_lowest_gaps_match_python_sets(n, p):
    # the prefilter's two lowest common neighbors, whether a third exists, and
    # the non-adjacent pairs among the lowest three, for every candidate
    g = sample_gnp(n, p, trial_seed(6500, n))
    nbrs = [{v for v in range(n) if g.adjacent(u, v)} for u in range(n)]
    packed = _packed_rows(g)
    checked = 0
    for us, ws in _candidate_blocks(packed):
        got = zip(*(a.tolist() for a in _lowest_gaps(packed, us, ws)))
        for u, w, (gaps, x1, x2, third) in zip(us.tolist(), ws.tolist(), got):
            common = sorted(nbrs[u] & nbrs[w])
            low = common[:3]
            pairs = sum(b not in nbrs[a] for i, a in enumerate(low) for b in low[i + 1 :])
            assert (gaps, x1, x2, third) == (pairs, common[0], common[1], len(common) > 2)
            checked += 1
    assert checked


def _recorded_reads(monkeypatch):
    """The ``(u, w)`` of every ``_diagonal_bucket`` call the scan makes, in order."""
    reads = []
    real_bucket = squares_module._diagonal_bucket
    monkeypatch.setattr(squares_module, "_diagonal_bucket",
                        lambda *args: reads.append(args[1:3]) or real_bucket(*args))
    return reads


# (n, u, w, x1, x2, x1 ~ x2, isolated squares): a diagonal (u, w) whose only
# common neighbors are x1 < x2, across the 64-bit word boundary at 63 | 64
TWO_NEIGHBOR_DIAGONALS = [
    (130, 62, 129, 63, 64, False, [(62, 63, 129, 64)]),  # kept; (63, 64) has x1 = 62 below it
    (130, 63, 64, 0, 127, False, [(0, 63, 127, 64)]),  # x1 = 0 < u: read from (0, 127)
    (130, 63, 129, 0, 64, True, []),  # x1 ~ x2: an empty bucket, no square at all
]


@pytest.mark.parametrize("n, u, w, x1, x2, chord, expected", TWO_NEIGHBOR_DIAGONALS)
def test_two_neighbor_diagonals(monkeypatch, n, u, w, x1, x2, chord, expected):
    # a candidate with exactly two common neighbors takes its bucket from the
    # prefilter; Python reads only the reciprocal bucket of each kept one
    g = build_graph(n, [(u, x1), (u, x2), (w, x1), (w, x2)] + [(x1, x2)] * chord)
    reads = _recorded_reads(monkeypatch)
    assert list(isolated_squares(g)) == expected == _reference_isolated_squares(g)
    assert reads == [s[1::2] for s in expected]
    assert len(build_square_graph(g)) == len(expected)


# common neighbors a < b < c < d < e of the diagonal (0, 129) across the
# 64-bit word boundary; a, b and c are pairwise adjacent, so the diagonal
# passes the test on its lowest three, and ``misses`` is the one of a and b
# adjacent to neither d nor e, which puts two pairs through it in the bucket
SURVIVOR_COMMON = (62, 63, 64, 65, 66)


def _survivor_host(chords, common=SURVIVOR_COMMON):
    """G(130) with the diagonal (0, 129) over ``common`` and the ``chords``
    among them, by position."""
    edges = [(v, x) for v in (0, 129) for x in common]
    return build_graph(130, edges + [(common[i], common[j]) for i, j in chords])


@pytest.mark.parametrize("misses", [0, 1])
def test_survivor_with_two_pairs_through_its_lowest_neighbors_is_not_read(monkeypatch, misses):
    other = 1 - misses
    g = _survivor_host([(0, 1), (0, 2), (1, 2), (3, 4)] + [(i, j) for i in (other, 2) for j in (3, 4)])
    reads = _recorded_reads(monkeypatch)
    assert list(isolated_squares(g)) == _reference_isolated_squares(g)
    a, d, e = (SURVIVOR_COMMON[i] for i in (misses, 3, 4))
    assert _diagonal_bucket(g, 0, 129) == sorted([(a, d), (a, e)])
    assert (0, 129) not in reads


@pytest.mark.parametrize("through", [0, 1])
def test_survivor_with_one_pair_is_still_yielded(monkeypatch, through):
    # four common neighbors; the one pair of the bucket goes through x1 or
    # x2, and the reciprocal bucket is (0, 129) alone: an isolated square
    other = 1 - through
    g = _survivor_host([(0, 1), (0, 2), (1, 2), (other, 3), (2, 3)], SURVIVOR_COMMON[:4])
    reads = _recorded_reads(monkeypatch)
    x, y = SURVIVOR_COMMON[through], SURVIVOR_COMMON[3]
    assert list(isolated_squares(g)) == [(0, x, 129, y)] == _reference_isolated_squares(g)
    # (0, 129) and its reciprocal; (x, y) is read again as a candidate of its
    # own, one pair in its bucket, and dropped as the larger diagonal
    assert reads == [(0, 129), (x, y), (x, y)]


def _relabelled(g, pi):
    """``g`` with vertex ``v`` renamed ``pi[v]``, built from its permuted rows."""
    return build_graph(g.n, [(pi[u], pi[v]) for u, v in g.edges()])


def _relabellings(n):
    """A random permutation of ``range(n)`` seeded by ``n``, and the reversal."""
    shuffled = list(range(n))
    random.Random(n).shuffle(shuffled)
    return shuffled, list(range(n - 1, -1, -1))


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 600])
def test_square_layer_relabelling_invariance(n):
    # vertex order sets the word boundaries of the filter and the scan's
    # lowest common neighbors, the anchor of every square and, at n = 600,
    # the row blocks (the last one partial); none of it may show in the answers
    step = _BLOCK_CELLS // n
    assert n <= step or n % step
    g = sample_gnp(n, density_from_coefficient(0.9, n).p, trial_seed(6400 + n, 0))
    cfs_host = sample_gnp(n, 2.5 * 0.670435 / math.sqrt(n), trial_seed(6400 + n, 1))  # 2.5 tau
    isolated = list(isolated_squares(g))
    sq = build_square_graph(cfs_host)
    for pi in _relabellings(n):
        mapped = {CycleWitness.from_cycle([pi[v] for v in s]).vertices for s in isolated}
        assert set(isolated_squares(_relabelled(g, pi))) == mapped
        h = _relabelled(cfs_host, pi)
        h_sq = build_square_graph(h)
        assert len(h_sq) == len(sq)
        assert is_cfs(h, h_sq) == is_cfs(cfs_host, sq)
    assert isolated and is_cfs(cfs_host, sq)


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_morse_counts_relabelling_invariance(n):
    # the Morse squares come from the isolated-square scan and the Morse
    # pentagons from the pruned DFS, each anchored at a least vertex
    g = sample_gnp(n, density_from_coefficient(0.5, n).p, trial_seed(6400 + n, 2))
    counts = [count_morse_cycles(g, 4), count_morse_cycles(g, 5)]
    for pi in _relabellings(n):
        h = _relabelled(g, pi)
        assert [count_morse_cycles(h, 4), count_morse_cycles(h, 5)] == counts
    assert all(counts)


def test_square_layer_relabelling_invariance_at_4096():
    # 256 row blocks of 16 rows: the isolated squares and the square count of
    # a sparse host (c = 0.9 scans take seconds) under one permutation
    n = 4096
    g = sample_gnp(n, 0.003, trial_seed(6400 + n, 0))
    pi = _relabellings(n)[0]
    h = _relabelled(g, pi)
    mapped = {CycleWitness.from_cycle([pi[v] for v in s]).vertices for s in isolated_squares(g)}
    assert set(isolated_squares(h)) == mapped
    assert len(build_square_graph(h)) == len(build_square_graph(g))
    assert mapped


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


def test_labels_and_supports_are_memoized():
    sq = build_square_graph(sample_gnp(40, 0.2, 2024))
    assert sq.labels is sq.labels
    assert sq.supports is sq.supports


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


def _disjoint_union(*parts):
    """The disjoint union of ``parts``, each one's vertices after the last's."""
    edges, n = [], 0
    for h in parts:
        edges += [(u + n, v + n) for u, v in h.edges()]
        n += h.n
    return build_graph(n, edges)


ARRAY_LAYER_GRAPHS = (
    [(f"gnp{n}", sample_gnp(n, 0.5, trial_seed(606, n))) for n in range(7)]
    + [("c4", cycle_graph(4)), ("k4", complete_graph(4)), ("k23", complete_bipartite(2, 3)),
       ("k2_50", complete_bipartite(2, 50))]
    # buckets of equal size in different components: 3, 3 and 10 squares
    + [("c4+k23+k23+k25", _disjoint_union(cycle_graph(4), complete_bipartite(2, 3),
                                          complete_bipartite(2, 3), complete_bipartite(2, 5)))]
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
    assert label_partition(sq) == comps
    assert isolated_count(sq) == isolated
    assert is_cfs(g, sq) == cfs
    assert is_square_graph_connected(sq) == (len(comps) == 1)


@pytest.mark.parametrize("size, top", [(0, 0), (1, 0), (1, 2**62), (2, 1), (1000, 3),
                                       (4097, 40), (5000, 2**40)])
def test_argsort_matches_stable_argsort(size, top):
    # ties, many of them at small top, come out in index order
    keys = np.random.default_rng(size + top).integers(0, top, size, endpoint=True)
    before = keys.copy()
    order, ordered = _argsort(keys)
    assert order.dtype == ordered.dtype == np.intp
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    assert np.array_equal(ordered, keys[order])
    assert np.array_equal(keys, before)


def test_argsort_rejects_keys_that_do_not_fit():
    # three keys take two index bits, leaving 61 for the key
    order, ordered = _argsort(np.array([2**61 - 1, 5, 0]))
    assert order.tolist() == [2, 1, 0] and ordered.tolist() == [0, 5, 2**61 - 1]
    with pytest.raises(CapacityExceeded):
        _argsort(np.array([2**61, 5, 0]))
    with pytest.raises(CapacityExceeded):
        _argsort(np.array([0, 2**62]))
