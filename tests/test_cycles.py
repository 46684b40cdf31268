import hashlib
import random
import tracemalloc
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsegraph import (
    CycleWitness,
    InvalidParameter,
    InvalidWitness,
    SearchBudgetExceeded,
    build_graph,
    count_morse_cycles,
    density_from_coefficient,
    enumerate_induced_cycles,
    enumerate_induced_squares,
    morse_oracle,
    morse_pruned_cycle_search,
    sample_gnp,
    trial_seed,
)
from morsegraph.graph import iter_bits
import morsegraph.cycles as cycles_module
from morsegraph.cycles import (
    _BLOCK_CELLS,
    _PAIR_CHUNK,
    _SPAN_WORDS,
    _TABLE_SHARE,
    _candidate_blocks,
    _diagonal_bucket,
    _failing_pairs,
    _make_bad_bits,
    _morse_cycles,
    _packed_rows,
    _square_blocks,
)
from helpers import (
    brute_induced_cycles,
    brute_induced_squares,
    canonical_cycle,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    neighbor_set_squares,
    path_graph,
    pentagon_with_apex,
    petersen,
)


def test_witness_canonicalization():
    w = CycleWitness.from_cycle((3, 4, 0, 1, 2))
    assert w.vertices == (0, 1, 2, 3, 4)
    w = CycleWitness.from_cycle((2, 1, 0, 4, 3))
    assert w.vertices == (0, 1, 2, 3, 4)
    with pytest.raises(InvalidWitness):
        CycleWitness((1, 0, 2))  # first vertex not minimal
    with pytest.raises(InvalidWitness):
        CycleWitness((0, 3, 1, 2))  # reflection not normalized
    with pytest.raises(InvalidWitness):
        CycleWitness.from_cycle((0, 1))


def test_witness_verify():
    c5 = cycle_graph(5)
    CycleWitness((0, 1, 2, 3, 4)).verify(c5)
    with pytest.raises(InvalidWitness):
        CycleWitness((0, 1, 3, 2)).verify(c5)  # not a cycle of this host
    with pytest.raises(InvalidWitness):
        CycleWitness((0, 1, 2, 3, 4)).verify(complete_graph(5))  # chords


def test_enumerate_c5_host():
    assert [w.vertices for w in enumerate_induced_cycles(cycle_graph(5), 5)] == [
        (0, 1, 2, 3, 4)
    ]


def test_enumerate_complete_graph_has_no_long_cycles():
    assert list(enumerate_induced_cycles(complete_graph(5), 5)) == []
    assert len(list(enumerate_induced_cycles(complete_graph(5), 3))) == 10


def test_enumerate_petersen_pentagons():
    mine = [w.vertices for w in enumerate_induced_cycles(petersen(), 5)]
    assert len(mine) == 12
    assert set(mine) == brute_induced_cycles(petersen(), 5)
    assert mine == sorted(mine)


def test_enumerate_rejects_bad_k():
    with pytest.raises(InvalidParameter):
        enumerate_induced_cycles(cycle_graph(5), 2)


def test_enumerate_k_exceeding_n_is_empty():
    assert list(enumerate_induced_cycles(cycle_graph(5), 6)) == []


def test_witness_canonicalization_orbit_invariance():
    base = (0, 3, 7, 5, 9, 2)
    k = len(base)
    orbit = []
    for r in range(k):
        rotated = base[r:] + base[:r]
        orbit.append(rotated)
        orbit.append(rotated[::-1])
    forms = {CycleWitness.from_cycle(seq).vertices for seq in orbit}
    assert len(forms) == 1


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_enumeration_matches_brute_force(seed, k):
    g = sample_gnp(10, 0.4, trial_seed(555, seed))
    mine = [w.vertices for w in enumerate_induced_cycles(g, k)]
    assert len(mine) == len(set(mine))
    assert set(mine) == brute_induced_cycles(g, k)
    assert mine == sorted(mine)
    for w in enumerate_induced_cycles(g, k):
        w.verify(g)


def test_enumeration_streams_lazily():
    g = petersen()
    first_two = list(islice(enumerate_induced_cycles(g, 5), 2))
    assert len(first_two) == 2


def test_squares_on_c4():
    [witness] = list(enumerate_induced_squares(cycle_graph(4)))
    assert witness.vertices == (0, 1, 2, 3)
    assert (witness.vertices[0::2], witness.vertices[1::2]) == ((0, 2), (1, 3))


def test_squares_on_k23():
    g = complete_bipartite(2, 3)
    squares = list(enumerate_induced_squares(g))
    assert len(squares) == 3
    assert all((0, 1) in (w.vertices[0::2], w.vertices[1::2]) for w in squares)
    assert {w.vertices for w in squares} == brute_induced_squares(g)


def test_squares_on_k4_empty():
    assert list(enumerate_induced_squares(complete_graph(4))) == []


@pytest.mark.parametrize("seed", range(5))
def test_squares_match_cycle_enumeration(seed):
    g = sample_gnp(12, 0.45, trial_seed(777, seed))
    from_squares = {w.vertices for w in enumerate_induced_squares(g)}
    from_cycles = {w.vertices for w in enumerate_induced_cycles(g, 4)}
    assert from_squares == from_cycles == brute_induced_squares(g)


def _set_candidates(g):
    """The candidate diagonals from Python sets of neighbors: non-adjacent
    pairs u < w with at least two common neighbors, in lexicographic order."""
    nbrs = [set(iter_bits(row)) for row in g.rows]
    return [
        (u, w)
        for u, w in combinations(range(g.n), 2)
        if w not in nbrs[u] and len(nbrs[u] & nbrs[w]) >= 2
    ]


def _candidate_pieces(g):
    pieces = list(_candidate_blocks(_packed_rows(g)))
    assert all(len(us) == len(ws) <= _PAIR_CHUNK for us, ws in pieces)
    return pieces


def _listed(pieces):
    return [pair for us, ws in pieces for pair in zip(us.tolist(), ws.tolist())]


def test_square_prefilter_paths_agree():
    # the filter against common neighborhoods from Python sets; n = 0 has no
    # rows and n = 128 fills its two 64-bit words with no padding; n = 600
    # spans six read-out blocks, the last one partial, and its first block
    # holds more than one piece of pairs
    step = _BLOCK_CELLS // 600
    assert 600 > step and 600 % step
    for n, p in [(0, 0.5), (1, 0.5), (2, 1.0), (40, 0.2), (128, 0.15), (150, 0.12), (600, 0.05)]:
        g = sample_gnp(n, p, 8)
        brute = _set_candidates(g)
        pieces = _candidate_pieces(g)
        assert _listed(pieces) == brute
        assert brute or n < 3
        if n == 600:
            assert sum(int(us[-1]) < step for us, _ in pieces if len(us)) > 1


def _k2_across_words(m, hubs=(63, 64)):
    """K_{2,m} with its two hubs at ``hubs``, by default 63 and 64, either
    side of a word boundary."""
    others = [v for v in range(m + 2) if v not in hubs]
    return build_graph(m + 2, [(hub, v) for hub in hubs for v in others])


def _isolated_and_pendant():
    """G(300, 0.04) relabelled among 400 vertices, 50 more of degree 1, and
    50 isolated ones, spread over the rows."""
    rng = random.Random(2701)
    core = sample_gnp(300, 0.04, trial_seed(2701, 0))
    label = rng.sample(range(400), 400)
    edges = [(label[u], label[v]) for u in range(300) for v in iter_bits(core.rows[u]) if u < v]
    edges += [(label[300 + i], label[rng.randrange(300)]) for i in range(50)]
    return build_graph(400, edges)


RANK_WALK_HOSTS = [
    # one full row in its span, every other row one neighbor: no candidates
    ("star", build_graph(300, [(0, v) for v in range(1, 300)])),
    # every pair of the 300 side has exactly the two hubs in common
    ("k2_300", _k2_across_words(300)),
    ("isolated-and-pendant", _isolated_and_pendant()),
    # spans of up to 512 rows over read-out blocks of 32
    ("sparse2048", sample_gnp(2048, 0.003, 8)),
]


@pytest.mark.parametrize("name,g", RANK_WALK_HOSTS, ids=[name for name, _ in RANK_WALK_HOSTS])
def test_candidate_rank_walk_matches_python_sets(name, g):
    # the walk pads short neighbor lists with a zero row; each host has
    # more than one read-out block, and rows of very different degrees in
    # one span
    assert g.n > _BLOCK_CELLS // g.n
    listed = _listed(_candidate_pieces(g))
    assert listed == _set_candidates(g)
    degrees = sorted(row.bit_count() for row in g.rows)
    if name == "star":
        assert listed == [] and degrees[-1] == 299
    if name == "k2_300":
        assert len(listed) == 300 * 299 // 2 + 1 and (63, 64) in listed
    if name == "isolated-and-pendant":
        assert degrees[0] == 0 and 1 in degrees
    if name == "sparse2048":
        assert len(listed) > 100
        assert _SPAN_WORDS // (2048 // 64) > _BLOCK_CELLS // 2048  # spans over blocks


def test_candidate_filter_memory_at_small_n():
    # a block's strict-upper mask covers its leading square, as many rows a
    # side as the block has: at n = 6 a block could hold _BLOCK_CELLS // 6
    # rows, and a mask of that many would take 119 MB
    g = complete_bipartite(2, 4)
    packed = _packed_rows(g)
    assert _BLOCK_CELLS // g.n > 10**4
    tracemalloc.start()
    try:
        listed = _listed(_candidate_blocks(packed))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert listed == _set_candidates(g) and len(listed) == 7
    assert peak <= 2**14


def test_candidates_on_a_short_last_block():
    # n = 1000 reads blocks of 65 rows, the last one 25 rows, whose leading
    # square and mask are 25 rows a side
    g = sample_gnp(1000, 0.03, trial_seed(2604, 0))
    step = _BLOCK_CELLS // g.n
    assert (step, g.n % step) == (65, 25)
    listed = _listed(_candidate_pieces(g))
    assert listed == _set_candidates(g)
    assert sum(u >= g.n - g.n % step for u, _ in listed) > 10


def test_first_diagonal_candidate_memory():
    # the first piece of candidates costs the packed bit rows and their copy
    # padded with a zero row, one bit per vertex pair each, the neighbor
    # lists and planes of the first span (one read-out block of rows), and
    # the bits, counts and masks of that block, a few bytes for each of its
    # _BLOCK_CELLS pairs (1.6 MB in all with numpy 2.4), so an n x n array
    # cannot come back, not even at one byte per pair
    n = 2048
    g = sample_gnp(n, 0.03, 11)
    tracemalloc.start()
    try:
        packed = _packed_rows(g)
        us, ws = next(_candidate_blocks(packed))
        next(zip(us.tolist(), ws.tolist()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * n // 4 + 16 * _BLOCK_CELLS


def test_square_blocks_memory():
    # the first piece of squares costs the filter's first piece, the AND of
    # its candidates' rows, read a chunk at a time, and, on this sparse
    # host, few squares: no n x n byte matrix (16 MB here).  Not
    # n = 2048: its 4 MB matrix would fit the 16 * _BLOCK_CELLS term of a
    # block of 2**18 pairs
    n = 4096
    g = sample_gnp(n, 0.002, 11)
    tracemalloc.start()
    try:
        assert len(next(_square_blocks(g)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * n // 4 + 16 * _BLOCK_CELLS + 8 * (g.m + n + 1)


def _near_complete(n):
    """K_n less the edge (0, 1): one candidate diagonal and no square."""
    return build_graph(n, [(u, v) for u, v in combinations(range(n), 2) if (u, v) != (0, 1)])


SQUARE_BLOCK_HOSTS = (
    # one 64-bit word holds several common neighbors of a candidate
    [("k2_150", complete_bipartite(2, 150)), ("gnp130-0.9", sample_gnp(130, 0.9, 2601))]
    # common neighbors on both sides of a word boundary, and a last partial word
    + [(f"gnp{n}", sample_gnp(n, 0.3, trial_seed(2602, n))) for n in (63, 64, 65, 127, 128, 129)]
    + [(f"empty{n}", build_graph(n, [])) for n in (0, 1, 2)]
    + [("k6-less-an-edge", _near_complete(6))]
    # pieces that start past rows 64 and 128, whose read-out skips the words
    # below their first row: the diagonal (130, 200) has common neighbors in
    # every word, most of them below its own
    + [("two-hubs-130-200", _k2_across_words(258, (130, 200))),
       ("gnp256", sample_gnp(256, 0.1, trial_seed(2603, 256)))]
)


@pytest.mark.parametrize("name,g", SQUARE_BLOCK_HOSTS, ids=[name for name, _ in SQUARE_BLOCK_HOSTS])
def test_square_blocks_match_brute_force(name, g):
    # every square once, canonical, in lexicographic order of (u, w, x, y),
    # against the squares listed from Python sets of neighbors
    blocks = list(_square_blocks(g))
    assert all(b.dtype == np.intp and b.shape[1:] == (4,) for b in blocks)
    listed = [tuple(square) for b in blocks for square in b.tolist()]
    assert listed == sorted(neighbor_set_squares(g), key=lambda s: (s[0], s[2], s[1], s[3]))
    if name == "k2_150":
        assert len(listed) == 150 * 149 // 2
    if name == "k6-less-an-edge":  # its one candidate reads out to an empty piece
        assert [len(b) for b in blocks] == [0]
    if name in ("two-hubs-130-200", "gnp256"):
        words = {int(us[0]) >> 6 for us, _ in _candidate_pieces(g)}
        assert {1, 2, 3} <= words


@pytest.mark.parametrize("seed", range(4))
def test_diagonal_bucket_matches_brute_force(seed):
    g = sample_gnp(14, 0.1 + 0.15 * seed, trial_seed(4242, seed))
    for u, w in combinations(range(g.n), 2):
        if g.adjacent(u, w):
            continue
        common = [v for v in range(g.n) if g.adjacent(u, v) and g.adjacent(w, v)]
        brute = [(x, y) for x, y in combinations(common, 2) if not g.adjacent(x, y)]
        assert _diagonal_bucket(g, u, w) == brute
        for limit in (1, 2, 3):
            assert _diagonal_bucket(g, u, w, limit) == brute[:limit]


def test_pruned_search_examples():
    found = morse_pruned_cycle_search(cycle_graph(5), 5, 8)
    assert found is not None and found.vertices == (0, 1, 2, 3, 4)
    # apex adjacent to two cycle vertices at distance 2 kills both pentagons
    assert morse_pruned_cycle_search(pentagon_with_apex(0, 2), 5, 5) is None
    assert morse_pruned_cycle_search(complete_graph(5), 4, 5) is None


def test_pruned_search_finds_squares_when_kmin_4():
    found = morse_pruned_cycle_search(cycle_graph(4), 4, 8)
    assert found is not None and found.k == 4


def test_pruned_search_parameter_validation():
    g = cycle_graph(5)
    with pytest.raises(InvalidParameter):
        morse_pruned_cycle_search(g, 3, 5)
    with pytest.raises(InvalidParameter):
        morse_pruned_cycle_search(g, 6, 5)


@pytest.mark.parametrize("seed", range(10))
def test_pruned_search_matches_definitional_counts(seed):
    # the expected side filters every induced cycle through the literal
    # oracle; count_morse_cycles would read the search's own stream
    g = sample_gnp(12, 0.35, trial_seed(999, seed))

    def oracle_count(k):
        return sum(1 for w in enumerate_induced_cycles(g, k) if morse_oracle(g, w.vertices))

    found = morse_pruned_cycle_search(g, 4, 12) is not None
    expected = any(oracle_count(k) > 0 for k in range(4, 13))
    assert found == expected
    found5 = morse_pruned_cycle_search(g, 5, 12) is not None
    expected5 = any(oracle_count(k) > 0 for k in range(5, 13))
    assert found5 == expected5


@pytest.mark.parametrize("kmin, kmax", [(4, 12), (5, 12), (5, 5), (6, 8)])
def test_morse_cycle_stream_yields_each_cycle_once(kmin, kmax):
    # expected: every induced cycle in range that the literal oracle accepts
    # the first graph's path 0-1-2-3 closes two Morse pentagons, via 4 and 5
    graphs = [build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (3, 5), (5, 0), (4, 5)])]
    graphs += [sample_gnp(12, (0.25, 0.3, 0.35)[t % 3], trial_seed(4242, t)) for t in range(36)]
    total = 0
    for g in graphs:
        expected = {
            w.vertices
            for k in range(kmin, kmax + 1)
            for w in enumerate_induced_cycles(g, k)
            if morse_oracle(g, w.vertices)
        }
        got = list(_morse_cycles(g, kmin, kmax))
        assert len(got) == len(set(got))
        assert set(got) == expected
        assert all(CycleWitness(c).vertices == c for c in got)
        lengths = [len(c) for c in got]
        assert lengths == sorted(lengths, key=lambda k: k > 4)  # squares first
        total += len(got)
    assert total  # some graph has a Morse cycle in range


def test_pruned_search_stops_below_kmax():
    # each of the 6 anchors of a 10-vertex path extends to 4-vertex paths and
    # no further: 3 popped candidates per anchor, none at a fifth path vertex
    g = path_graph(10)
    assert count_morse_cycles(g, 5, budget=18) == 0
    with pytest.raises(SearchBudgetExceeded):
        count_morse_cycles(g, 5, budget=17)


def test_search_budget_meters_only_the_dfs():
    # the isolated-square scan spends no budget; the k >= 5 DFS behind it does
    square = morse_pruned_cycle_search(cycle_graph(4), 4, 4, budget=0)
    assert square is not None and square.vertices == (0, 1, 2, 3)
    g = path_graph(10)  # no square, so kmin = 4 falls through to the DFS
    assert morse_pruned_cycle_search(g, 4, 5, budget=18) is None
    with pytest.raises(SearchBudgetExceeded):
        morse_pruned_cycle_search(g, 4, 5, budget=17)


def _planted_pairs_graph(n, seed):
    """A sparse random graph on the vertices below n - 13 and, on the top 13
    (straddling a 64-bit word boundary for n = 65 and 129), a gadget whose
    pairs (u, w) with u = n - 13 have 0, 1, 2, 2, 3 and 3 common neighbors,
    of which the second 2 and the second 3 are not cliques; u lies in a K4."""
    s = list(range(n - 13, n))
    u = s[0]
    rng = random.Random(seed)
    edges = [e for e in combinations(range(n - 13), 2) if rng.random() < 0.08]
    edges += [(u, s[2]), (s[2], s[3])]  # w = s[3]: one common neighbor
    edges += [(x, y) for x, y in combinations([u, s[4], s[5], s[6]], 2)]  # the K4
    edges += [(s[7], s[4]), (s[7], s[5])]  # two, adjacent
    edges += [(u, s[9]), (s[8], s[2]), (s[8], s[9])]  # two, non-adjacent
    edges += [(s[10], s[4]), (s[10], s[5]), (s[10], s[6])]  # the K4's triangle
    edges += [(s[11], s[2]), (s[11], s[4]), (s[11], s[9])]  # three, not a clique
    edges += [(s[12], x) for x in (s[2], s[4], s[5], s[6], s[9])]  # five
    return build_graph(n, edges), u, [s[1], s[3], s[7], s[8], s[10], s[11]]


# p = None: the planted-pairs graph at n, sizes on both sides of 64 and 128
BAD_BITS_GRAPHS = [(14, 0.35, 1), (14, 0.6, 2), (40, 0.2, 3), (40, 0.35, 4)]
BAD_BITS_GRAPHS += [(63, None, 5), (64, None, 6), (65, None, 7), (129, None, 8)]
# the queries of every graph past n = 14 pass the lazy share, so the later ones
# read the table of failing pairs; in the last graph most queried pairs have
# fewer than two common neighbors
BAD_BITS_GRAPHS += [(129, 0.2, 9), (129, 0.05, 10)]


@pytest.mark.parametrize("n, p, seed", BAD_BITS_GRAPHS)
def test_bad_bits_match_brute_force(monkeypatch, n, p, seed):
    if p is None:
        g, u0, planted = _planted_pairs_graph(n, seed)
    else:
        g = sample_gnp(n, p, trial_seed(5150, seed))
    nbrs = [{v for v in range(n) if g.adjacent(u, v)} for u in range(n)]

    def clique(vertices):
        return all(b in nbrs[a] for a, b in combinations(vertices, 2))

    if p is None:
        commons = [nbrs[u0] & nbrs[w] for w in planted]
        assert [len(c) for c in commons] == [0, 1, 2, 2, 3, 3]
        assert [clique(c) for c in commons] == [True, True, True, False, True, False]

    rng = random.Random(seed)
    queries = []
    for u in range(n):
        far = [w for w in range(n) if w != u and w not in nbrs[u]]
        for _ in range(4):
            need = rng.sample(far, rng.randint(0, len(far)))
            queries += [(u, need), (u, need)]
    rng.shuffle(queries)
    if p is None:  # first, so that the lazy test answers them, both ways round
        queries = [(u0, [w]) for w in planted] + [(w, [u0]) for w in planted] + queries
    made, builds = [], []
    is_clique_mask = cycles_module.is_clique_mask
    failing_pairs = cycles_module._failing_pairs

    def counted(graph, mask):
        made.append(mask)
        return is_clique_mask(graph, mask)

    def built(graph):
        before = len(made)
        table = failing_pairs(graph)
        builds.append((before, len(made)))
        return table

    monkeypatch.setattr(cycles_module, "is_clique_mask", counted)
    monkeypatch.setattr(cycles_module, "_failing_pairs", built)
    bad_bits = _make_bad_bits(g)
    asked = set()  # the unordered pairs of the queries made before the build
    for u, need in queries:
        if not builds:
            asked.update((min(u, w), max(u, w)) for w in need)
        want = sum(1 << w for w in need if not clique(nbrs[u] & nbrs[w]))
        assert bad_bits(u, sum(1 << w for w in need)) == want
    # before the build, each distinct pair asked for reaches the clique test
    # exactly once, whichever way round and however often it was asked; none
    # reaches it after the build
    [(before, after)] = builds or [(len(made), len(made))]
    lazy = sorted(made[:before])
    assert lazy == sorted(g.rows[u] & g.rows[w] for u, w in asked)
    assert len(made) == after
    assert len(builds) == (n > 14)
    assert len(builds) == (len(asked) > max(n * (n - 1) // 2, _PAIR_CHUNK) // _TABLE_SHARE)


def _clique_commons_graph(n, p, seed):
    """G(n - 18, p) and, on the top 18 vertices, a vertex u whose pairs with
    w3, w4 and w5 have the cliques K3, K4 and K5 as common neighborhoods, and
    whose pair with wf has that K4 and a vertex z above it, adjacent to no
    vertex of the K4: three lowest common neighbors that form a clique under
    a common neighborhood that does not."""
    s = list(range(n - 18, n))
    u, k3, w3, k4, w4, k5, w5, wf, z = s[0], s[1:4], s[4], s[5:9], s[9], s[10:15], *s[15:]
    g = sample_gnp(n - 18, p, seed)
    edges = [(a, b) for a, b in combinations(range(n - 18), 2) if g.adjacent(a, b)]
    for clique, w in ((k3, w3), (k4, w4), (k5, w5)):
        edges += list(combinations(clique, 2)) + [(u, x) for x in clique] + [(x, w) for x in clique]
    edges += [(x, wf) for x in k4] + [(u, z), (wf, z)]
    masks = [sum(1 << x for x in common) for common in (k3, k4, k5, k4 + [z])]
    return build_graph(n, edges), masks


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_failing_pairs_match_brute_force(monkeypatch, n):
    # the table against a Python-set clique test on every non-adjacent pair;
    # the planted host sends its four common neighborhoods of three or more
    # vertices with no gap among the lowest three to the whole clique test
    ps = (0.05, 0.2, 0.45, 0.7)
    hosts = [sample_gnp(n, p, trial_seed(5300 + n, i)) for i, p in enumerate(ps)]
    planted, masks = _clique_commons_graph(n, 0.1, trial_seed(5400, n))
    tested = []
    is_clique_mask = cycles_module.is_clique_mask

    def counted(graph, mask):
        tested.append(mask)
        return is_clique_mask(graph, mask)

    monkeypatch.setattr(cycles_module, "is_clique_mask", counted)
    for g in hosts + [planted]:
        nbrs = [{v for v in range(n) if g.adjacent(u, v)} for u in range(n)]
        want = [0] * n
        for u, w in combinations(range(n), 2):
            common = nbrs[u] & nbrs[w]
            if w not in nbrs[u] and not all(common - {x} <= nbrs[x] for x in common):
                want[u] |= 1 << w
                want[w] |= 1 << u
        del tested[:]
        assert _failing_pairs(g) == want
    assert set(masks) <= set(tested)
    assert all(mask.bit_count() >= 3 for mask in tested)


def test_failing_pairs_built_once_and_never_on_an_early_hit(monkeypatch):
    # a no-hit exists:5:8 search passes the lazy share and builds the table
    # once; the first pentagon at n = 4096 comes long before it
    builds = []
    failing_pairs = cycles_module._failing_pairs

    def built(graph):
        builds.append(graph.n)
        return failing_pairs(graph)

    monkeypatch.setattr(cycles_module, "_failing_pairs", built)
    g = sample_gnp(256, density_from_coefficient(0.95, 256).p, trial_seed(7, 0))
    assert morse_pruned_cycle_search(g, 5, 8) is None
    assert builds == [256]
    g = sample_gnp(4096, density_from_coefficient(0.5, 4096).p, trial_seed(7, 0))
    assert morse_pruned_cycle_search(g, 5, 5) is not None
    assert builds == [256]


def test_failing_pairs_memory():
    # at most four copies of one bit per vertex pair (the packed rows, the
    # filter's padded copy, the table's words and its int rows), one span's
    # neighbor lists and planes and one read-out block's working set: no
    # n x n byte matrix (16 MB here).  At p = 0.01 every row of the table
    # is nonzero
    n = 4096
    g = sample_gnp(n, 0.01, 11)
    tracemalloc.start()
    try:
        table = _failing_pairs(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(table)
    assert peak <= n * n // 2 + 16 * _BLOCK_CELLS


# recorded from the earlier per-pair dict memo engine; a faster pair test
# or a shallower search must not move a witness or a count
PRUNED_GOLDEN = [
    (128, 0.5, 1, (0, 7, 16, 84, 2, 74, 85), (0, 7, 64, 59, 42), 109),
    (192, 0.95, 3, None, None, 0),
    (256, 0.5, 4, (0, 52, 44, 105, 72, 165), (1, 51, 138, 207, 66), 368),
]


@pytest.mark.parametrize("n, c, seed, first58, first5, count5", PRUNED_GOLDEN)
def test_pruned_search_golden(n, c, seed, first58, first5, count5):
    g = sample_gnp(n, density_from_coefficient(c, n).p, trial_seed(3141, seed))
    w = morse_pruned_cycle_search(g, 5, 8)
    assert (w and w.vertices) == first58
    w = morse_pruned_cycle_search(g, 5, 5)
    assert (w and w.vertices) == first5
    assert count_morse_cycles(g, 5) == count5


# smallest sufficient budgets, recorded while the DFS still pushed its last
# path level: how the units are paid may change, their sums may not
BUDGET_GOLDEN = [
    (128, 0.5, 1, 23449, 78),
    (192, 0.95, 3, 63098, 63359),
    (256, 0.5, 4, 130758, 1150),
]


@pytest.mark.parametrize("n, c, seed, count_budget, search_budget", BUDGET_GOLDEN)
def test_smallest_sufficient_budgets(n, c, seed, count_budget, search_budget):
    golden = {(g_n, g_c, g_seed): rest for g_n, g_c, g_seed, *rest in PRUNED_GOLDEN}
    first58, _, count5 = golden[n, c, seed]
    g = sample_gnp(n, density_from_coefficient(c, n).p, trial_seed(3141, seed))
    assert count_morse_cycles(g, 5, budget=count_budget) == count5
    with pytest.raises(SearchBudgetExceeded):
        count_morse_cycles(g, 5, budget=count_budget - 1)
    w = morse_pruned_cycle_search(g, 5, 8, budget=search_budget)
    assert (w and w.vertices) == first58
    with pytest.raises(SearchBudgetExceeded):
        morse_pruned_cycle_search(g, 5, 8, budget=search_budget - 1)


# more smallest sufficient budgets on the same graphs, recorded before every
# node's cycles were tested at its parent: the whole (5, 8) stream, whose
# closing vertices at lengths 6 and 7 are tested one level up, and the search
# with kmin = 6, where the first level has no cycle of admissible length
RANGE_BUDGET_GOLDEN = [
    (128, 0.5, 1, 128757, 78),
    (192, 0.95, 3, 63359, 63346),
    (256, 0.5, 4, 1028549, 1140),
]


@pytest.mark.parametrize("n, c, seed, stream_budget, search6_budget", RANGE_BUDGET_GOLDEN)
def test_smallest_sufficient_budgets_of_other_ranges(n, c, seed, stream_budget, search6_budget):
    g = sample_gnp(n, density_from_coefficient(c, n).p, trial_seed(3141, seed))
    stream = list(_morse_cycles(g, 5, 8))
    assert list(_morse_cycles(g, 5, 8, stream_budget)) == stream
    with pytest.raises(SearchBudgetExceeded):
        list(_morse_cycles(g, 5, 8, stream_budget - 1))
    first6 = morse_pruned_cycle_search(g, 6, 8)
    w = morse_pruned_cycle_search(g, 6, 8, budget=search6_budget)
    assert w == first6 and (w is None or w.k >= 6)
    with pytest.raises(SearchBudgetExceeded):
        morse_pruned_cycle_search(g, 6, 8, budget=search6_budget - 1)


# is_clique_mask calls of the whole stream _morse_cycles(g, 5, kmax) with the
# table of failing pairs switched off (_TABLE_SHARE = 1: the limit is every
# pair, which the lazy tests never pass): each pair the DFS asks for is tested
# once, wherever it asks.  "calls" counts the pairs with two or more common
# neighbors, pinned while only those reached the test; the totals count all
CLIQUE_TEST_GOLDEN = [(128, 0.5, 1, 5, 2573), (192, 0.95, 3, 8, 14268), (256, 0.5, 4, 8, 12518)]
CLIQUE_TEST_TOTALS = {(128, 0.5, 1): 6096, (192, 0.95, 3): 14673, (256, 0.5, 4): 30204}


def _count_clique_tests(monkeypatch, g, kmax):
    """Run the whole stream; return the masks the clique test was asked for
    and, per table build, the number of them asked before and after it."""
    made, builds = [], []
    is_clique_mask = cycles_module.is_clique_mask
    failing_pairs = cycles_module._failing_pairs

    def counted(graph, mask):
        made.append(mask)
        return is_clique_mask(graph, mask)

    def built(graph):
        before = len(made)
        table = failing_pairs(graph)
        builds.append((before, len(made)))
        return table

    monkeypatch.setattr(cycles_module, "is_clique_mask", counted)
    monkeypatch.setattr(cycles_module, "_failing_pairs", built)
    list(_morse_cycles(g, 5, kmax))
    return made, builds


@pytest.mark.parametrize("n, c, seed, kmax, calls", CLIQUE_TEST_GOLDEN)
def test_morse_stream_clique_test_count(monkeypatch, n, c, seed, kmax, calls):
    g = sample_gnp(n, density_from_coefficient(c, n).p, trial_seed(3141, seed))
    monkeypatch.setattr(cycles_module, "_TABLE_SHARE", 1)
    made, builds = _count_clique_tests(monkeypatch, g, kmax)
    assert builds == []
    assert sum(mask.bit_count() >= 2 for mask in made) == calls
    assert len(made) == CLIQUE_TEST_TOTALS[n, c, seed]


# lazy is_clique_mask calls of the same streams before they build their
# table of failing pairs: the lazy tests run until more than
# n(n - 1)/2 // _TABLE_SHARE pairs are tested, each pair a query asks for
# counting; every later answer comes from the table
TABLE_SWITCH_GOLDEN = [(128, 0.5, 1, 5, 1018), (192, 0.95, 3, 8, 2294), (256, 0.5, 4, 8, 4081)]


@pytest.mark.parametrize("n, c, seed, kmax, calls", TABLE_SWITCH_GOLDEN)
def test_morse_stream_table_switch(monkeypatch, n, c, seed, kmax, calls):
    g = sample_gnp(n, density_from_coefficient(c, n).p, trial_seed(3141, seed))
    made, builds = _count_clique_tests(monkeypatch, g, kmax)
    # one table, after the pinned lazy calls, and no lazy call after it
    [(before, after)] = builds
    assert before == calls > n * (n - 1) // 2 // _TABLE_SHARE
    assert len(made) == after


@pytest.mark.parametrize("n, c, seed, kmax, calls", CLIQUE_TEST_GOLDEN)
def test_morse_stream_independent_of_table_switch(monkeypatch, n, c, seed, kmax, calls):
    # the whole stream and its prefixes cut by a budget read the same
    # whenever the table of failing pairs is built: never (share 1), after a
    # lazy share, or at the first query (a share past n(n - 1)/2).  A build
    # leaves every pair known and bad holding exactly the failing pairs
    g = sample_gnp(n, density_from_coefficient(c, n).p, trial_seed(3141, seed))
    table = _failing_pairs(g)
    # the stream's smallest sufficient budget: a count's for kmax = 5
    goldens = {5: BUDGET_GOLDEN, 8: RANGE_BUDGET_GOLDEN}[kmax]
    total = next(budget for m, _, _, budget, _ in goldens if m == n)
    made, builds = [], []
    make_bad_bits, failing_pairs = _make_bad_bits, _failing_pairs

    def recorded(graph):
        made.append(make_bad_bits(graph))
        return made[-1]

    def built(graph):
        builds.append(graph)
        return failing_pairs(graph)

    monkeypatch.setattr(cycles_module, "_make_bad_bits", recorded)
    monkeypatch.setattr(cycles_module, "_failing_pairs", built)
    runs = []
    for share in (1, 2, 8, 64, n * n):
        monkeypatch.setattr(cycles_module, "_TABLE_SHARE", share)
        del made[:], builds[:]
        run = [list(_morse_cycles(g, 5, kmax))]
        for budget in (10**3, total // 2, total - 1):
            run.append([])
            with pytest.raises(SearchBudgetExceeded):
                for cycle in _morse_cycles(g, 5, kmax, budget):
                    run[-1].append(cycle)
        runs.append(run)
        done = [b for b in made if -1 in b.known]
        assert len(done) == len(builds)
        if share == 1:
            assert not builds
        elif share == n * n:  # at the first query of each of the four runs
            assert len(builds) == 4
        for bad_bits in done:
            assert bad_bits.known == [-1] * n and bad_bits.bad == table
    assert all(run == runs[0] for run in runs[1:])


# sha256 of repr(list(_morse_cycles(g, 5, kmax))), recorded while the DFS
# still pushed its last path level: the order is pinned, not just the set
STREAM_GOLDEN = [
    (1, 5, 296, "41316a9d5ac7b2f207bf0f53a4124b2c20199e49778ce72b9d0c47cddc6bce97"),
    (1, 7, 987, "f56a2ff27881fd99d7988954b0ff2bf91ea79bf1926e695ee6862f0059006323"),
    (2, 5, 220, "905da9ce1d8ac13ba7b91bf89079198296b335d0277d977fcad05bfc4af81a3e"),
    (2, 7, 703, "c6448d6a08e1fb89a179664be183d28038d4e307d5df7f074e4cb48ffe3da2c8"),
]


@pytest.mark.parametrize("seed, kmax, count, digest", STREAM_GOLDEN)
def test_morse_cycle_stream_order_golden(seed, kmax, count, digest):
    g = sample_gnp(200, density_from_coefficient(0.5, 200).p, trial_seed(2718, seed))
    got = list(_morse_cycles(g, 5, kmax))
    assert len(got) == count
    assert hashlib.sha256(repr(got).encode()).hexdigest() == digest


# the same digests for a range above length 5 and the uncapped range
# (kmax = n), recorded before every node's cycles were tested at its parent
STREAM_RANGE_GOLDEN = [
    (1, 6, 8, 998, 8, "c48d17ab628528900222b8abfb72152904709960244944005eb6930a3a146b20"),
    (1, 5, 200, 1597, 13, "fbdfb2ea62d577ee701709fa804e948de5bf23a015abd0ec490ad0dfd01027d7"),
    (2, 6, 8, 631, 8, "3bfaa309ad91c906d892cb857274cfb85a7a427ee848afc732688f0a50fb54f6"),
    (2, 5, 200, 979, 12, "e7c0c6c0f8f8531a56b735aca396e08d412a93064f7835bbea6ebf8402676e78"),
]


@pytest.mark.parametrize("seed, kmin, kmax, count, longest, digest", STREAM_RANGE_GOLDEN)
def test_morse_cycle_stream_ranges_golden(seed, kmin, kmax, count, longest, digest):
    g = sample_gnp(200, density_from_coefficient(0.5, 200).p, trial_seed(2718, seed))
    got = list(_morse_cycles(g, kmin, kmax))
    assert len(got) == count
    assert min(map(len, got)) == kmin and max(map(len, got)) == longest
    assert hashlib.sha256(repr(got).encode()).hexdigest() == digest


def test_search_on_adversarial_hosts():
    # complete bipartite: every distance-2 pair has a large non-clique common
    # neighborhood, and every square shares diagonals; nothing is Morse
    k33 = complete_bipartite(3, 3)
    assert morse_pruned_cycle_search(k33, 4, 8) is None
    assert count_morse_cycles(k33, 4) == 0
    assert count_morse_cycles(k33, 5) == 0
    assert count_morse_cycles(k33, 6) == 0
    # a pentagon disjoint from a dense clique must still be found
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(u, v) for u in range(5, 13) for v in range(u + 1, 13)]
    g = build_graph(13, edges)
    found = morse_pruned_cycle_search(g, 5, 13)
    assert found is not None and found.vertices == (0, 1, 2, 3, 4)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 8), k=st.integers(3, 6), edge_bits=st.integers(min_value=0))
def test_hypothesis_enumeration_matches_brute_force(n, k, edge_bits):
    pairs = list(combinations(range(n), 2))
    edges = [pair for i, pair in enumerate(pairs) if (edge_bits >> i) & 1]
    g = build_graph(n, edges)
    mine = [w.vertices for w in enumerate_induced_cycles(g, k)]
    assert set(mine) == brute_induced_cycles(g, k)
    assert mine == sorted(mine)


def test_search_budget_is_reported():
    g = sample_gnp(40, 0.15, 2)
    with pytest.raises(SearchBudgetExceeded):
        morse_pruned_cycle_search(g, 5, 10, budget=3)
    # a budget large enough must give the definite answer
    found = morse_pruned_cycle_search(g, 5, 10, budget=10**7)
    assert found is not None and found.vertices == (0, 1, 13, 25, 35)
