import random
import tracemalloc
from itertools import combinations, islice

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
from morsegraph.cycles import (
    _BLOCK_CELLS,
    _PAIR_CHUNK,
    _candidate_blocks,
    _diagonal_bucket,
    _make_bad_bits,
    _morse_cycles,
)
from helpers import (
    brute_induced_cycles,
    brute_induced_squares,
    canonical_cycle,
    complete_bipartite,
    complete_graph,
    cycle_graph,
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
    [(witness, diagonals)] = list(enumerate_induced_squares(cycle_graph(4)))
    assert witness.vertices == (0, 1, 2, 3)
    assert diagonals == ((0, 2), (1, 3))


def test_squares_on_k23():
    g = complete_bipartite(2, 3)
    squares = list(enumerate_induced_squares(g))
    assert len(squares) == 3
    assert all((0, 1) in diags for _, diags in squares)
    assert {w.vertices for w, _ in squares} == brute_induced_squares(g)


def test_squares_on_k4_empty():
    assert list(enumerate_induced_squares(complete_graph(4))) == []


@pytest.mark.parametrize("seed", range(5))
def test_squares_match_cycle_enumeration(seed):
    g = sample_gnp(12, 0.45, trial_seed(777, seed))
    from_squares = {w.vertices for w, _ in enumerate_induced_squares(g)}
    from_cycles = {w.vertices for w in enumerate_induced_cycles(g, 4)}
    assert from_squares == from_cycles == brute_induced_squares(g)


def test_square_prefilter_paths_agree():
    # the row-blocked filter against common neighborhoods from Python sets;
    # n = 600 spans two row blocks, the second one partial, and its first
    # block holds more than one piece of pairs
    step = _BLOCK_CELLS // 600
    assert 600 > step and 600 % step
    for n, p in [(1, 0.5), (2, 1.0), (40, 0.2), (150, 0.12), (600, 0.05)]:
        g = sample_gnp(n, p, 8)
        nbrs = [{v for v in range(n) if g.adjacent(u, v)} for u in range(n)]
        brute = [
            (u, w)
            for u, w in combinations(range(n), 2)
            if w not in nbrs[u] and len(nbrs[u] & nbrs[w]) >= 2
        ]
        pieces = list(_candidate_blocks(g))
        assert all(len(us) == len(ws) <= _PAIR_CHUNK for us, ws in pieces)
        assert [pair for us, ws in pieces for pair in zip(us.tolist(), ws.tolist())] == brute
        assert brute or n < 3
        if n == 600:
            assert sum(int(us[-1]) < step for us, _ in pieces if len(us)) > 1


def test_first_diagonal_candidate_memory():
    # the first piece of candidates costs the float32 adjacency matrix, 4
    # bytes per vertex pair, the packed bit rows and the work of one row
    # block: the matrix is unpacked block by block and a block's pairs are
    # yielded a piece of at most _PAIR_CHUNK at a time
    n = 2048
    g = sample_gnp(n, 0.03, 11)
    tracemalloc.start()
    try:
        us, ws = next(_candidate_blocks(g))
        next(zip(us.tolist(), ws.tolist()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * n * n


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


@pytest.mark.parametrize("n, p, seed", [(14, 0.35, 1), (14, 0.6, 2), (40, 0.2, 3), (40, 0.35, 4)])
def test_bad_bits_match_brute_force(n, p, seed):
    g = sample_gnp(n, p, trial_seed(5150, seed))
    nbrs = [{v for v in range(n) if g.adjacent(u, v)} for u in range(n)]

    def clique(vertices):
        return all(b in nbrs[a] for a, b in combinations(vertices, 2))

    rng = random.Random(seed)
    queries = []
    for u in range(n):
        far = [w for w in range(n) if w != u and w not in nbrs[u]]
        for _ in range(4):
            need = rng.sample(far, rng.randint(0, len(far)))
            queries += [(u, need), (u, need)]
    rng.shuffle(queries)
    bad_bits = _make_bad_bits(g)
    for u, need in queries:
        want = sum(1 << w for w in need if not clique(nbrs[u] & nbrs[w]))
        assert bad_bits(u, sum(1 << w for w in need)) == want


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
