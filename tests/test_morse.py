import random

import pytest

from morsegraph import (
    InvalidWitness,
    VertexOutOfRange,
    build_graph,
    build_square_graph,
    count_morse_cycles,
    enumerate_induced_cycles,
    enumerate_induced_squares,
    is_morse_cycle,
    is_morse_subgraph,
    isolated_count,
    morse_oracle,
    sample_gnp,
    trial_seed,
)
from helpers import (
    brute_is_morse_subset,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    pentagon_with_apex,
    two_disjoint_squares,
)


def test_square_subset_examples():
    c4 = cycle_graph(4)
    assert not is_morse_subgraph(c4, [0, 2])
    assert is_morse_subgraph(c4, [0, 1, 2, 3])
    assert is_morse_subgraph(c4, [1])
    assert is_morse_subgraph(c4, [])


def test_vacuous_sets_are_morse():
    g = sample_gnp(15, 0.5, 60)
    assert is_morse_subgraph(g, [])
    assert is_morse_subgraph(g, [7])
    u, v = next(g.edges())
    assert is_morse_subgraph(g, [u, v])


def test_out_of_range_subset():
    with pytest.raises(VertexOutOfRange):
        is_morse_subgraph(cycle_graph(4), [0, 9])
    with pytest.raises(VertexOutOfRange):
        morse_oracle(cycle_graph(4), [0, 9])


def test_pentagon_with_near_apex_is_morse():
    # apex joined to adjacent cycle vertices leaves the pentagon Morse
    g = pentagon_with_apex(0, 1)
    assert is_morse_cycle(g, (0, 1, 2, 3, 4))
    assert count_morse_cycles(g, 5) == 1


def test_pentagon_with_far_apex_is_not_morse():
    # apex joined to distance-2 cycle vertices creates a square through them
    g = pentagon_with_apex(0, 2)
    assert not is_morse_cycle(g, (0, 1, 2, 3, 4))
    assert count_morse_cycles(g, 5) == 0


def test_lone_square_is_morse():
    assert is_morse_cycle(cycle_graph(4), (0, 1, 2, 3))


def test_count_morse_cycles_examples():
    assert count_morse_cycles(complete_graph(5), 5) == 0
    assert count_morse_cycles(two_disjoint_squares(), 4) == 2
    assert count_morse_cycles(complete_bipartite(2, 3), 4) == 0


def test_is_morse_cycle_rejects_invalid_witness():
    with pytest.raises(InvalidWitness):
        is_morse_cycle(cycle_graph(5), (0, 1, 2))
    with pytest.raises(InvalidWitness):
        is_morse_cycle(cycle_graph(5), (0, 1, 2, 3))


def test_shared_diagonal_squares_are_not_morse():
    g = complete_bipartite(2, 3)
    for witness, _ in enumerate_induced_squares(g):
        assert not is_morse_cycle(g, witness)


def test_oracle_examples():
    c4 = cycle_graph(4)
    assert not morse_oracle(c4, [0, 2])
    assert morse_oracle(cycle_graph(5), [0, 1, 2, 3, 4])


@pytest.mark.parametrize("seed", range(8))
def test_oracle_equivalence_on_random_graphs(seed):
    n = 8 + (seed % 5)
    g = sample_gnp(n, 0.3 + 0.05 * (seed % 4), trial_seed(246, seed))
    rng = random.Random(seed)
    subsets = [rng.sample(range(n), rng.randint(0, n)) for _ in range(60)]
    for k in range(3, n + 1):
        subsets.extend(w.vertices for w in enumerate_induced_cycles(g, k))
    for s in subsets:
        fast = is_morse_subgraph(g, s)
        assert fast == morse_oracle(g, s)
        assert fast == brute_is_morse_subset(g, s)


@pytest.mark.parametrize("seed", range(4))
def test_pruned_count_matches_filtered_enumeration(seed):
    # the production counter never materializes non-Morse cycles; hold it
    # equal to the filter-everything route at a size past the small corpus
    g = sample_gnp(30, 0.18, trial_seed(1130, seed))
    for k in (5, 6):
        brute = sum(
            1 for w in enumerate_induced_cycles(g, k) if is_morse_cycle(g, w)
        )
        assert count_morse_cycles(g, k) == brute


@pytest.mark.parametrize("seed", range(6))
def test_cycle_check_agrees_with_subset_check(seed):
    # is_morse_cycle delegates to is_morse_subgraph; hold it to the oracle
    g = sample_gnp(11, 0.4, trial_seed(135, seed))
    for k in range(4, 12):
        for witness in enumerate_induced_cycles(g, k):
            assert is_morse_cycle(g, witness) == morse_oracle(g, witness.vertices)


@pytest.mark.parametrize("seed", range(6))
def test_morse_square_equals_isolated_square_vertex(seed):
    g = sample_gnp(18, 0.3, trial_seed(864, seed))
    sq = build_square_graph(g)
    index = {square: i for i, square in enumerate(sq.squares)}
    isolated = set()
    for i, square in enumerate(sq.squares):
        d1, d2 = (
            tuple(sorted((square[0], square[2]))),
            tuple(sorted((square[1], square[3]))),
        )
        if len(sq.diagonal_index[d1]) == 1 and len(sq.diagonal_index[d2]) == 1:
            isolated.add(i)
    for witness, _ in enumerate_induced_squares(g):
        assert is_morse_cycle(g, witness) == (index[witness.vertices] in isolated)
    assert isolated_count(sq) == count_morse_cycles(g, 4)
