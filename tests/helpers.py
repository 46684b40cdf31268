"""Independent oracles and fixture graphs for the test suite.

The oracles here deliberately avoid the package's fast paths: cycles are
found by trying every subset and ordering, squares by trying every 4-subset
pairing, and the Morse condition is restated directly from induced squares.
"""

from itertools import combinations, permutations

from morsegraph import Graph, build_graph


def canonical_cycle(seq):
    """Rotation/reflection-normal form: min vertex first, smaller neighbor second."""
    seq = tuple(seq)
    i = seq.index(min(seq))
    rotated = seq[i:] + seq[:i]
    if rotated[1] >= rotated[-1]:
        rotated = rotated[:1] + rotated[1:][::-1]
    return rotated


def brute_induced_cycles(g: Graph, k: int) -> set[tuple[int, ...]]:
    """All induced k-cycles by exhaustive subset/ordering search."""
    found = set()
    for subset in combinations(range(g.n), k):
        for perm in permutations(subset):
            ok = True
            for i in range(k):
                for j in range(i + 1, k):
                    consecutive = (j - i == 1) or (i == 0 and j == k - 1)
                    if g.adjacent(perm[i], perm[j]) != consecutive:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.add(canonical_cycle(perm))
    return found


def brute_induced_squares(g: Graph) -> set[tuple[int, ...]]:
    """All induced 4-cycles by checking the three pairings of each 4-subset."""
    found = set()
    for quad in combinations(range(g.n), 4):
        a, b, c, d = quad
        for cycle in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            edges_ok = all(
                g.adjacent(cycle[i], cycle[(i + 1) % 4]) for i in range(4)
            )
            diagonals_absent = not g.adjacent(cycle[0], cycle[2]) and not g.adjacent(
                cycle[1], cycle[3]
            )
            if edges_ok and diagonals_absent:
                found.add(canonical_cycle(cycle))
    return found


def neighbor_set_squares(g: Graph) -> set[tuple[int, ...]]:
    """All induced 4-cycles from Python sets of neighbors, for graphs too
    large for the 4-subset search: a non-adjacent pair u, w and a
    non-adjacent pair x, y of their common neighbors span the square u-x-w-y."""
    nbrs = [{v for v in range(g.n) if g.adjacent(u, v)} for u in range(g.n)]
    found = set()
    for u, w in combinations(range(g.n), 2):
        if w in nbrs[u]:
            continue
        for x, y in combinations(sorted(nbrs[u] & nbrs[w]), 2):
            if y not in nbrs[x]:
                found.add(canonical_cycle((u, x, w, y)))
    return found


def brute_is_morse_subset(g: Graph, s) -> bool:
    """Morse condition restated verbatim over brute-forced squares."""
    inside = set(s)
    for square in brute_induced_squares(g):
        meet = [v for v in square if v in inside]
        has_non_adjacent = any(
            not g.adjacent(a, b) for a, b in combinations(meet, 2)
        )
        if has_non_adjacent and len(meet) != 4:
            return False
    return True


# ---------------------------------------------------------------------------
# Fixture graphs
# ---------------------------------------------------------------------------


def cycle_graph(k: int) -> Graph:
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def pentagon_with_apex(*apex_neighbors: int) -> Graph:
    """C5 on 0..4 plus vertex 5 joined to the given cycle vertices."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, v) for v in apex_neighbors]
    return build_graph(6, edges)


def petersen() -> Graph:
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return build_graph(10, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def two_disjoint_squares() -> Graph:
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
    return build_graph(8, edges)
