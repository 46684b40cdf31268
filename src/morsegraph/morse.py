"""The Morse predicate for induced subgraphs and cycles.

A vertex set S is Morse when every induced 4-cycle that meets S in a pair
of non-adjacent vertices lies entirely inside S.  Two non-adjacent vertices
of an induced square are always one of its diagonals, and conversely any
non-adjacent pair u, w together with a non-adjacent pair x, y of common
neighbors spans an induced square with diagonals {u, w} and {x, y}.  The
production check therefore never materializes squares: it scans
non-adjacent pairs inside S and inspects their common neighborhoods
directly.  ``morse_oracle`` is a deliberately literal re-implementation
over a square list of its own, built from Python sets of neighbors, kept
as an independent cross-check of both this check and the diagonal scans.
A square is Morse exactly when it is an isolated vertex of the square
graph.  Morse cycles of every length are counted from the one stream that
also answers the search, ``cycles._morse_cycles``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .cycles import CycleWitness, _morse_cycles, as_witness
from .errors import InvalidParameter
from .graph import Graph, iter_bits, vertex_mask


def is_morse_subgraph(g: Graph, s: Iterable[int]) -> bool:
    """True iff the induced subgraph on ``s`` is Morse in ``g``.

    Pairwise form of the definition: for every non-adjacent pair
    ``u, w`` in ``s`` and every non-adjacent pair ``x, y`` of their common
    neighbors, both ``x`` and ``y`` must lie in ``s``.  Sets with no
    non-adjacent pair (cliques, singletons, the empty set) are vacuously
    Morse.  Scans pairs in lexicographic order and exits on the first
    violation.
    """
    smask = vertex_mask(g, s)
    rows = g.rows
    for u in iter_bits(smask):
        others = (smask >> (u + 1)) << (u + 1)
        for w in iter_bits(others & ~rows[u]):
            m = rows[u] & rows[w]
            # Any member outside s must be adjacent to every other member,
            # otherwise it forms a non-adjacent common pair leaving s.
            for x in iter_bits(m & ~smask):
                if m & ~rows[x] != 1 << x:
                    return False
    return True


def is_morse_cycle(g: Graph, c: "CycleWitness | Sequence[int]") -> bool:
    """True iff the induced cycle ``c`` is a Morse subgraph of ``g``.

    This is the definition, :func:`is_morse_subgraph` on the cycle's vertex
    set.  For k >= 5 it amounts to every non-adjacent pair of cycle vertices
    having a clique as common neighborhood; for k = 4 to each diagonal's
    bucket holding only the other diagonal (the square is an isolated vertex
    of the square graph).  Neither shortcut is used here, so the scans built
    on them can be checked against this function.

    Raises ``InvalidWitness`` when ``c`` is not an induced cycle of ``g``.
    """
    return is_morse_subgraph(g, as_witness(g, c).vertices)


def morse_oracle(g: Graph, s: Iterable[int]) -> bool:
    """Literal restatement of the Morse condition over all induced squares.

    Lists every induced 4-cycle of ``g`` from Python sets of neighbors -- a
    non-adjacent pair ``u, w`` and a non-adjacent pair ``x, y`` of their
    common neighbors span the square u-x-w-y -- and demands that each one
    whose intersection with ``s`` contains a non-adjacent pair is entirely
    contained in ``s``.  Shares no logic with :func:`is_morse_subgraph` or
    with the diagonal scans of :mod:`morsegraph.cycles`; exists to
    cross-validate them.
    """
    sset = frozenset(s)
    for x in sset:
        g.check_vertex(x)
    n = g.n
    nbrs = [{w for w in range(n) if (row >> w) & 1} for row in g.rows]
    for u in range(n):
        for w in range(u + 1, n):
            if w in nbrs[u]:
                continue
            for x, y in combinations(sorted(nbrs[u] & nbrs[w]), 2):
                if y in nbrs[x]:
                    continue
                inside = [v for v in (u, x, w, y) if v in sset]
                has_non_adjacent = any(
                    b not in nbrs[a] for a, b in combinations(inside, 2)
                )
                if has_non_adjacent and len(inside) != 4:
                    return False
    return True


def count_morse_cycles(g: Graph, k: int, *, budget: int | None = None) -> int:
    """Number of induced k-cycles of ``g`` that are Morse: the k-cycles of
    :func:`~morsegraph.cycles._morse_cycles`, the stream behind the Morse
    search, whose ``budget`` meters the DFS for k >= 5.
    """
    if k < 4:
        raise InvalidParameter(f"Morse cycles have k >= 4, got k={k}")
    return sum(1 for _ in _morse_cycles(g, k, k, budget))
