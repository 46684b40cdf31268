"""The square graph of a host graph: components, isolated vertices, CFS.

The square graph has one vertex per induced 4-cycle of the host; two
squares are adjacent iff they share a diagonal pair.  Sharing a diagonal is
equivalent to the vertex intersection containing a non-adjacent pair: any
non-adjacent pair inside an induced square is one of its diagonals, and two
distinct squares cannot share both diagonals (the diagonal pair determines
the square).  Components are therefore computed by uniting all squares
within each diagonal bucket, never materializing the possibly quadratic
edge set.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

from .cycles import CycleWitness, _diagonal_bucket, _diagonal_candidates, enumerate_induced_squares
from .errors import CapacityExceeded, InvalidParameter
from .graph import Graph, PathLike, VertexSet

DEFAULT_SQUARE_CAP = 10**7

Pair = tuple[int, int]
Square = tuple[int, int, int, int]


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # deterministic: smaller index wins, keeping component ids stable
            if ri > rj:
                ri, rj = rj, ri
            self.parent[rj] = ri


@dataclass
class SquareGraph:
    """The square graph of ``host_n`` vertices' host, in diagonal-bucket form.

    ``squares[i]`` is the i-th induced 4-cycle in canonical order;
    ``diagonal_index`` maps each diagonal pair to the square indices having
    it as a diagonal.  Every square appears in exactly two buckets.
    Components are computed lazily, once, and cached; the instance is
    otherwise immutable and safe to query concurrently.
    """

    host_n: int
    squares: tuple[Square, ...]
    diagonal_index: dict[Pair, tuple[int, ...]]
    _components: tuple[tuple[tuple[int, ...], VertexSet], ...] | None = field(
        default=None, repr=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __len__(self) -> int:
        return len(self.squares)


def build_square_graph(g: Graph, *, cap: int = DEFAULT_SQUARE_CAP) -> SquareGraph:
    """Collect all induced 4-cycles of ``g`` with their diagonal index.

    Aborts with ``CapacityExceeded`` once more than ``cap`` squares exist;
    the structure is never silently truncated.
    """
    squares: list[Square] = []
    index: dict[Pair, list[int]] = {}
    for witness, (d1, d2) in enumerate_induced_squares(g):
        if len(squares) >= cap:
            raise CapacityExceeded(f"square count exceeded cap ({cap})")
        i = len(squares)
        squares.append(witness.vertices)
        index.setdefault(d1, []).append(i)
        index.setdefault(d2, []).append(i)
    frozen = {pair: tuple(members) for pair, members in index.items()}
    return SquareGraph(host_n=g.n, squares=tuple(squares), diagonal_index=frozen)


def isolated_count(sq: SquareGraph) -> int:
    """Number of squares adjacent to no other square in the square graph.

    A square is isolated iff both of its diagonal buckets are singletons.
    """
    index = sq.diagonal_index
    count = 0
    for a, b, c, d in sq.squares:
        d1 = (a, c) if a < c else (c, a)
        d2 = (b, d) if b < d else (d, b)
        if len(index[d1]) == 1 and len(index[d2]) == 1:
            count += 1
    return count


def components(sq: SquareGraph) -> tuple[tuple[tuple[int, ...], VertexSet], ...]:
    """Connected components under shared-diagonal adjacency.

    Returns ``(square_indices, support)`` pairs, where the support is the
    union of the component's squares' vertices.  Ordered by each
    component's minimal square index.  Memoized after the first call.
    """
    if sq._components is not None:
        return sq._components
    with sq._lock:
        if sq._components is not None:
            return sq._components
        uf = _UnionFind(len(sq.squares))
        for members in sq.diagonal_index.values():
            first = members[0]
            for other in members[1:]:
                uf.union(first, other)
        groups: dict[int, list[int]] = {}
        for i in range(len(sq.squares)):
            groups.setdefault(uf.find(i), []).append(i)
        result = []
        for root in sorted(groups):
            indices = tuple(groups[root])
            support = frozenset(v for i in indices for v in sq.squares[i])
            result.append((indices, support))
        sq._components = tuple(result)
    return sq._components


def is_cfs(g: Graph, sq: SquareGraph) -> bool:
    """True iff some square-graph component's support covers every vertex of ``g``.

    A disconnected host or an empty square graph yields ``False``; there is
    no cone-vertex quotient here, the support must equal the full vertex
    set.
    """
    if sq.host_n != g.n:
        raise InvalidParameter("square graph was built from a different host")
    if g.n == 0:
        return False
    full = frozenset(range(g.n))
    return any(support == full for _, support in components(sq))


def is_square_graph_connected(sq: SquareGraph) -> bool:
    """True iff the square graph has exactly one connected component.

    The empty square graph reports ``False``; callers that need to tell
    "empty" apart from "disconnected" should also test ``len(sq) == 0``.
    """
    return len(components(sq)) == 1


def has_isolated_square(g: Graph) -> Square | None:
    """Early-exit scan for an isolated square-graph vertex of ``g``.

    Returns one isolated square (as its canonical 4-tuple) or ``None``.
    A square is isolated iff each of its diagonals' buckets holds only the
    other diagonal, so the scan takes each candidate diagonal ``(u, w)``
    whose bucket is a single pair ``(x, y)`` and tests the bucket of
    ``(x, y)`` for being exactly ``(u, w)``.  Equivalent to
    ``isolated_count(build_square_graph(g)) > 0`` but stops at the first hit
    and never stores the square list.
    """
    for u, w in _diagonal_candidates(g):
        bucket = _diagonal_bucket(g, u, w, 2)
        if len(bucket) != 1:
            continue
        x, y = bucket[0]
        reciprocal_ok = _diagonal_bucket(g, x, y, 2) == [(u, w)]
        if reciprocal_ok:
            return CycleWitness.from_cycle((u, x, w, y)).vertices
    return None


def square_graph_edges(sq: SquareGraph) -> list[Pair]:
    """Materialized edge list of the square graph (index pairs, sorted).

    Distinct squares share at most one diagonal, so bucket expansion never
    produces a duplicate pair.
    """
    edges: list[Pair] = []
    for members in sq.diagonal_index.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                edges.append((a, b) if a < b else (b, a))
    edges.sort()
    return edges


def dump_square_graph(sq: SquareGraph, dest: PathLike) -> str:
    """Write the square graph as an edge list plus a companion JSON map.

    The edge list (same text format as host graphs) goes to ``dest``; the
    mapping from square index to its four host vertices goes to
    ``dest + ".json"``.  Returns the companion path.
    """
    edges = square_graph_edges(sq)
    with open(dest, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{len(sq.squares)} {len(edges)}\n")
        for a, b in edges:
            fh.write(f"{a} {b}\n")
    companion = f"{dest}.json"
    mapping = {str(i): list(square) for i, square in enumerate(sq.squares)}
    with open(companion, "w", encoding="ascii") as fh:
        json.dump(mapping, fh, separators=(",", ":"))
        fh.write("\n")
    return companion
