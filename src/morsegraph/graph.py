"""Immutable simplicial graphs on dense integer vertices.

Adjacency is stored as one bitmask per vertex (arbitrary-precision Python
ints used as bitsets), which keeps neighborhood intersection, clique
testing, and induced-square detection cheap for vertex counts well past
4096.  All operations are read-only; a ``Graph`` never changes after
construction, so instances may be shared freely across threads and
processes.
"""

from __future__ import annotations

import os
from typing import IO, Iterable, Iterator, TypeAlias, Union

from .errors import EdgeListFormatError, InvalidEdge, VertexOutOfRange

VertexSet: TypeAlias = frozenset[int]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A finite simplicial graph on vertices ``0..n-1``.

    No loops, no multi-edges, undirected.  ``rows[v]`` is the neighbor
    bitset of ``v``; bit ``u`` of ``rows[v]`` is set iff ``{u, v}`` is an
    edge.  Rows are symmetric and irreflexive by construction.

    >>> g = build_graph(3, [(0, 1), (1, 2)])
    >>> g.m
    2
    >>> sorted(g.edges())
    [(0, 1), (1, 2)]
    """

    __slots__ = ("n", "m", "rows")

    def __init__(self, n: int, rows: tuple[int, ...], m: int):
        self.n = n
        self.rows = rows
        self.m = m

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in 0..{self.n - 1}")

    def adjacent(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` is an edge."""
        self.check_vertex(u)
        self.check_vertex(v)
        return bool((self.rows[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as pairs ``(u, v)`` with ``u < v``, lexicographically."""
        for u in range(self.n):
            high = self.rows[u] >> (u + 1)
            for off in iter_bits(high):
                yield (u, u + 1 + off)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build an immutable graph on ``0..n-1`` from an unordered edge list.

    Duplicate pairs collapse to a single edge.  Raises ``InvalidEdge`` for
    self-loops and ``VertexOutOfRange`` for endpoints outside ``0..n-1``.
    """
    if n < 0:
        raise VertexOutOfRange(f"vertex count must be non-negative, got {n}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise InvalidEdge(f"self-loop at vertex {u}")
        if not 0 <= u < n:
            raise VertexOutOfRange(f"vertex {u} not in 0..{n - 1}")
        if not 0 <= v < n:
            raise VertexOutOfRange(f"vertex {v} not in 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    m = sum(row.bit_count() for row in rows) // 2
    return Graph(n, tuple(rows), m)


def vertex_mask(g: Graph, s: Iterable[int]) -> int:
    """Bitset of a vertex collection, validating membership in ``0..n-1``."""
    mask = 0
    for v in s:
        g.check_vertex(v)
        mask |= 1 << v
    return mask


def is_clique_mask(g: Graph, mask: int) -> bool:
    """True iff the vertices of ``mask`` are pairwise adjacent."""
    rest = mask
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        if mask & ~g.rows[x] != low:
            return False
        rest ^= low
    return True


# ---------------------------------------------------------------------------
# Edge-list text format
#
# Line 1: "n m".  Then m lines "u v" with u < v, decimal ASCII, one space,
# LF-terminated, sorted lexicographically on write.  Readers accept unsorted
# lines and reversed pairs.
# ---------------------------------------------------------------------------

PathLike = Union[str, os.PathLike]


def write_edge_list(g: Graph, dest: Union[PathLike, IO[str]]) -> None:
    """Write ``g`` in the edge-list text format (sorted, LF-terminated)."""
    if hasattr(dest, "write"):
        _write_edge_list(g, dest)  # type: ignore[arg-type]
    else:
        with open(dest, "w", encoding="ascii", newline="\n") as fh:
            _write_edge_list(g, fh)


def _write_edge_list(g: Graph, fh: IO[str]) -> None:
    fh.write(f"{g.n} {g.m}\n")
    for u, v in g.edges():
        fh.write(f"{u} {v}\n")


def read_edge_list(src: Union[PathLike, IO[str]]) -> Graph:
    """Parse the edge-list text format back into a ``Graph``.

    Accepts edges in any order and either endpoint order.  Raises
    ``EdgeListFormatError`` for malformed text and propagates
    ``InvalidEdge`` / ``VertexOutOfRange`` for semantically bad pairs.
    """
    if hasattr(src, "read"):
        return _read_edge_list(src)  # type: ignore[arg-type]
    with open(src, "r", encoding="ascii") as fh:
        return _read_edge_list(fh)


def _read_edge_list(fh: IO[str]) -> Graph:
    header = fh.readline()
    if not header:
        raise EdgeListFormatError("empty input")
    parts = header.split()
    if len(parts) != 2:
        raise EdgeListFormatError(f"header must be 'n m', got {header.rstrip()!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise EdgeListFormatError(f"non-integer header {header.rstrip()!r}") from exc
    if n < 0 or m < 0:
        raise EdgeListFormatError(f"negative counts in header {header.rstrip()!r}")
    edges = []
    for lineno, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"line {lineno}: expected 'u v', got {line.rstrip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EdgeListFormatError(f"line {lineno}: non-integer vertex") from exc
        if u > v:
            u, v = v, u
        edges.append((u, v))
    if len(edges) != m:
        raise EdgeListFormatError(f"header promised {m} edges, found {len(edges)}")
    g = build_graph(n, edges)
    if g.m != m:
        raise EdgeListFormatError(f"header promised {m} distinct edges, found {g.m}")
    return g
