"""The square graph of a host graph: components, isolated vertices, CFS.

The square graph has one vertex per induced 4-cycle of the host; two
squares are adjacent iff they share a diagonal pair.  Sharing a diagonal is
equivalent to the vertex intersection containing a non-adjacent pair: any
non-adjacent pair inside an induced square is one of its diagonals, and two
distinct squares cannot share both diagonals (the diagonal pair determines
the square).  So the square graph is kept as numpy arrays in diagonal-bucket
form; its possibly quadratic edge set is built only for a dump.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .cycles import (
    _adjacent, _candidate_blocks, _diagonal_bucket, _lowest_gaps, _packed_rows, _ranges,
    _square_blocks,
)
from .errors import CapacityExceeded, InvalidParameter, _integer
from .graph import Graph, PathLike

DEFAULT_SQUARE_CAP = 10**7


@dataclass(eq=False)
class SquareGraph:
    """The square graph of a host on ``host_n`` vertices, as arrays.

    Row i of ``squares`` is the i-th induced 4-cycle ``(u, x, w, y)``,
    canonical, in lexicographic order of ``(u, w, x, y)``; ``diagonal_index``
    lists the distinct diagonals in lexicographic order, and row i of
    ``square_diagonals`` the ids in it of ``(u, w)`` and ``(x, y)``.  A
    diagonal's bucket is the set of squares having it.  Derived arrays are
    computed on first request and cached on the instance.
    """

    host_n: int
    squares: np.ndarray
    diagonal_index: np.ndarray
    square_diagonals: np.ndarray

    def __len__(self) -> int:
        return len(self.squares)

    @cached_property
    def bucket_sizes(self) -> np.ndarray:
        """Number of squares on each diagonal, indexed like ``diagonal_index``."""
        return np.bincount(self.square_diagonals.ravel(), minlength=len(self.diagonal_index))

    @cached_property
    def labels(self) -> np.ndarray:
        """The least square id in each square's component.

        ``members[j]`` holds slot ``head + j``, ``head`` a bucket's first, of
        each of the ``counts[j]`` buckets of more than j squares by decreasing
        size, so it is aligned with the start of ``members[0]``: each
        bucket's later squares are united with its first.
        """
        order = _argsort(self.square_diagonals.ravel())[0]  # square slots by bucket
        sizes = self.bucket_sizes
        top = sizes.max(initial=0)
        by_size, shortfall = _argsort(top - sizes)
        counts = np.searchsorted(shortfall, top - np.arange(top))
        del shortfall  # not held through the unions
        slots = (np.cumsum(sizes) - sizes)[by_size][_ranges(np.zeros_like(counts), counts)]
        slots += np.repeat(np.arange(len(counts)), counts)  # head + j
        members = np.split(order[slots] // 2, np.cumsum(counts)[:-1])
        del order, slots, by_size  # none is held through the unions
        edges = [np.empty((0, 2), dtype=np.intp)]
        for other in members[1:]:
            edges.append(np.stack([members[0][: len(other)], other], axis=1))
        del members
        a, b = np.concatenate(edges).T
        del edges
        label = np.arange(len(self))
        while len(a):
            # min-label propagation: hook the larger root of each edge onto
            # the smaller, then jump every label to its root
            la, lb = label[a], label[b]
            live = la != lb
            a, b, la, lb = a[live], b[live], la[live], lb[live]
            np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
            while not np.array_equal(label, jumped := label[label]):
                label = jumped
        return label

    @cached_property
    def supports(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct ``(label, vertex)`` pairs: a component's support is
        the union of its diagonals' endpoints."""
        diagonal_label = np.empty(len(self.diagonal_index), dtype=np.intp)
        diagonal_label[self.square_diagonals] = self.labels[:, None]
        n = max(self.host_n, 1)
        keys = np.sort((diagonal_label[:, None] * n + self.diagonal_index).ravel())
        keys = keys[np.diff(keys, prepend=-1) != 0]
        return keys // n, keys % n


def build_square_graph(g: Graph, *, cap: int = DEFAULT_SQUARE_CAP) -> SquareGraph:
    """Collect all induced 4-cycles of ``g`` with their diagonals.

    Aborts with ``CapacityExceeded`` once more than ``cap`` squares exist;
    the structure is never silently truncated.  The count is checked after
    every piece of candidate diagonals, so at most one piece's squares are
    built past the cap.
    """
    cap = _integer("cap", cap, 0)
    blocks, count = [np.empty((0, 4), dtype=np.intp)], 0
    for block in _square_blocks(g):
        count += len(block)
        if count > cap:
            raise CapacityExceeded(f"square count exceeded cap ({cap})")
        blocks.append(block)
    squares = np.concatenate(blocks)
    del blocks
    # the diagonals (u, w) and (x, y) of each square as keys a * n + b, in
    # order; a diagonal's id is the number of distinct keys before it
    n = max(g.n, 1)
    order, keys = _argsort((squares[:, :2] * n + squares[:, 2:]).ravel())
    first = np.diff(keys, prepend=-1) != 0
    ids = np.empty_like(order)
    ids[order] = np.cumsum(first) - 1
    keys = keys[first]
    return SquareGraph(g.n, squares, np.stack([keys // n, keys % n], axis=1), ids.reshape(-1, 2))


def _argsort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, keys[order])`` for non-negative integer ``keys``: a stable
    argsort and the sorted keys, from one in-place ``np.sort`` of int64 words
    that hold each key above its index (a plain sort is several times faster
    than an argsort).  Keys too wide to share 63 bits with the index raise
    ``CapacityExceeded``; the diagonal keys of ``build_square_graph`` fit
    for hosts of up to 2**19 vertices at the default cap.
    """
    b = (len(keys) - 1).bit_length()
    if int(keys.max(initial=0)).bit_length() + b > 63:
        raise CapacityExceeded(f"sort keys up to {keys.max()} do not fit in {63 - b} bits")
    order = np.arange(len(keys))
    words = keys.astype(np.int64)
    words <<= b
    words |= order
    words.sort()
    np.bitwise_and(words, (1 << b) - 1, out=order)
    words >>= b
    return order, words


def isolated_count(sq: SquareGraph) -> int:
    """Number of isolated square-graph vertices: squares whose two buckets are singletons."""
    return int(np.count_nonzero((sq.bucket_sizes[sq.square_diagonals] == 1).all(axis=1)))


def components(sq: SquareGraph) -> np.ndarray:
    """Each shared-diagonal component's least square id, in increasing order.

    That square is the only one its component labels with itself; the
    component's squares are those of ``sq.labels`` equal to it, and its
    support, the union of their vertices, is its rows of ``sq.supports``.
    """
    return np.flatnonzero(sq.labels == np.arange(len(sq)))


def is_cfs(g: Graph, sq: SquareGraph) -> bool:
    """True iff some square-graph component's support covers every vertex of ``g``.

    A disconnected host or an empty square graph yields ``False``; there is no
    cone-vertex quotient here, the support must equal the full vertex set.
    """
    if sq.host_n != g.n:
        raise InvalidParameter("square graph was built from a different host")
    full = frozenset(range(g.n))
    labels, vertices = sq.supports
    widest = np.flatnonzero(np.bincount(labels) == g.n)
    return any(frozenset(vertices[labels == c].tolist()) == full for c in widest)


def is_square_graph_connected(sq: SquareGraph) -> bool:
    """True iff :func:`components` finds exactly one component.

    The empty square graph has none, so it reports ``False``; callers that
    need to tell "empty" apart from "disconnected" also test ``len(sq) == 0``.
    """
    return len(components(sq)) == 1


def isolated_squares(g: Graph) -> Iterator[tuple[int, int, int, int]]:
    """Every isolated square-graph vertex of ``g`` once, as a canonical 4-tuple.

    A square is isolated iff each of its diagonals' buckets holds only the
    other diagonal, so the scan takes each candidate diagonal ``(u, w)``
    whose bucket is a single pair ``(x, y)`` above it and tests the bucket
    of ``(x, y)`` for being exactly ``(u, w)``.  The non-adjacent pairs among
    a candidate's three lowest common neighbors lie in its bucket, so a numpy
    test over each piece of candidates first drops those with two or more of
    them.  A candidate with exactly two common neighbors ``x1 < x2`` has the
    bucket ``(x1, x2)`` if they are non-adjacent and none if not, so it is
    kept only with that bucket above it, ``x1 > u``.  One with three or
    more reads, in numpy, the rows of ``x1`` and ``x2`` over its common
    neighborhood: each non-adjacent pair through either is a pair of its
    bucket, and it is dropped with two or more.  Only the rest read their
    buckets, one at a time, in Python.  A square comes from its smaller
    diagonal, where ``u < x < y``, so ``(u, x, w, y)`` is canonical; squares
    come in the order of ``enumerate_induced_squares``.
    These are exactly the Morse squares of ``g``.
    """
    packed = _packed_rows(g)
    rows = packed.view(np.uint64)
    for us, ws in _candidate_blocks(packed):
        gaps, x1, x2, third = _lowest_gaps(packed, us, ws)
        keep = np.where(third, gaps <= 1, (gaps == 1) & (x1 > us))
        kept = np.flatnonzero(keep & third)
        common = rows[us[kept]] & rows[ws[kept]]
        # the pairs (x1, y) and (x2, y) of the bucket, (x1, x2) counted once
        pairs = sum(np.bitwise_count(common & ~rows[x[kept]]).sum(axis=1, dtype=np.intp) - 1
                    for x in (x1, x2)) - ~_adjacent(packed, x1[kept], x2[kept])
        keep[kept[pairs > 1]] = False
        del common  # not held through the reads or the next piece
        for u, w, x, y, more in zip(*(a[keep].tolist() for a in (us, ws, x1, x2, third))):
            if more:
                bucket = _diagonal_bucket(g, u, w, 2)
                if len(bucket) != 1 or bucket[0] < (u, w):
                    continue
                x, y = bucket[0]
            reciprocal_ok = _diagonal_bucket(g, x, y, 2) == [(u, w)]
            if reciprocal_ok:
                yield u, x, w, y


def has_isolated_square(g: Graph) -> tuple[int, int, int, int] | None:
    """The first of :func:`isolated_squares`, or ``None``."""
    return next(isolated_squares(g), None)


def square_graph_edges(sq: SquareGraph) -> np.ndarray:
    """Edge array of the square graph: index pairs ``a < b``, sorted.

    Each pair of squares in a bucket is an edge; distinct squares share at
    most one diagonal, so no pair occurs twice.
    """
    members = _argsort(sq.square_diagonals.ravel())[0] // 2  # grouped by bucket
    later = np.repeat(np.cumsum(sq.bucket_sizes), sq.bucket_sizes) - np.arange(len(members)) - 1
    second = members[_ranges(np.arange(1, len(members) + 1), later)]
    edges = np.sort(np.stack([np.repeat(members, later), second], axis=1), axis=1)
    return edges[np.lexsort(edges.T[::-1])]


def dump_square_graph(sq: SquareGraph, dest: PathLike) -> str:
    """Write the square graph as an edge list plus a companion JSON map.

    The edge list (same text format as host graphs) goes to ``dest``; the
    mapping from square index to its four host vertices goes to
    ``dest + ".json"``.  Returns the companion path.
    """
    edges = square_graph_edges(sq)
    with open(dest, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{len(sq)} {len(edges)}\n")
        for chunk in np.array_split(edges, len(edges) // 2**16 + 1):
            fh.writelines(f"{a} {b}\n" for a, b in chunk.tolist())
    companion = f"{dest}.json"
    mapping = {str(i): square for i, square in enumerate(sq.squares.tolist())}
    with open(companion, "w", encoding="ascii") as fh:
        json.dump(mapping, fh, separators=(",", ":"))
        fh.write("\n")
    return companion
