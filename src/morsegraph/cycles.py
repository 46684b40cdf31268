"""Induced-cycle enumeration and one stream of the Morse cycles.

Enumeration is a DFS over induced paths anchored at each cycle's minimum
vertex, extending only to vertices greater than the anchor; together with
the reflection rule ``v2 < vk`` this emits every induced k-cycle exactly
once, already in canonical form, without post-hoc deduplication.

Induced squares come from diagonal buckets: the bucket of a non-adjacent
pair {u, w} is the set of non-adjacent pairs inside N(u) & N(w), and each
pair {x, y} in it spans the square u-x-w-y.  Only pairs with at least two
common neighbors can have a non-empty bucket; ``_candidate_blocks`` yields
them as index arrays in lexicographic order, filtered by a matrix product
over one block of adjacency rows at a time, in pieces of at most
``_PAIR_CHUNK`` pairs.  Two kinds of consumer read these pieces.
``_square_blocks`` lists every square of a piece at once as a ``(k, 4)``
array: each candidate gathers its neighbors from CSR neighbor lists, keeps
the common ones, and pairs the non-adjacent ones.  The isolated-square scan
of ``squares`` turns each piece into Python pairs, stops early and reads one
bucket at a time through ``_diagonal_bucket``.  A square is emitted from its
smaller diagonal, which makes its vertex order canonical as built.

``_morse_cycles`` yields every Morse cycle in a length range once; the
Morse search takes its first cycle and ``morse.count_morse_cycles`` counts
them.  A square is Morse exactly when it is an isolated vertex of the
square graph, both of its diagonal buckets holding only the other diagonal,
so length 4 comes from the isolated-square scan,
``squares.isolated_squares``.  Lengths >= 5 come from a pruned DFS resting
on the pair condition (Tran, "On strongly quasiconvex subgroups",
Geom. Topol. 2019): a cycle of length at least 5 is Morse exactly when
every pair of its vertices that is non-adjacent in the host has a clique
as common neighborhood (an empty bucket).  The test does not depend on the
rest of the cycle, so its answers are kept in per-vertex bitsets --
``known[u]``, the vertices tested against ``u``, and ``bad[u]``, those that
failed -- filled lazily, only for the bits a query asks for.  When a vertex
is pushed onto the path, the candidates that would extend or close it are
masked once against each middle path vertex (and extending candidates
against the anchor), so popping a candidate costs one bit test and a failed
pair cuts every branch through it.  A path of L vertices closes an
(L + 1)-cycle, so paths stop growing at kmax - 1 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidParameter, InvalidWitness, SearchBudgetExceeded
from .graph import Graph, is_clique_mask, iter_bits

DEFAULT_SEARCH_BUDGET = 10**8

# Matrix entries per row block of the diagonal-candidate filter.
_BLOCK_CELLS = 2**18
# Candidate pairs per piece of ``_candidate_blocks``.
_PAIR_CHUNK = 2**12


@dataclass(frozen=True, order=True)
class CycleWitness:
    """An induced k-cycle, stored in canonical vertex order.

    Canonical form: the minimum vertex comes first and its smaller cycle
    neighbor second (``vertices[1] < vertices[-1]``), which fixes rotation
    and reflection.  Adjacency constraints are checked against a host graph
    by :meth:`verify`.
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        v = self.vertices
        if len(v) < 3:
            raise InvalidWitness(f"cycle needs at least 3 vertices, got {v!r}")
        if len(set(v)) != len(v):
            raise InvalidWitness(f"cycle vertices must be distinct, got {v!r}")
        if v[0] != min(v) or v[1] >= v[-1]:
            raise InvalidWitness(f"{v!r} is not in canonical cycle order")

    @classmethod
    def from_cycle(cls, seq: Sequence[int]) -> "CycleWitness":
        """Canonicalize any rotation/reflection of a cycle's vertex order."""
        seq = tuple(seq)
        if len(seq) < 3:
            raise InvalidWitness(f"cycle needs at least 3 vertices, got {seq!r}")
        i = seq.index(min(seq))
        rotated = seq[i:] + seq[:i]
        if rotated[1] >= rotated[-1]:
            rotated = rotated[:1] + rotated[1:][::-1]
        return cls(rotated)

    @property
    def k(self) -> int:
        return len(self.vertices)

    def verify(self, g: Graph) -> None:
        """Raise ``InvalidWitness`` unless this is an induced cycle of ``g``."""
        v = self.vertices
        k = len(v)
        for x in v:
            if not 0 <= x < g.n:
                raise InvalidWitness(f"vertex {x} outside host graph of size {g.n}")
        rows = g.rows
        for i in range(k):
            for j in range(i + 1, k):
                consecutive = j - i == 1 or (i == 0 and j == k - 1)
                edge = bool((rows[v[i]] >> v[j]) & 1)
                if consecutive and not edge:
                    raise InvalidWitness(f"missing cycle edge ({v[i]}, {v[j]}) in {v!r}")
                if not consecutive and edge:
                    raise InvalidWitness(f"chord ({v[i]}, {v[j]}) in {v!r}")


def as_witness(g: Graph, c: "CycleWitness | Sequence[int]") -> CycleWitness:
    """Coerce a vertex sequence to a verified canonical witness for ``g``."""
    witness = c if isinstance(c, CycleWitness) else CycleWitness.from_cycle(c)
    witness.verify(g)
    return witness


def enumerate_induced_cycles(g: Graph, k: int) -> Iterator[CycleWitness]:
    """Yield every induced k-cycle of ``g`` exactly once, in canonical form.

    Emission order is deterministic: lexicographic on the canonical vertex
    tuples.  The generator is lazy; consumers may stop early.
    """
    if k < 3:
        raise InvalidParameter(f"cycle length must be >= 3, got k={k}")
    return _induced_cycle_dfs(g, k)


def _induced_cycle_dfs(g: Graph, k: int) -> Iterator[CycleWitness]:
    n, rows = g.n, g.rows
    for a in range(n - k + 1):
        ra = rows[a]
        high = -1 << (a + 1)
        path = [a]
        path_mask = 1 << a
        mids = [0]
        iters = [iter_bits(ra & high)]
        while iters:
            x = next(iters[-1], -1)
            if x < 0:
                iters.pop()
                mids.pop()
                path_mask ^= 1 << path.pop()
                continue
            length = len(path)
            if length == k - 1:
                # x closes the cycle; reflection rule picks one orientation
                if path[1] < x:
                    yield CycleWitness(tuple(path) + (x,))
                continue
            # push x; the old last vertex becomes a middle of the longer path
            new_mid = mids[-1] | (rows[path[-1]] if length >= 2 else 0)
            path.append(x)
            path_mask |= 1 << x
            mids.append(new_mid)
            if length + 1 == k - 1:
                cand = rows[x] & ra & high & ~new_mid & ~path_mask
            else:
                cand = rows[x] & high & ~new_mid & ~ra & ~path_mask
            iters.append(iter_bits(cand))


def count_induced_cycles(g: Graph, k: int) -> int:
    """Number of induced k-cycles of ``g``."""
    return sum(1 for _ in enumerate_induced_cycles(g, k))


# ---------------------------------------------------------------------------
# Induced squares via the diagonal scan
# ---------------------------------------------------------------------------


def _candidate_blocks(g: Graph) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Non-adjacent pairs ``(u, w)``, ``u < w``, with >= 2 common neighbors, as
    ``(us, ws)`` index arrays of at most ``_PAIR_CHUNK`` pairs, in
    lexicographic order.

    These are exactly the pairs that can occur as a diagonal of an induced
    square.  The pair filter is a matrix product taken one block of rows at a
    time: a block of rows of the float32 0/1 adjacency matrix times the whole
    matrix gives those rows' common-neighbor counts.  The matrix is unpacked
    from the bit rows block by block too, so beyond its 4 bytes per vertex
    pair memory stays bounded by ``_BLOCK_CELLS`` at any n, and a consumer
    that stops early pays only for the blocks it read.  One that builds from
    each piece, as ``build_square_graph`` does, checking its cap after every
    piece, holds one piece's work at a time.
    """
    n = g.n
    packed = _packed_rows(g)
    step = max(_BLOCK_CELLS // max(n, 1), 1)
    matrix = np.empty((n, n), dtype=np.float32)
    for start in range(0, n, step):
        matrix[start : start + step] = np.unpackbits(
            packed[start : start + step], axis=1, count=n, bitorder="little"
        )
    for start in range(0, n, step):
        block = matrix[start : start + step]
        counts = block @ matrix
        # keep w > u: column w of block row i is the pair (start + i, w)
        cand = np.triu((block == 0) & (counts >= 2.0), start + 1)
        del counts  # not held beside the pair arrays
        us, ws = np.nonzero(cand)
        us += start
        for i in range(0, len(us), _PAIR_CHUNK):
            yield us[i : i + _PAIR_CHUNK], ws[i : i + _PAIR_CHUNK]


def _packed_rows(g: Graph) -> np.ndarray:
    """The adjacency rows as an ``(n, bytes)`` uint8 array: bit ``v & 7`` of
    byte ``v >> 3`` in row ``u`` is set iff ``u`` and ``v`` are adjacent."""
    width = max((g.n + 63) // 64, 1) * 8
    buf = b"".join(row.to_bytes(width, "little") for row in g.rows)
    return np.frombuffer(buf, dtype=np.uint8).reshape(g.n, width)


def _adjacent(packed: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Elementwise adjacency of the vertex arrays ``us`` and ``vs``."""
    cells = packed.ravel()[us * packed.shape[1] + (vs >> 3)]
    return (cells >> (vs & 7).astype(np.uint8)) & 1 == 1


def _diagonal_bucket(
    g: Graph, u: int, w: int, limit: int | None = None
) -> list[tuple[int, int]]:
    """The non-adjacent pairs ``(x, y)``, ``x < y``, inside the common
    neighborhood of ``u`` and ``w``, in lexicographic order.

    Stops once ``limit`` pairs are found, so ``limit=2`` tells an empty or
    singleton bucket from a larger one without listing it.
    """
    rows = g.rows
    rest = rows[u] & rows[w]
    pairs: list[tuple[int, int]] = []
    while rest:
        low = rest & -rest
        rest ^= low
        x = low.bit_length() - 1
        for y in iter_bits(rest & ~rows[x]):
            pairs.append((x, y))
            if len(pairs) == limit:
                return pairs
    return pairs


def _square_blocks(g: Graph) -> Iterator[np.ndarray]:
    """Every induced 4-cycle of ``g`` once, as ``(k, 4)`` arrays of rows
    ``(u, x, w, y)``, one array per piece of ``_candidate_blocks``.

    Each candidate diagonal ``(u, w)`` gathers its neighbors above ``u`` from
    CSR neighbor lists and keeps those adjacent to ``w``; every non-adjacent
    pair ``x < y`` of them spans the square u-x-w-y.  Taking only centers
    above ``u`` emits a square from its smaller diagonal alone, where ``u`` is
    least and ``x < y``, so each row is already canonical.  Rows come in
    lexicographic order of ``(u, w, x, y)``.
    """
    n = g.n
    packed = _packed_rows(g)
    # neighbors above each vertex: above[ptr[v]:ptr[v + 1]], ascending
    lows, above = np.nonzero(np.unpackbits(packed, axis=1, count=n, bitorder="little"))
    lows, above = lows[above > lows], above[above > lows]
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(lows, minlength=n), out=ptr[1:])
    for us, ws in _candidate_blocks(g):
        deg = ptr[us + 1] - ptr[us]
        owner = np.repeat(np.arange(len(us)), deg)
        xs = above[_ranges(ptr[us], deg)]
        common = _adjacent(packed, np.repeat(ws, deg), xs)
        owner, xs = owner[common], xs[common]
        # each common neighbor pairs with the later ones of its candidate
        group_end = np.cumsum(np.bincount(owner, minlength=len(us)))
        later = group_end[owner] - np.arange(len(xs)) - 1
        first = np.repeat(np.arange(len(xs)), later)
        second = _ranges(np.arange(1, len(xs) + 1), later)
        x, y = xs[first], xs[second]
        keep = ~_adjacent(packed, x, y)
        o = owner[first[keep]]
        yield np.stack([us[o], x[keep], ws[o], y[keep]], axis=1)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``starts[i] .. starts[i] + lengths[i] - 1``."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


Diagonals = tuple[tuple[int, int], tuple[int, int]]


def enumerate_induced_squares(g: Graph) -> Iterator[tuple[CycleWitness, Diagonals]]:
    """Yield each induced 4-cycle of ``g`` once, with its two diagonals.

    A view over ``_square_blocks``: squares come in its order, one piece of
    candidate diagonals at a time, as canonical ``(u, x, w, y)`` witnesses
    with diagonals ``((u, w), (x, y))``.
    """
    for block in _square_blocks(g):
        for u, x, w, y in block.tolist():
            yield CycleWitness((u, x, w, y)), ((u, w), (x, y))


# ---------------------------------------------------------------------------
# The Morse-cycle stream: isolated squares, then the Morse-pruned DFS
# ---------------------------------------------------------------------------


def _make_bad_bits(g: Graph):
    """Memoized pair test over per-vertex bitsets, filled lazily.

    ``bad_bits(u, need)`` returns the vertices ``w`` of ``need`` whose common
    neighborhood with ``u`` is not a clique; every ``w`` in ``need`` must be
    non-adjacent to ``u``.  ``known[u]`` holds the vertices already tested
    against ``u`` and ``bad[u]`` those that failed, so only the bits a query
    asks for and has not asked before are tested.  The test does not depend
    on any surrounding cycle, so a failed pair rules out every Morse cycle of
    length >= 5 through it.
    """
    rows = g.rows
    known = [0] * g.n
    bad = [0] * g.n

    def bad_bits(u: int, need: int) -> int:
        todo = need & ~known[u]
        if todo:
            known[u] |= todo
            bit_u = 1 << u
            for w in iter_bits(todo):
                known[w] |= bit_u
                hit = is_clique_mask(g, rows[u] & rows[w])
                if not hit:
                    bad[u] |= 1 << w
                    bad[w] |= bit_u
        return bad[u] & need

    return bad_bits


def _morse_cycles(
    g: Graph, kmin: int, kmax: int, budget: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield each Morse cycle with ``4 <= kmin <= k <= kmax`` once, as a
    canonical vertex tuple: the isolated squares first when ``kmin = 4``,
    then the pruned DFS's cycles of length >= 5.

    The budget (default ``DEFAULT_SEARCH_BUDGET``) meters only the DFS, and
    exceeding it raises ``SearchBudgetExceeded``.  One unit is one popped
    candidate (a vertex that would extend the path, passing the pair test
    or not) or one closing candidate (a vertex that would close a cycle of
    admissible length, reflected orientations included).  A cycle's closing
    candidates up to and including it are paid before it is yielded, so a
    consumer that stops there pays exactly what it took to reach it.
    """
    from .squares import isolated_squares

    if kmin == 4:
        yield from isolated_squares(g)
        kmin = 5
    if kmin > kmax:
        return
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    spent = 0

    def spend(amount: int) -> None:
        nonlocal spent
        spent += amount
        if spent > limit:
            raise SearchBudgetExceeded(f"search exceeded its node-expansion budget of {limit}")

    n, rows = g.n, g.rows
    bad_bits = _make_bad_bits(g)
    for a in range(n - kmin + 1):
        ra = rows[a]
        high = -1 << (a + 1)
        path = [a]
        path_mask = 1 << a
        mids = [0]
        # per level: the candidates not yet popped, and those passing the pair
        # test.  Every popped candidate costs one budget unit, passing or not;
        # the failed ones are paid in bulk, which changes nothing since no
        # answer can come between them.
        todo = [ra & high]
        keeps = [-1]
        while todo:
            rest = todo[-1]
            live = rest & keeps[-1]
            if not live:
                spend(rest.bit_count())
                todo.pop()
                keeps.pop()
                mids.pop()
                path_mask ^= 1 << path.pop()
                continue
            low = live & -live
            spend((rest & ((low << 1) - 1)).bit_count())
            todo[-1] = rest & -(low << 1)
            new_mid = mids[-1] | (rows[path[-1]] if len(path) >= 2 else 0)
            path.append(low.bit_length() - 1)
            path_mask |= low
            mids.append(new_mid)
            length = len(path)
            # a path of `length` vertices closes a (length + 1)-cycle; a child
            # is worth pushing only if it can still close one of length <= kmax
            ext = rows[path[-1]] & high & ~new_mid & ~path_mask
            cand = ext & ~ra if length + 2 <= kmax else 0
            closures = ext & ra if kmin <= length + 1 <= kmax else 0
            # closures at or below path[1] are the reflected orientation
            above = closures & -(2 << path[1])
            # every candidate is non-adjacent to each middle vertex, and a
            # child also to the anchor; all these pairs persist into any
            # cycle the candidate closes, so drop those that fail the test
            keep = cand | above
            for u in path[1:-1]:
                if not keep:
                    break
                keep &= ~bad_bits(u, keep)
            if keep & cand:
                keep &= ~bad_bits(a, keep & cand)
            hits = above & keep
            while hits:
                z = hits & -hits
                hits ^= z
                spend((closures & ((z << 1) - 1)).bit_count())
                closures &= -(z << 1)
                yield (*path, z.bit_length() - 1)
            spend(closures.bit_count())
            todo.append(cand)
            keeps.append(keep)


def morse_pruned_cycle_search(
    g: Graph, kmin: int, kmax: int, *, budget: int | None = None
) -> CycleWitness | None:
    """The first cycle of ``_morse_cycles``, a Morse k-cycle with
    ``kmin <= k <= kmax``, or ``None``; decides existence without listing the
    rest.  Exhausting ``budget`` (default ``10**8`` DFS units) raises
    ``SearchBudgetExceeded`` rather than answering.
    """
    from .morse import is_morse_cycle

    if kmin < 4:
        raise InvalidParameter(f"kmin must be >= 4, got {kmin}")
    if kmin > kmax:
        raise InvalidParameter(f"need kmin <= kmax, got [{kmin}, {kmax}]")
    witness = next(map(CycleWitness, _morse_cycles(g, kmin, kmax, budget)), None)
    if witness is not None:
        assert is_morse_cycle(g, witness)
    return witness
