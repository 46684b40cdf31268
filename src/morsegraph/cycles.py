"""Induced-cycle enumeration and one stream of the Morse cycles.

Enumeration is a DFS over induced paths anchored at each cycle's minimum
vertex, extending only to vertices greater than the anchor; together with
the reflection rule ``v2 < vk`` this emits every induced k-cycle exactly
once, already in canonical form, without post-hoc deduplication.

Induced squares come from diagonal buckets: the bucket of a non-adjacent
pair {u, w} is the set of non-adjacent pairs inside N(u) & N(w), and each
pair {x, y} in it spans the square u-x-w-y.  Only pairs with at least two
common neighbors can have a non-empty bucket; ``_candidate_blocks`` yields
them as index arrays in lexicographic order, in pieces of at most
``_PAIR_CHUNK`` pairs, from two bit planes per row: the vertices reached
through at least one, and at least two, of its neighbors, walked a span of
rows at a time from lists read in one pass.  Two kinds of consumer read them.
``_square_blocks`` lists every square of a piece at once as a ``(k, 4)``
array: each candidate reads its common neighbors out of the AND of its two
packed rows, one round per set bit of the fullest word, in increasing order
with no sort, and pairs the non-adjacent ones.  ``_lowest_gaps`` finds,
in numpy, each candidate's three lowest common neighbors and the
non-adjacent pairs among them.  The isolated-square scan of ``squares``
drops each candidate with two or more of those pairs, which rules out a
singleton bucket, and reads the bucket of one with exactly two common
neighbors off those two.  Of the rest, it drops those with two or more
bucket pairs through the two lowest, read from their two rows in numpy,
and reads the others' buckets one at a time through ``_diagonal_bucket``;
it can stop early.  A square is emitted from its smaller diagonal, which
makes its vertex order canonical as built.

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
failed -- filled lazily, each pair tested once, the first time a query asks
for it.  Once those tests pass a fixed share of all vertex pairs,
``_failing_pairs`` fills ``bad`` with every failing pair, from the
candidate stream and ``_lowest_gaps``, and every ``known[u]`` becomes all
ones; an early hit never builds it.  A node's cycles are tested at its
parent: expanding a vertex masks its children once against each middle
path vertex and the anchor, then ORs the closing vertices of all live
children into one mask and tests it against each middle vertex and the
expanded one.  Each level carries what its children share: the masks
their candidates and closing vertices are cut from, and the OR of ``bad``
and the AND of ``known`` over the path past the anchor, so a bit every
vertex asked has tested takes no call (after the switch, every bit).
Popping a child costs one bit test, its cycles are read off that mask, and
a failed pair cuts every branch through it.  A path of L vertices closes
an (L + 1)-cycle, so a child is expanded only while its children can close
a cycle of length <= kmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidWitness, SearchBudgetExceeded, VertexOutOfRange, _integer
from .gnp import _int_rows, _mirror
from .graph import Graph, _vertex, is_clique_mask, iter_bits

DEFAULT_SEARCH_BUDGET = 10**8

# Vertex pairs per read-out block of the diagonal-candidate filter: a block's
# unpacked bits and counts (64 KB each) stay within a core's L2 cache.
_BLOCK_CELLS = 2**16
# 64-bit words per plane of the widest span of rows whose neighbors the
# candidate filter walks together (128 KB).
_SPAN_WORDS = 2**14
# Candidate pairs per piece of ``_candidate_blocks``.
_PAIR_CHUNK = 2**12
# ``_make_bad_bits`` builds its table of failing pairs once its lazy clique
# tests, one per queried pair, pass max(n(n - 1)/2, _PAIR_CHUNK) // _TABLE_SHARE.
# Against 8 (n = 1024, six graphs a cell, quartiles of paired ratios): 4
# slows a search with no hit (c = 0.85: 1.17-1.26 of its time); 16 speeds
# it (0.86-0.95) but makes more late hits pay the build (c = 0.7: built on
# five graphs of six, not four; 0.83-1.09, some pairs slower).  The
# build costs at least one piece of candidates, more than all the lazy tests
# of a small graph (n = 12: 2.7 times, counted from n(n - 1)/2 alone); 2-core
# x86-64, numpy 2.4.
_TABLE_SHARE = 8


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
        """Raise ``InvalidWitness`` unless this is an induced cycle of ``g``,
        and ``InvalidParameter`` for a vertex that is not an integer."""
        try:
            v = tuple(_vertex(x, g.n) for x in self.vertices)
        except VertexOutOfRange as exc:
            raise InvalidWitness(f"{exc} in {self.vertices!r}") from None
        k = len(v)
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
    return _induced_cycle_dfs(g, _integer("cycle length", k, 3))


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


def _candidate_blocks(packed: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Non-adjacent pairs ``(u, w)``, ``u < w``, with >= 2 common neighbors, as
    ``(us, ws)`` index arrays of at most ``_PAIR_CHUNK`` pairs, in
    lexicographic order, from the rows ``packed`` by ``_packed_rows``.

    These are exactly the pairs that can occur as a diagonal of an induced
    square.  Common neighbors are counted, capped at two, over each row's
    neighbors, not over every pair: ``_common_planes`` reads a span's lists
    in one pass and walks them in O(m * n / 32) word operations (all pairs:
    O(n**3 / 128)), over the words from the span's first row on, the upper
    triangle it keeps.  A span starts at one read-out block and doubles up
    to ``_SPAN_WORDS`` words a plane, so an early exit pays for one small
    span and a full pass makes few calls.  A read-out block is
    ``max(_BLOCK_CELLS // n, 1)`` rows, at most ``_BLOCK_CELLS`` pairs for
    n <= 2**16 (16 rows at n = 4096): its planes are unpacked and summed
    into counts, and its pairs held as one array of flat indices, split into
    ``(us, ws)`` a piece at a time; its counts and masks are freed first.
    Column j of block row i is the pair ``(start + i, start + j)``, so the
    pairs with w <= u lie in the block's leading square, and a strict-upper
    mask of that square alone clears them, not a triangle over the block.
    Memory is the caller's packed rows, their copy padded with a zero row,
    one span's neighbor lists and planes, and one block's working set.  A
    consumer that builds from each piece, as ``build_square_graph`` does,
    checking its cap after every piece, holds one piece's work at a time.
    """
    n = len(packed)
    padded = np.zeros((n + 1, packed.shape[1] // 8), dtype=np.uint64)  # row n: no neighbor
    padded[:n] = packed.view(np.uint64)
    step = max(_BLOCK_CELLS // max(n, 1), 1)
    widest = max(_SPAN_WORDS // padded.shape[1] // step, 1) * step  # rows, whole blocks
    span = first = end = 0
    for start in range(0, n, step):
        if start == end:  # walk the next span, twice as long as the last
            span = min(2 * span, widest) or step
            first, end = start, min(start + span, n)
            low = first // 64 * 64  # the planes start at first's word
            once, twice = _common_planes(packed[first:end], padded[:, low // 64 :])
        rows = slice(start - first, start - first + step)
        block = np.unpackbits(packed[start : start + step], axis=1, count=n, bitorder="little")
        counts = (_bits(once[rows], n - low) + _bits(twice[rows], n - low))[:, start - low :]
        # pairs with w <= u lie in the leading square of the block's rows
        cand = (block[:, start:] == 0) & (counts >= 2.0)
        cand[:, : len(cand)] &= ~np.tri(len(cand), dtype=bool)
        del counts  # not held beside the pair indices
        flat = np.flatnonzero(cand).astype(np.uint32)  # below step * n < 2**32
        del block, cand  # nor are the masks, while the pieces are read
        for i in range(0, len(flat), _PAIR_CHUNK):
            us, ws = np.divmod(flat[i : i + _PAIR_CHUNK].astype(np.intp), n - start)
            us += start
            ws += start
            yield us, ws


def _common_planes(rows: np.ndarray, padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(once, twice)`` for the packed ``rows`` of a span: per row, in the
    words of ``padded``, the vertices with at least one and at least two
    common neighbors with it.  Rank r ORs the row of each row's r-th
    neighbor into both planes, ``twice`` first; shorter lists are padded
    with the zero row of ``padded``, its last.  The lists come from one
    pass over the span's nonzero bytes, and the degrees from those lists."""
    width = rows.shape[1]
    at = np.flatnonzero(rows)
    bit = np.flatnonzero(np.unpackbits(rows.ravel()[at], bitorder="little"))
    at = at[bit >> 3]  # row-major: each row's neighbors in increasing order
    row = at // width
    degree = np.bincount(row, minlength=len(rows))
    rank = np.arange(len(at)) - np.repeat(np.cumsum(degree) - degree, degree)
    neighbors = np.full((degree.max(initial=0), len(rows)), len(padded) - 1, dtype=np.intp)
    neighbors[rank, row] = (at - row * width) * 8 + (bit & 7)  # at % width, not divided again
    once = np.zeros((len(rows), padded.shape[1]), dtype=np.uint64)
    twice = np.zeros_like(once)
    for rank in neighbors:
        near = padded[rank]
        twice |= once & near
        once |= near
    return once, twice


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` bits of each row of 64-bit ``words``, one byte each."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")


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


def _lowest_gaps(
    packed: np.ndarray, us: np.ndarray, ws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(gaps, x1, x2, third)`` for the candidate diagonals ``(us[i], ws[i])``:
    the two lowest common neighbors ``x1 < x2`` of each, whether it has a
    third, and the number of non-adjacent pairs among the three lowest, or
    among the two when there is no third: the lowest bits of the words
    flagged as holding one.  The candidates' rows of ``packed`` are ANDed a
    chunk of ``_BLOCK_CELLS`` bytes at a time, to flag their nonzero words."""
    rows = packed.view(np.uint64)
    filled = np.empty((len(us), rows.shape[1]), dtype=bool)  # per candidate and word
    step = max(_BLOCK_CELLS // packed.shape[1], 1)  # rows of _BLOCK_CELLS bytes
    for i in range(0, len(us), step):
        np.not_equal(rows[us[i : i + step]] & rows[ws[i : i + step]], 0, out=filled[i : i + step])
    at = filled.argmax(axis=1)
    word = rows[us, at] & rows[ws, at]
    lowest = []
    for _ in range(3):
        if lowest:  # a spent word gives way to the next flagged one, or to none
            spent = np.flatnonzero(word == 0)
            filled[spent, at[spent]] = False
            at = filled.argmax(axis=1)  # unchanged where the word is not spent
            fresh = rows[us[spent], at[spent]] & rows[ws[spent], at[spent]]
            word[spent] = np.where(filled[spent, at[spent]], fresh, 0)  # not a stale word
        found = word != 0
        low = word & (~word + 1)
        lowest.append(64 * at + np.bitwise_count(low - 1))
        word ^= low
    del filled  # not held beside the adjacency reads
    x1, x2, x3 = lowest
    x3 = np.where(found, x3, x1)  # a missing third neighbor counts in no pair
    gaps = (~_adjacent(packed, x1, x2)).astype(np.intp)
    gaps = gaps + (found & ~_adjacent(packed, x1, x3)) + (found & ~_adjacent(packed, x2, x3))
    return gaps, x1, x2, found


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

    Each candidate diagonal ``(u, w)`` reads its common neighbors out of the
    AND of its two 64-bit rows, gathered a chunk of ``_BLOCK_CELLS`` bytes at
    a time.  Every nonzero word of it gets as many slots in its candidate's
    run as it has set bits; round r writes the r-th lowest bit of each word
    that still has one at its slot + r, so the ``(candidate, x)`` pairs come
    out in increasing order with no sort.  The neighbors ``x > u`` are kept,
    and every non-adjacent pair ``x < y`` of them spans the square u-x-w-y;
    candidates come in lexicographic order, so a piece reads its rows from
    the word of its first ``u`` on, and no kept center lies below it.
    Taking only centers above ``u`` emits a square from its smaller diagonal
    alone, where ``u`` is least and ``x < y``, so each row is already
    canonical.  Rows come in lexicographic order of ``(u, w, x, y)``.
    """
    packed = _packed_rows(g)
    step = max(_BLOCK_CELLS // packed.shape[1], 1)  # candidates of _BLOCK_CELLS bytes
    for us, ws in _candidate_blocks(packed):
        lead = int(us[0]) >> 6  # no center kept lies below the piece's first row
        rows = packed.view(np.uint64)[:, lead:]
        width = rows.shape[1]
        at, words = [], []  # flat (candidate, word) index and value of each nonzero word
        for i in range(0, len(us), step):
            both = rows[us[i : i + step]] & rows[ws[i : i + step]]
            nonzero = np.flatnonzero(both)
            at.append(nonzero + i * width)
            words.append(both.ravel()[nonzero])
        at, words = np.concatenate(at), np.concatenate(words)
        bits = np.bitwise_count(words)
        xs = np.empty(int(bits.sum(dtype=np.intp)), dtype=np.intp)
        slot = np.cumsum(bits, dtype=np.intp) - bits
        base = 64 * (at % width + lead)
        while len(words):  # round r: the r-th lowest bit of each word with one
            low = words & (~words + 1)
            xs[slot] = base + np.bitwise_count(low - 1)
            words ^= low
            left = words != 0
            words, slot, base = words[left], slot[left] + 1, base[left]
        owner = np.repeat(at // width, bits)
        above = xs > us[owner]
        owner, xs = owner[above], xs[above]
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


def enumerate_induced_squares(g: Graph) -> Iterator[CycleWitness]:
    """Yield each induced 4-cycle of ``g`` once, as a canonical witness.

    A view over ``_square_blocks``: squares come in its order, one piece of
    candidate diagonals at a time.  A witness ``(u, x, w, y)`` has the
    diagonals ``(u, w)`` and ``(x, y)``, at positions 0, 2 and 1, 3.
    """
    for block in _square_blocks(g):
        for square in block.tolist():
            yield CycleWitness(tuple(square))


# ---------------------------------------------------------------------------
# The Morse-cycle stream: isolated squares, then the Morse-pruned DFS
# ---------------------------------------------------------------------------


def _make_bad_bits(g: Graph):
    """Memoized pair test over per-vertex bitsets, filled lazily.

    ``bad_bits(u, need)`` returns the vertices ``w`` of ``need`` whose common
    neighborhood with ``u`` is not a clique; every ``w`` in ``need`` must be
    non-adjacent to ``u``.  ``known[u]`` holds the vertices already tested
    against ``u`` and ``bad[u]`` those that failed, so only the bits a query
    asks for and has not asked before are tested.  The relation is
    symmetric, so ``known[w]`` learns each pair tested against ``u``, and
    each unordered pair reaches the clique test at most once; one with
    fewer than two common neighbors costs it one loop step at most.  The
    test does not depend on any surrounding cycle, so a failed pair rules
    out every Morse cycle of length >= 5 through it.  The two lists are
    ``bad_bits.known`` and ``bad_bits.bad``, so a caller can settle a bit
    known to every vertex it asks without a call.

    Once more than max(n(n - 1)/2, ``_PAIR_CHUNK``) // ``_TABLE_SHARE``
    pairs have reached the clique test, the search is past its early hits:
    ``_failing_pairs`` fills ``bad`` in place and every ``known[u]`` becomes
    -1, so later queries test nothing.  The switch counts work done, so a
    search that stops early never pays for the table.
    """
    rows = g.rows
    known = [0] * g.n
    bad = [0] * g.n
    tested, limit = 0, max(g.n * (g.n - 1) // 2, _PAIR_CHUNK) // _TABLE_SHARE

    def bad_bits(u: int, need: int) -> int:
        nonlocal tested
        todo = need & ~known[u]
        if todo:
            known[u] |= todo
            tested += todo.bit_count()
            bit_u = 1 << u
            failed = 0
            while todo:
                low = todo & -todo
                todo ^= low
                w = low.bit_length() - 1
                known[w] |= bit_u
                hit = is_clique_mask(g, rows[u] & rows[w])
                if not hit:
                    failed |= low
                    bad[w] |= bit_u
            bad[u] |= failed
            if tested > limit:  # every pair is known from here on
                bad[:] = _failing_pairs(g)
                known[:] = [-1] * g.n
        return bad[u] & need

    bad_bits.known, bad_bits.bad = known, bad
    return bad_bits


def _failing_pairs(g: Graph) -> list[int]:
    """Per vertex ``u``, the bits of the vertices ``w`` non-adjacent to ``u``
    whose common neighborhood with ``u`` is not a clique.

    Only the pairs of ``_candidate_blocks`` can fail.  One fails when
    ``_lowest_gaps`` finds a non-adjacent pair among its three lowest common
    neighbors; of the others, only those with a third common neighbor are
    tested whole, in Python.  Each failing pair ``(u, w)``, ``u < w``, is set
    once into row ``u`` of a packed 64-bit bit matrix; ``_mirror`` sets it in
    row ``w``, and the rows are read out as ints.
    """
    n, rows = g.n, g.rows
    packed = _packed_rows(g)
    words = packed.shape[1] // 8
    out = np.zeros((64 * words, words), dtype=np.uint64)
    for us, ws in _candidate_blocks(packed):
        gaps, _, _, third = _lowest_gaps(packed, us, ws)
        fail = gaps > 0
        for i in np.flatnonzero(third & ~fail).tolist():
            fail[i] = not is_clique_mask(g, rows[us[i]] & rows[ws[i]])
        us, ws = us[fail], ws[fail]
        np.bitwise_or.at(out, (us, ws >> 6), 1 << (ws & 63).astype(np.uint64))
    _mirror(out)
    return _int_rows(out[:n], words)


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

    Every node's cycles are tested at its parent, as one mask over the
    closing vertices of all its live children (those passing the pair
    test), which asks the pair test the same pairs as one test per child
    would; a popped child yields its cycles from that mask in order.  A
    node whose children can only close kmax-cycles, none passing, is closed
    at once without pushing them.  Each level carries its children's masks
    and the pair answers its path shares.  The units are those the pops
    would pay, in the same sums at every cycle, paid in bulk between cycles.
    """
    from .squares import isolated_squares

    limit = DEFAULT_SEARCH_BUDGET if budget is None else _integer("budget", budget, 0)
    if kmin == 4:
        yield from isolated_squares(g)
        kmin = 5
    if kmin > kmax:
        return
    spent = 0

    def spend(amount: int) -> None:
        nonlocal spent
        spent += amount
        if spent > limit:
            raise SearchBudgetExceeded(f"search exceeded its node-expansion budget of {limit}")

    n, rows = g.n, g.rows
    bad_bits = _make_bad_bits(g)
    known, bad = bad_bits.known, bad_bits.bad
    for a in range(n - kmin + 1):
        ra = rows[a]
        high = -1 << (a + 1)
        path = [a]
        # per level: the candidates not yet popped and those passing the pair
        # test, the vertices that would close a candidate's cycle and those
        # passing; then, over the path past the anchor, the masks its
        # children's candidates (outside ra) and closing vertices (inside)
        # are cut from (a path vertex leaves them with a path neighbor's row,
        # before a cycle can close on it), the OR of bad and the AND of known.
        # Every popped candidate costs one budget unit, passing or not; the
        # failed ones are paid in bulk: no answer can come between them.
        levels = [[ra & high, -1, 0, 0, high & ~ra, ra & high, 0, -1]]
        while levels:
            level = levels[-1]
            rest, keep, close, good, avail, cbase, fb, fk = level
            live = rest & keep
            if not live:
                spend(rest.bit_count())
                levels.pop()
                path.pop()
                continue
            low = live & -live
            # units owed since the last payment; paid before each cycle, and
            # once a node is pushed or closed
            owed = (rest & ((low << 1) - 1)).bit_count()
            level[0] = rest & -(low << 1)
            x = low.bit_length() - 1
            rx = rows[x]
            closing = rx & close
            hits = closing & good
            while hits:
                z = hits & -hits
                hits ^= z
                spend(owed + (closing & ((z << 1) - 1)).bit_count())
                owed = 0
                closing &= -(z << 1)
                yield (*path, x, z.bit_length() - 1)
            owed += closing.bit_count()
            # a path of L vertices closes an (L + 1)-cycle: x's children close
            # child_k-cycles
            child_k = len(path) + 3
            if child_k > kmax:
                spend(owed)
                continue
            path.append(x)
            # every child is non-adjacent to each middle vertex and to the
            # anchor, and every closing vertex to each middle vertex and x;
            # all these pairs persist into any cycle through them, so drop
            # those that fail the test.  A bit every vertex asked has tested
            # is settled from the masks; only the others are asked, in order
            cand = rx & avail
            kk = fk & known[a]
            rest = cand & ~kk
            if rest:
                for u in path[1:-1]:
                    if not rest:
                        break
                    rest &= ~bad_bits(u, rest)
                if rest:
                    rest &= ~bad_bits(a, rest)
            keep = cand & kk & ~(fb | bad[a]) | rest
            close = good = units = 0
            if keep and kmin <= child_k:
                close = cbase & ~rx
                rest = keep
                while rest:
                    y = rest & -rest
                    rest ^= y
                    r = rows[y.bit_length() - 1] & close
                    good |= r
                    units += r.bit_count()
                # closing vertices at or below path[1] are the reflected
                # orientation
                good &= -(2 << path[1])
                kk = fk & known[x]
                rest = good & ~kk
                if rest:
                    for u in path[1:]:
                        if not rest:
                            break
                        rest &= ~bad_bits(u, rest)
                good = good & kk & ~(fb | bad[x]) | rest
            if good or keep and child_k < kmax:
                spend(owed)
                levels.append([cand, keep, close, good, avail & ~rx, cbase & ~rx,
                               fb | bad[x], fk & known[x]])
                continue
            # x is closed here: no child passes, or its children close
            # kmax-cycles only and none of them passes
            spend(owed + cand.bit_count() + units)
            path.pop()


def morse_pruned_cycle_search(
    g: Graph, kmin: int, kmax: int, *, budget: int | None = None
) -> CycleWitness | None:
    """The first cycle of ``_morse_cycles``, a Morse k-cycle with
    ``kmin <= k <= kmax``, or ``None``; decides existence without listing the
    rest.  Exhausting ``budget`` (default ``10**8`` DFS units) raises
    ``SearchBudgetExceeded`` rather than answering.
    """
    from .morse import is_morse_cycle

    kmin = _integer("kmin", kmin, 4)
    kmax = _integer("kmax", kmax, kmin)
    witness = next(map(CycleWitness, _morse_cycles(g, kmin, kmax, budget)), None)
    if witness is not None:
        assert is_morse_cycle(g, witness)
    return witness
