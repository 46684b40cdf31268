"""Induced-cycle enumeration and a clique-pruned search for Morse cycles.

Enumeration is a DFS over induced paths anchored at each cycle's minimum
vertex, extending only to vertices greater than the anchor; together with
the reflection rule ``v2 < vk`` this emits every induced k-cycle exactly
once, already in canonical form, without post-hoc deduplication.

Induced squares come from diagonal buckets: the bucket of a non-adjacent
pair {u, w} is the set of non-adjacent pairs inside N(u) & N(w), and each
pair {x, y} in it spans the square u-x-w-y.  ``_diagonal_bucket`` is the one
scan of a bucket; square enumeration, the isolated-square scan and the
Morse-square scan all read it.

The pruned search rests on the pair condition (Tran, "On strongly
quasiconvex subgroups", Geom. Topol. 2019): a cycle of length at least 5 is
Morse exactly when every pair of its vertices that is non-adjacent in the
host has a clique as common neighborhood (an empty bucket).  The test does
not depend on the rest of the cycle, so its answers are kept in per-vertex
bitsets -- ``known[u]``, the vertices tested against ``u``, and ``bad[u]``,
those that failed -- filled lazily, only for the bits a query asks for.
When a vertex is pushed onto the path, the candidates that would extend or
close it are masked once against each middle path vertex (and extending
candidates against the anchor), so popping a candidate costs one bit test
and a failed pair cuts every branch through it.  A path of L vertices
closes an (L + 1)-cycle, so paths stop growing at kmax - 1 vertices.  A
square is Morse when both of its diagonal buckets hold only the other
diagonal; length 4 is searched through ``morse.morse_squares``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvalidParameter, InvalidWitness, SearchBudgetExceeded
from .graph import Graph, is_clique_mask, iter_bits

DEFAULT_SEARCH_BUDGET = 10**8

# Below this vertex count the plain bitset scan beats building a matrix.
_PREFILTER_MIN_N = 128


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

    def diagonals(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two non-adjacent vertex pairs of an induced 4-cycle."""
        if self.k != 4:
            raise InvalidWitness(f"diagonals are defined for 4-cycles, not k={self.k}")
        a, b, c, d = self.vertices
        return (min(a, c), max(a, c)), (min(b, d), max(b, d))

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


def _bool_matrix(g: Graph):
    import numpy as np

    n = g.n
    words = max((n + 63) // 64, 1)
    buf = b"".join(row.to_bytes(words * 8, "little") for row in g.rows)
    bits = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8).reshape(n, words * 8),
        axis=1,
        bitorder="little",
    )
    return bits[:, :n].astype(bool)


def _diagonal_candidates(g: Graph, prefilter: bool | None = None) -> Iterator[tuple[int, int]]:
    """Non-adjacent pairs ``(u, w)``, ``u < w``, with >= 2 common neighbors, in
    lexicographic order.

    These are exactly the pairs that can occur as a diagonal of an induced
    square.  For large graphs the pair filter runs as one boolean matrix
    product; both paths produce the identical pair sequence.
    """
    n, rows = g.n, g.rows
    if prefilter is None:
        prefilter = n >= _PREFILTER_MIN_N
    if prefilter:
        import numpy as np

        a = _bool_matrix(g)
        counts = a.astype(np.float32) @ a.astype(np.float32)
        cand = (~a) & (counts >= 2.0)
        cand &= np.triu(np.ones((n, n), dtype=bool), 1)
        for u, w in np.argwhere(cand):
            yield int(u), int(w)
    else:
        for u in range(n):
            ru = rows[u]
            for w in range(u + 1, n):
                if (ru >> w) & 1:
                    continue
                if (ru & rows[w]).bit_count() >= 2:
                    yield u, w


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


Diagonals = tuple[tuple[int, int], tuple[int, int]]


def enumerate_induced_squares(g: Graph) -> Iterator[tuple[CycleWitness, Diagonals]]:
    """Yield each induced 4-cycle of ``g`` once, with its two diagonals.

    Scans non-adjacent pairs ``(u, w)`` and emits one square per pair
    ``(x, y)`` of their diagonal bucket; a square is emitted only while
    scanning the lexicographically smaller of its two diagonals, so each
    appears exactly once.  Order is deterministic.
    """
    for u, w in _diagonal_candidates(g):
        for x, y in _diagonal_bucket(g, u, w):
            if (u, w) < (x, y):
                witness = CycleWitness.from_cycle((u, x, w, y))
                yield witness, witness.diagonals()


def count_induced_squares(g: Graph) -> int:
    return sum(1 for _ in enumerate_induced_squares(g))


# ---------------------------------------------------------------------------
# Morse-pruned cycle search
# ---------------------------------------------------------------------------


class _Budget:
    __slots__ = ("remaining", "limit")

    def __init__(self, limit: int):
        self.limit = limit
        self.remaining = limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise SearchBudgetExceeded(
                f"search exceeded its node-expansion budget of {self.limit}"
            )


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


def _pruned_engine(
    g: Graph, kmin: int, kmax: int, budget: _Budget, find_first: bool
) -> tuple[CycleWitness | None, int]:
    """Shared engine: search or count Morse cycles with k in [kmin, kmax], kmin >= 5."""
    n, rows = g.n, g.rows
    bad_bits = _make_bad_bits(g)
    spend = budget.spend
    count = 0
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
            if hits and find_first:
                z = hits & -hits
                spend((closures & ((z << 1) - 1)).bit_count())
                return CycleWitness(tuple(path) + (z.bit_length() - 1,)), count + 1
            spend(closures.bit_count())
            count += hits.bit_count()
            todo.append(cand)
            keeps.append(keep)
    return None, count


def count_morse_cycles_pruned(g: Graph, k: int, budget_limit: int | None = None) -> int:
    """Count Morse k-cycles (k >= 5) without materializing non-Morse cycles."""
    if k < 5:
        raise InvalidParameter(f"pruned counting applies to k >= 5, got k={k}")
    budget = _Budget(DEFAULT_SEARCH_BUDGET if budget_limit is None else budget_limit)
    _, count = _pruned_engine(g, k, k, budget, find_first=False)
    return count


def morse_pruned_cycle_search(
    g: Graph, kmin: int, kmax: int, *, budget: int | None = None
) -> CycleWitness | None:
    """Return some Morse k-cycle with ``kmin <= k <= kmax``, or ``None``.

    Decides existence without full enumeration: branches whose partial path
    already contains a disqualified pair are cut (sound for k >= 5 because
    the disqualification is cycle-independent); length-4 candidates come
    from ``morse.morse_squares``, one budget unit per candidate diagonal.

    A node-expansion budget (default ``10**8``) guards pathological inputs;
    exhausting it raises ``SearchBudgetExceeded`` rather than answering.
    For k >= 5 one unit is one popped candidate (a vertex that would extend
    the path, whether or not it passes the pair test) or one closing
    candidate (a vertex that would close a cycle of admissible length,
    including the reflected orientations that are skipped).  Paths never
    grow past kmax - 1 vertices, the longest that can still close a cycle.
    """
    from .morse import is_morse_cycle, morse_squares

    if kmin < 4:
        raise InvalidParameter(f"kmin must be >= 4, got {kmin}")
    if kmin > kmax:
        raise InvalidParameter(f"need kmin <= kmax, got [{kmin}, {kmax}]")
    tracker = _Budget(DEFAULT_SEARCH_BUDGET if budget is None else budget)
    if kmin == 4:
        for witness in morse_squares(g):
            tracker.spend()
            if witness is not None:
                return witness
    lo = max(kmin, 5)
    if lo > kmax:
        return None
    witness, _ = _pruned_engine(g, lo, kmax, tracker, find_first=True)
    if witness is not None:
        assert is_morse_cycle(g, witness)
    return witness
