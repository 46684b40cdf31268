"""Independent oracles for the sweep benchmark.

Each oracle restates a definition directly and shares no code with the path
it checks: it reads a graph only through its adjacency bitsets (``g.rows``)
and never calls ``morsegraph.gnp``, ``cycles``, ``morse`` or ``squares``.
They are slow and literal on purpose.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

MASK64 = (1 << 64) - 1


def _members(mask: int) -> list[int]:
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def _adjacent(rows, a: int, b: int) -> bool:
    return (rows[a] >> b) & 1 == 1


# ---------------------------------------------------------------------------
# G(n, p) sampler
# ---------------------------------------------------------------------------


def reference_rows(n: int, p: float, seed: int) -> list[int]:
    """G(n, p) adjacency bitsets from the pipeline documented in ``gnp.py``.

    splitmix64 expands the seed into four state words; xoshiro256** draws
    one 64-bit word U per pair (u, v), u < v, in lexicographic order; the
    edge is present iff U < ceil(p * 2**64), computed here in exact
    rational arithmetic.
    """
    threshold = math.ceil(Fraction(p) * (1 << 64))
    state = seed & MASK64
    s = []
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        s.append(z ^ (z >> 31))

    def rotl(x: int, k: int) -> int:
        return ((x << k) | (x >> (64 - k))) & MASK64

    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            word = (rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
            t = (s[1] << 17) & MASK64
            s[2] ^= s[0]
            s[3] ^= s[1]
            s[1] ^= s[2]
            s[0] ^= s[3]
            s[2] ^= t
            s[3] = rotl(s[3], 45)
            if word < threshold:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


def is_induced_cycle(rows, cycle) -> bool:
    """True iff consecutive vertices of ``cycle`` are adjacent and no others are."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k or not all(0 <= v < len(rows) for v in cycle):
        return False
    for i, j in combinations(range(k), 2):
        consecutive = j - i == 1 or (i == 0 and j == k - 1)
        if _adjacent(rows, cycle[i], cycle[j]) != consecutive:
            return False
    return True


def squares_on_diagonal(rows, a: int, b: int) -> list[tuple[int, int, int, int]]:
    """Every induced square with diagonal {a, b}, as (a, x, b, y) with x < y."""
    if a == b or _adjacent(rows, a, b):
        return []
    common = _members(rows[a] & rows[b])
    return [(a, x, b, y) for x, y in combinations(common, 2) if not _adjacent(rows, x, y)]


def morse_cycle_violation(rows, cycle, kmin: int, kmax: int) -> str | None:
    """Why ``cycle`` is not a Morse induced k-cycle, kmin <= k <= kmax; None if it is.

    Literal Morse condition: every induced square that meets the cycle's
    vertex set S in a non-adjacent pair lies inside S.  Two non-adjacent
    vertices of a square are one of its diagonals, so those squares are the
    squares on each non-adjacent pair of S.
    """
    if not kmin <= len(cycle) <= kmax:
        return f"length {len(cycle)} outside [{kmin}, {kmax}]"
    if not is_induced_cycle(rows, cycle):
        return f"{tuple(cycle)} is not an induced cycle"
    inside = set(cycle)
    for a, b in combinations(cycle, 2):
        for square in squares_on_diagonal(rows, a, b):
            if not inside.issuperset(square):
                return f"square {square} meets {tuple(cycle)} in ({a}, {b}) but leaves it"
    return None


def isolated_square_violation(rows, square) -> str | None:
    """Why ``square`` is not an isolated square-graph vertex; None if it is.

    Literal form: the square is induced and each of its two diagonal
    buckets (the induced squares having that diagonal) holds it alone.
    """
    if len(square) != 4 or not is_induced_cycle(rows, square):
        return f"{tuple(square)} is not an induced square"
    a, b, c, d = square
    for (p, q), (x, y) in (((a, c), (b, d)), ((b, d), (a, c))):
        bucket = {frozenset(s) for s in squares_on_diagonal(rows, p, q)}
        if bucket != {frozenset((p, q, x, y))}:
            return f"diagonal ({p}, {q}) of {tuple(square)} has {len(bucket)} squares"
    return None


# ---------------------------------------------------------------------------
# Square graph
# ---------------------------------------------------------------------------


def square_graph_summary(rows) -> dict:
    """Induced-square count, diagonals, components and CFS, from first principles.

    A non-adjacent pair {u, w} is a diagonal of one induced square per
    non-edge inside N(u) & N(w); each square has two diagonals, so the count
    is half the sum.  Two squares are adjacent in the square graph iff they
    share a diagonal, so square-graph components are the classes of a
    union-find that joins each square's two diagonals; a component's support
    is the union of its diagonals' endpoints.
    """
    n = len(rows)
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(d):
        while parent[d] != d:
            parent[d] = parent[parent[d]]
            d = parent[d]
        return d

    twice = 0
    for u in range(n):
        for w in range(u + 1, n):
            if _adjacent(rows, u, w):
                continue
            common = rows[u] & rows[w]
            if common & (common - 1) == 0:  # fewer than two common neighbours
                continue
            members = _members(common)
            for x, y in combinations(members, 2):
                if _adjacent(rows, x, y):
                    continue
                twice += 1
                d1, d2 = (u, w), (x, y)
                parent.setdefault(d1, d1)
                parent.setdefault(d2, d2)
                r1, r2 = find(d1), find(d2)
                if r1 != r2:
                    parent[max(r1, r2)] = min(r1, r2)
    support: dict[tuple[int, int], set[int]] = {}
    for d in parent:
        support.setdefault(find(d), set()).update(d)
    return {
        "squares": twice // 2,
        "diagonals": len(parent),
        "components": len(support),
        "cfs": n > 0 and any(len(s) == n for s in support.values()),
    }
