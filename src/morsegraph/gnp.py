"""Seed-stable Erdos-Renyi G(n, p) sampling and density schedules.

The generator pipeline is pinned so that a graph is a pure function of
``(n, p, seed)`` across runs, platforms, and worker layouts:

* A 64-bit seed is expanded into 256 bits of state with splitmix64
  (increment ``0x9E3779B97F4A7C15``, mix constants ``0xBF58476D1CE4E5B9``
  and ``0x94D049BB133111EB``, shifts 30/27/31).
* Uniform 64-bit words come from xoshiro256** (scrambler
  ``rotl(s1 * 5, 7) * 9``, shift 17, rotation 45).
* Unordered pairs ``(u, v)`` with ``u < v`` are visited in lexicographic
  order; one word ``U`` is drawn per pair and the edge is included iff
  ``U / 2**64 < p``.

Trial seeds for Monte Carlo work derive from a master seed as
``master XOR (trial_index + 1) * 0x9E3779B97F4A7C15`` (mod 2**64).

Two implementations of the pipeline agree bit for bit, and tests hold them
equal: a pure-Python loop (``_sample_rows_python``), the executable spec,
which ``sample_gnp`` also uses for small graphs; and a numpy sampler
(``_sample_rows_numpy``) that steps xoshiro256** in parallel lanes, each
lane seeded by GF(2) jump-ahead to its offset in the single stream.  A jump
is applied through a table of 32 byte lookups XORed together, not a matrix
product, so sampling makes no BLAS call.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .graph import Graph

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Below this many pairs the pure-Python loop beats the numpy lanes' fixed
# cost (~1.5 ms); measured crossover 2.2k-2.6k pairs on 2-core x86-64, numpy 2.4.
_NUMPY_MIN_PAIRS = 2560
_LANE_CHUNK = 128  # consecutive draws made by each lane
_LANE_BLOCK = 4096  # lanes stepped together; bounds memory at any n


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First ``count`` outputs of splitmix64 started at ``seed`` (mod 2**64)."""
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + GOLDEN) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state expansion from a 64-bit seed."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: int):
        self.s0, self.s1, self.s2, self.s3 = splitmix64_stream(seed, 4)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        x = (s1 * 5) & MASK64
        result = ((((x << 7) | (x >> 57)) & MASK64) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, s3
        return result


def _integer(name: str, value) -> int:
    """``value`` as a Python int (numpy integers included); bools and floats are rejected."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameter(f"{name} must be an integer, got {value!r}")


def _real(name: str, value, high: float) -> float:
    """``value`` as a float in [0, high] (numpy reals included, bools rejected)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if 0.0 <= (x := float(value)) <= high:
                return x
        except OverflowError:  # an int past the float range
            pass
    raise InvalidParameter(f"{name} must be a real number in [0, {high:g}], got {value!r}")


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Sampler seed for one trial of a sweep keyed by a master seed."""
    master_seed = _integer("master seed", master_seed)
    trial_index = _integer("trial_index", trial_index)
    if trial_index < 0:
        raise InvalidParameter(f"trial_index must be >= 0, got {trial_index}")
    return (master_seed ^ ((trial_index + 1) * GOLDEN)) & MASK64


@dataclass(frozen=True)
class DensityPoint:
    """An edge density ``p`` for ``n`` vertices, optionally tied to a coefficient ``c``."""

    n: int
    c: float | None
    p: float


def density_from_coefficient(c: float, n: int) -> DensityPoint:
    """Density ``p = min(1, c * sqrt(ln n / n))`` (natural logarithm).

    Degenerate small-``n`` grid points clamp to 1 rather than failing.
    """
    n = _integer("vertex count", n)
    if n < 2:
        raise InvalidParameter(f"need n >= 2 for a density schedule, got n={n}")
    c = _real("coefficient", c, sys.float_info.max)
    p = min(1.0, c * math.sqrt(math.log(n) / n))
    return DensityPoint(n=n, c=c, p=p)


def density_from_probability(p: float, n: int) -> DensityPoint:
    """Wrap an explicit edge probability as a density point (no coefficient)."""
    n = _integer("vertex count", n)
    if n < 0:
        raise InvalidParameter(f"vertex count must be >= 0, got {n}")
    return DensityPoint(n=n, c=None, p=_real("edge probability", p, 1.0))


def _threshold_u64(p: float) -> int:
    # U / 2**64 < p  <=>  U < ceil(p * 2**64); p * 2**64 is an exact float
    # (scaling by a power of two), so the ceiling is exact as well.
    return math.ceil(p * 2.0**64)


def _sample_rows_python(n: int, threshold: int, seed: int) -> list[int]:
    gen = Xoshiro256StarStar(seed)
    s0, s1, s2, s3 = gen.s0, gen.s1, gen.s2, gen.s3
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            x = (s1 * 5) & MASK64
            r = ((((x << 7) | (x >> 57)) & MASK64) * 9) & MASK64
            t = (s1 << 17) & MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
            if r < threshold:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def _xoshiro_step(s):
    """Step xoshiro256** lanes ``s`` (``(4, lanes)`` uint64) in place; return their outputs."""
    s0, s1, s2, s3 = s
    x = s1 * 5
    r = ((x << 7) | (x >> 57)) * 9
    t = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3[:] = (s3 << 45) | (s3 >> 19)
    return r


def _jump_table(images):
    """Byte table of the GF(2)-linear map taking unit state ``i`` to ``images[i]``.

    ``images`` is ``(256, 4)`` uint64, unit state ``i`` having only bit
    ``i % 64`` of word ``i // 64`` set.  Entry ``[j, v]`` of the ``(32, 256, 4)``
    table is the image of the state whose only nonzero byte (little-endian,
    words in order) is byte ``j``, holding ``v``: the XOR of the images of
    ``v``'s bits.
    """
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    images = images.reshape(32, 8, 4)
    for b in range(8):
        table[:, 1 << b : 2 << b] = table[:, : 1 << b] ^ images[:, b, None]
    return table


_BYTE_ROWS = np.arange(0, 32 * 256, 256)[:, None]  # first row of byte j in a flat table
_UNIT_BYTES = 1 << np.arange(8)  # byte values of the unit states


def _jump(states, table):
    """Apply a byte table to ``(k, 4)`` uint64 states: the XOR of one entry per state byte."""
    rows = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).T + _BYTE_ROWS
    return np.bitwise_xor.reduce(np.take(table.reshape(-1, 4), rows, axis=0), axis=0)


def _square(table):
    return _jump_table(_jump(table[:, _UNIT_BYTES].reshape(256, 4), table))


@functools.cache
def _lane_jump(k: int):
    """Byte table of the jump ``_LANE_CHUNK * 2**k`` draws ahead (see ``_jump_table``).

    The xoshiro256** update is linear over GF(2), so the images of the 256
    unit states after one step define it; jumps are its powers by squaring.
    Levels are built on first use, so a call pays only for the lanes it seeds.
    """
    if k:
        table = _square(_lane_jump(k - 1))
    else:
        unit = np.packbits(np.eye(256, dtype=bool), axis=1, bitorder="little").view("<u8")
        s = unit.T.astype(np.uint64)
        _xoshiro_step(s)
        table = _jump_table(s.T)
        for _ in range(_LANE_CHUNK.bit_length() - 1):
            table = _square(table)
    table.flags.writeable = False  # cached and shared by every caller
    return table


def _sample_rows_numpy(n: int, threshold: int, seed: int) -> list[int]:
    """``_sample_rows_python`` with xoshiro256** stepped in parallel lanes.

    Lane ``i`` starts at draw ``i * _LANE_CHUNK`` (seeded by GF(2) jump-ahead,
    doubling the lane count per byte-table jump) and makes the next
    ``_LANE_CHUNK`` draws, so the draws read lane by lane are the single
    stream, i.e. the lexicographic pairs.  Lanes run ``_LANE_BLOCK`` at a
    time; each block starts where the previous block's last lane stopped.
    """
    pairs = n * (n - 1) // 2
    lanes_total = -(-pairs // _LANE_CHUNK)
    thr = np.uint64(threshold)
    # stream offset of pair (u, u + 1): row u's pairs are contiguous from there
    first = np.arange(n, dtype=np.int64)
    first = first * (2 * n - first - 1) // 2
    words = (n + 63) // 64
    out = np.zeros(n * words, dtype=np.uint64)
    state = np.array([splitmix64_stream(seed, 4)], dtype=np.uint64)
    for lane0 in range(0, lanes_total, _LANE_BLOCK):
        count = min(_LANE_BLOCK, lanes_total - lane0)
        for level in range((count - 1).bit_length()):
            state = np.concatenate([state, _jump(state[: count - len(state)], _lane_jump(level))])
        s = state.T.copy()
        hits = np.empty((_LANE_CHUNK, count), dtype=bool)
        for j in range(_LANE_CHUNK):
            np.less(_xoshiro_step(s), thr, out=hits[j])
        state = s[:, -1:].T
        j, lane = np.nonzero(hits)
        k = (lane0 + lane) * _LANE_CHUNK + j
        k = k[k < pairs]
        u = np.searchsorted(first, k, side="right") - 1
        v = k - first[u] + u + 1
        np.bitwise_or.at(out, u * words + (v >> 6), 1 << (v & 63).astype(np.uint64))
        np.bitwise_or.at(out, v * words + (u >> 6), 1 << (u & 63).astype(np.uint64))
    buf = out.astype("<u8").tobytes()
    stride = words * 8
    return [int.from_bytes(buf[v * stride : (v + 1) * stride], "little") for v in range(n)]


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Sample one G(n, p) graph, deterministically in ``(n, p, seed)``.

    Identical inputs produce bit-identical graphs regardless of sampling
    path, process, or call history.
    """
    n = _integer("vertex count", n)
    seed = _integer("seed", seed)
    if n < 0:
        raise InvalidParameter(f"vertex count must be >= 0, got {n}")
    p = _real("edge probability", p, 1.0)
    if n <= 1 or p == 0.0:
        return Graph(n, (0,) * n, 0)
    if p == 1.0:
        full = (1 << n) - 1
        rows = tuple(full ^ (1 << v) for v in range(n))
        return Graph(n, rows, n * (n - 1) // 2)
    threshold = _threshold_u64(p)
    if n * (n - 1) // 2 >= _NUMPY_MIN_PAIRS:
        rows = _sample_rows_numpy(n, threshold, seed)
    else:
        rows = _sample_rows_python(n, threshold, seed)
    m = sum(row.bit_count() for row in rows) // 2
    return Graph(n, tuple(rows), m)
