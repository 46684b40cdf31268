"""Seed-stable Erdos-Renyi G(n, p) sampling and density schedules.

The generator pipeline is pinned so that a graph is a pure function of
``(n, p, seed)`` across runs, platforms, and worker layouts:

* A 64-bit seed, an integer in [0, 2**64), is expanded into 256 bits of
  state with splitmix64 (increment ``0x9E3779B97F4A7C15``, mix constants
  ``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB``, shifts 30/27/31).
* Uniform 64-bit words come from xoshiro256** (scrambler
  ``rotl(s1 * 5, 7) * 9``, shift 17, rotation 45).
* Unordered pairs ``(u, v)`` with ``u < v`` are visited in lexicographic
  order; one word ``U`` is drawn per pair and the edge is included iff
  ``U / 2**64 < p``.

Trial seeds for Monte Carlo work derive from a master seed as
``master XOR (trial_index + 1) * 0x9E3779B97F4A7C15`` (mod 2**64).

Two implementations of the pipeline agree bit for bit, and tests hold them
equal: the executable spec ``_sample_rows_python``, a loop over
``Xoshiro256StarStar.next_u64`` used for small graphs; and a numpy sampler
(``_sample_rows_numpy``) that steps xoshiro256** in parallel lanes, each
lane seeded by GF(2) jump-ahead to its offset in the single stream.  Lanes
lengthen with n so that at most two blocks of lanes cover the stream.  The
hits are packed into one bit string of the stream, whose rows are read out
as the upper triangle and mirrored by 64 x 64 bit transposes.  A jump is
applied through a table of 32 byte lookups XORed together, not a matrix
product, so sampling makes no BLAS call.  The lanes are stepped in place
through scratch arrays that each block of lanes allocates once, never per
draw and never shared between calls, so concurrent calls stay independent.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import _integer, _real, _seed
from .graph import Graph

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Below this many pairs the spec loop beats the lanes' 1.0-1.1 ms (flat, n = 36..80): it
# takes 1.02 ms at 1225 pairs, 1.24 ms at 1431 (best of 5, one pinned 2-core x86-64 process).
_NUMPY_MIN_PAIRS = 1300
_LANE_CHUNK = 128  # consecutive draws made by each lane
_LANE_BLOCK = 4096  # lanes stepped together; bounds memory at any n


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First ``count`` outputs of splitmix64 started at ``seed``, in [0, 2**64)."""
    state = _seed("seed", seed)
    out = []
    for _ in range(_integer("count", count, 0)):
        state = (state + GOLDEN) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state expansion from a seed in [0, 2**64)."""

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


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Sampler seed for one trial of a sweep keyed by a master seed."""
    master_seed = _seed("master seed", master_seed)
    trial_index = _integer("trial_index", trial_index, 0)
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
    n = _integer("vertex count", n, 2)
    c = _real("coefficient", c, sys.float_info.max)
    p = min(1.0, c * math.sqrt(math.log(n) / n))
    return DensityPoint(n=n, c=c, p=p)


def density_from_probability(p: float, n: int) -> DensityPoint:
    """Wrap an explicit edge probability as a density point (no coefficient)."""
    n = _integer("vertex count", n, 0)
    return DensityPoint(n=n, c=None, p=_real("edge probability", p, 1.0))


def _threshold_u64(p: float) -> int:
    # U / 2**64 < p  <=>  U < ceil(p * 2**64); p * 2**64 is an exact float
    # (scaling by a power of two), so the ceiling is exact as well.
    return math.ceil(p * 2.0**64)


def _sample_rows_python(n: int, threshold: int, seed: int) -> list[int]:
    draw = Xoshiro256StarStar(seed).next_u64
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw() < threshold:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def _xoshiro_steps(s):
    """Step xoshiro256** lanes ``s`` (``(4, lanes)`` uint64) in place, yielding
    their outputs after each step.

    The outputs and one temporary are two arrays allocated once, so a step
    allocates nothing.  The shifts and multipliers are 0-d uint64 arrays,
    which numpy takes without converting a Python int on every call.
    """
    s0, s1, s2, s3 = s
    r, t = np.empty((2, s.shape[1]), dtype=np.uint64)
    m5, m9, l7, r57, l17, l45, r19 = (np.array(c, dtype=np.uint64) for c in (5, 9, 7, 57, 17, 45, 19))
    while True:
        np.multiply(s1, m5, out=r)
        np.left_shift(r, l7, out=t)
        np.right_shift(r, r57, out=r)
        np.bitwise_or(r, t, out=r)
        np.multiply(r, m9, out=r)
        np.left_shift(s1, l17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, l45, out=t)
        np.right_shift(s3, r19, out=s3)
        s3 |= t
        yield r


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
        next(_xoshiro_steps(s))
        table = _jump_table(s.T)
        for _ in range(_LANE_CHUNK.bit_length() - 1):
            table = _square(table)
    table.flags.writeable = False  # cached and shared by every caller
    return table


def _sample_rows_numpy(n: int, threshold: int, seed: int) -> list[int]:
    """``_sample_rows_python`` with xoshiro256** stepped in parallel lanes.

    Each lane makes ``_LANE_CHUNK << shift`` consecutive draws, ``shift``
    the least that fits the stream into at most two blocks of
    ``_LANE_BLOCK`` lanes (0 up to n = 1448, 3 at n = 4096).  Lane ``i``
    starts at draw ``i`` times its length (seeded by GF(2) jump-ahead,
    doubling the lane count per byte-table jump), so the draws read lane by
    lane are the single stream, i.e. the lexicographic pairs.  Each block
    starts where the previous block's last lane stopped.  A block steps its
    ``(4, lanes)`` state in place, its outputs landing in one scratch array
    of the block's own, in time slices of ``_LANE_CHUNK`` steps: a slice
    sets one row of a ``(_LANE_CHUNK, lanes)`` hit matrix per step, packs
    it eight draws to a byte along the steps, and writes each lane's bytes
    into its run of one bit string of the whole stream.

    Pair ``k`` is bit ``64 + k`` of that string (one zero word pads each
    end), so row ``u``'s bit ``v > u`` is bit ``63 + first[u] - u + v``,
    ``first[u] = u(2n - u - 1)/2`` indexing the pair ``(u, u + 1)``.  Rows
    are read out as whole words, a block of rows per gather, shifted into
    place and cleared outside columns ``(u, n)``, which also drops the draws
    past the last pair.  ``_mirror`` then adds the lower triangle.
    """
    pairs = n * (n - 1) // 2
    shift = (-(-pairs // (2 * _LANE_BLOCK * _LANE_CHUNK)) - 1).bit_length()
    length = _LANE_CHUNK << shift
    lanes_total = -(-pairs // length)
    thr = np.uint64(threshold)
    stream = np.zeros(lanes_total * length // 64 + 2, dtype="<u8")
    lane_bytes = stream[1:-1].view(np.uint8).reshape(lanes_total, length // 8)
    bit_of = np.arange(8, dtype=np.uint64)[:, None]
    state = np.array([splitmix64_stream(seed, 4)], dtype=np.uint64)
    for lane0 in range(0, lanes_total, _LANE_BLOCK):
        count = min(_LANE_BLOCK, lanes_total - lane0)
        for level in range((count - 1).bit_length()):
            state = np.concatenate([state, _jump(state[: count - len(state)], _lane_jump(shift + level))])
        s = state.T.copy()
        steps = _xoshiro_steps(s)
        # lanes padded to whole words: a word holds eight lanes' flags, one a byte
        hits = np.zeros((_LANE_CHUNK, -(-count // 8)), dtype=np.uint64)
        flags = hits.view(bool)[:, :count]
        for byte0 in range(0, length // 8, _LANE_CHUNK // 8):
            for row in flags:
                np.less(next(steps), thr, out=row)
            packed = np.bitwise_or.reduce(hits.reshape(-1, 8, hits.shape[1]) << bit_of, axis=1)
            lane_bytes[lane0 : lane0 + count, byte0 : byte0 + len(packed)] = packed.view(np.uint8)[:, :count].T
        state = s[:, -1:].T
    words = (n + 63) // 64
    up = np.zeros((64 * words, words), dtype="<u8")
    u = np.arange(n)
    base = 63 + u * (2 * n - u - 1) // 2 - u
    windows = np.lib.stride_tricks.sliding_window_view(stream, words + 1)
    ones = ~np.uint64(0)
    cols = 64 * np.arange(words) - 1
    chunk = max(2**15 // words, 1)  # rows per gather: 256 KB of words
    for r0 in range(0, n, chunk):
        b = base[r0 : r0 + chunk]
        got = windows[b >> 6]
        lo = (b & 63).astype(np.uint64)[:, None]
        rows = up[r0 : r0 + len(b)]
        np.right_shift(got[:, :-1], lo, out=rows)
        rows |= got[:, 1:] << (64 - lo)
        rows &= ones << np.clip(u[r0 : r0 + chunk, None] - cols, 0, 64).astype(np.uint64)  # columns > u
    up[:, -1] &= ones >> np.uint64(-n % 64)  # columns < n
    del lane_bytes, windows, stream  # not held while mirroring
    _mirror(up)
    return _int_rows(up[:n], words)


_MIRROR_TILES = 512  # 64-word tiles transposed at a time: 256 KB of rows


def _transpose_tiles(t):
    """Transpose ``k`` 64 x 64 bit tiles in place, ``t`` being ``(64, k)``
    uint64 with row ``r`` of tile ``i`` in ``t[r, i]`` (bit ``c`` of row ``r``
    goes to bit ``r`` of row ``c``): six rounds of masked swaps, each swapping
    the off-diagonal ``w x w`` blocks of every ``2w x 2w`` block at once.
    Tiles run along the last axis, so every pass is a long contiguous run."""
    for w in (32, 16, 8, 4, 2, 1):
        pair = t.reshape(32 // w, 2, w, -1)
        a, b = pair[:, 0], pair[:, 1]
        x = ((a >> w) ^ b) & (MASK64 // ((1 << w) + 1))  # the low w bits of each 2w
        b ^= x
        a ^= x << w
    return t


def _mirror(up):
    """Make the ``(64 * words, words)`` bit matrix ``up``, set only above its
    diagonal, symmetric in place: each 64 x 64 tile ``(i, j)`` with
    ``i <= j`` is transposed and ORed into tile ``(j, i)``, a fixed number of
    tiles at a time.  Only tiles on or above the diagonal are read and each
    is read before its mirror is written, so no copy of ``up`` is needed."""
    words = up.shape[1]
    tiles = up.reshape(words, 64, words)
    ii, jj = np.triu_indices(words)
    for k in range(0, len(ii), _MIRROR_TILES):
        i, j = ii[k : k + _MIRROR_TILES], jj[k : k + _MIRROR_TILES]
        tiles[j, :, i] |= _transpose_tiles(tiles[i, :, j].T.copy()).T


def _int_rows(out: np.ndarray, words: int) -> list[int]:
    """The C-contiguous uint64 array ``out`` as int rows of ``words`` words
    each: bit ``v & 63`` of flat word ``u * words + (v >> 6)`` is bit ``v`` of
    row ``u``."""
    buf = memoryview(out.astype("<u8", copy=False)).cast("B")  # no copy of the rows
    stride = words * 8
    return [int.from_bytes(buf[i : i + stride], "little") for i in range(0, len(buf), stride)]


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Sample one G(n, p) graph, deterministically in ``(n, p, seed)``.

    Identical inputs produce bit-identical graphs regardless of sampling
    path, process, or call history.
    """
    n = _integer("vertex count", n, 0)
    seed = _seed("seed", seed)
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
