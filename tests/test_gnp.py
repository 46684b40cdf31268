import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from morsegraph import (
    InvalidParameter,
    PropertyKind,
    Xoshiro256StarStar,
    build_graph,
    build_square_graph,
    count_morse_cycles,
    density_from_coefficient,
    density_from_probability,
    enumerate_induced_cycles,
    is_morse_cycle,
    is_morse_subgraph,
    morse_oracle,
    morse_pruned_cycle_search,
    run_trial,
    sample_gnp,
    trial_seed,
)
from morsegraph.cycles import as_witness
from morsegraph.gnp import (
    GOLDEN,
    MASK64,
    _LANE_BLOCK,
    _LANE_CHUNK,
    _NUMPY_MIN_PAIRS,
    _jump,
    _lane_jump,
    _mirror,
    _sample_rows_numpy,
    _sample_rows_python,
    _threshold_u64,
    _transpose_tiles,
    splitmix64_stream,
)
from morsegraph.graph import vertex_mask
from helpers import cycle_graph


def test_density_zero_coefficient():
    assert density_from_coefficient(0.0, 100).p == 0.0


def test_density_known_value():
    # 0.70711 * sqrt(ln(100) / 100), high-precision reference
    point = density_from_coefficient(0.70711, 100)
    assert point.p == pytest.approx(0.15174340368494603, abs=1e-14)
    assert point.c == 0.70711 and point.n == 100


def test_density_clamps_to_one():
    assert density_from_coefficient(10.0, 2).p == 1.0


def test_density_parameter_validation():
    with pytest.raises(InvalidParameter):
        density_from_coefficient(0.5, 1)
    with pytest.raises(InvalidParameter):
        density_from_coefficient(-0.1, 100)
    with pytest.raises(InvalidParameter):
        density_from_probability(1.5, 10)
    with pytest.raises(InvalidParameter):
        density_from_probability(0.5, -3)
    with pytest.raises(InvalidParameter):
        density_from_coefficient(2**1024, 100)  # past the float range


def test_splitmix64_reference_vector():
    # first output from seed 0 is the published reference value
    assert splitmix64_stream(0, 1)[0] == 0xE220A8397B1DCDAF


def test_generator_snapshot():
    # regression pin: any change to the pipeline breaks reproducibility
    gen = Xoshiro256StarStar(42)
    assert [gen.next_u64() for _ in range(5)] == [
        1546998764402558742,
        6990951692964543102,
        12544586762248559009,
        17057574109182124193,
        18295552978065317476,
    ]


def test_trial_seed_formula():
    assert trial_seed(0, 0) == GOLDEN
    assert trial_seed(12345, 7) == (12345 ^ (8 * GOLDEN)) & MASK64
    assert len({trial_seed(9, i) for i in range(100)}) == 100
    with pytest.raises(InvalidParameter):
        trial_seed(0, -1)


C4, C5, C100 = cycle_graph(4), cycle_graph(5), cycle_graph(100)
SQUARE_AT_70 = build_graph(100, [(70, 71), (71, 72), (72, 73), (70, 73)])


def _trial_line(n, p, master_seed, trial_index, c=None):
    """A ``cfs`` trial's JSONL line up to ``elapsed_ms``."""
    record = run_trial(n, p, PropertyKind.parse("cfs"), master_seed, trial_index, c=c)
    return record.to_json_line().rsplit(',"elapsed_ms":', 1)[0]


NUMPY_INTEGER_CALLS = [  # numpy numbers stand for the Python numbers they hold
    (sample_gnp, (300, 0.3, np.int64(5)), (300, 0.3, 5)),
    (sample_gnp, (300, 0.3, np.uint64(5)), (300, 0.3, 5)),
    (sample_gnp, (40, 0.3, np.uint64(MASK64)), (40, 0.3, MASK64)),
    (sample_gnp, (np.int32(300), 0.3, 5), (300, 0.3, 5)),
    (trial_seed, (np.int64(3), 1), (3, 1)),
    (trial_seed, (np.uint64(MASK64), np.int64(7)), (MASK64, 7)),
    (sample_gnp, (300, np.float64(0.3), 5), (300, 0.3, 5)),
    (density_from_coefficient, (np.float32(0.5), np.int64(100)), (0.5, 100)),
    (density_from_probability, (np.float64(0.25), np.int32(10)), (0.25, 10)),
    (density_from_probability, (1, 10), (1.0, 10)),
    # vertex ids past 63 are not shifted as int64
    (vertex_mask, (C100, [np.int64(70)]), (C100, [70])),
    (build_graph, (100, [(np.int64(0), np.int64(70))]), (100, [(0, 70)])),
    (is_morse_subgraph, (SQUARE_AT_70, [np.int64(70), np.int64(72)]), (SQUARE_AT_70, [70, 72])),
    (C100.adjacent, (np.int64(0), np.int64(99)), (0, 99)),
    (is_morse_cycle, (SQUARE_AT_70, list(np.arange(70, 74))), (SQUARE_AT_70, [70, 71, 72, 73])),
    # a trial record holds Python numbers, so its JSONL line can be written
    (_trial_line, (np.int64(10), 0.3, 1, 0), (10, 0.3, 1, 0)),
    (_trial_line, (10, 0.3, np.uint64(MASK64), np.int64(2)), (10, 0.3, MASK64, 2)),
    (_trial_line, (10, np.float64(0.3), 1, 0, np.float32(0.5)), (10, 0.3, 1, 0, 0.5)),
]


def _budgeted_search(g, budget):
    return morse_pruned_cycle_search(g, 4, 8, budget=budget)


def _capped_square_graph(g, cap):
    return build_square_graph(g, cap=cap)


REJECTED_CALLS = [  # non-integer counts and seeds; non-real or out-of-range p and c
    (sample_gnp, (10, 0.5, 1.5)),
    (sample_gnp, (10.0, 0.5, 1)),
    (sample_gnp, (np.float64(10), 0.5, 1)),
    (sample_gnp, (True, 0.5, 1)),
    (sample_gnp, (10, 0.5, False)),
    (sample_gnp, (10, 0.5, np.True_)),
    (trial_seed, (1.0, 0)),
    (trial_seed, (0, 1.0)),
    (trial_seed, (True, 0)),
    (trial_seed, (0, True)),
    (sample_gnp, (30, 0.5, -1)),  # seeds outside [0, 2**64): -1 would alias 2**64 - 1
    (sample_gnp, (30, 0.5, 2**64)),  # would alias 0
    (trial_seed, (-1, 0)),
    (trial_seed, (2**64, 0)),
    (Xoshiro256StarStar, (-1,)),
    (Xoshiro256StarStar, (2**64,)),
    (Xoshiro256StarStar, (1.0,)),
    (splitmix64_stream, (-1, 4)),
    (splitmix64_stream, (2**64, 4)),
    (splitmix64_stream, (1, 2.0)),
    (splitmix64_stream, (1, -3)),
    (density_from_probability, (0.5, 2.5)),
    (density_from_probability, (0.5, True)),
    (density_from_coefficient, (0.5, 2.5)),
    (sample_gnp, (10, True, 1)),
    (sample_gnp, (10, np.True_, 1)),
    (sample_gnp, (10, "0.5", 1)),
    (sample_gnp, (10, None, 1)),
    (density_from_probability, (True, 10)),
    (density_from_probability, (math.nan, 10)),
    (density_from_coefficient, (True, 100)),
    (density_from_coefficient, (math.inf, 100)),
    (density_from_coefficient, (math.nan, 100)),
    (density_from_coefficient, ("0.5", 100)),
    # the same check on cycle lengths, budgets, caps and vertex ids
    (enumerate_induced_cycles, (C5, 4.0)),
    (enumerate_induced_cycles, (C5, "4")),
    (count_morse_cycles, (C5, 5.0)),
    (count_morse_cycles, (C5, "5")),
    (morse_pruned_cycle_search, (C5, 5.0, 8)),
    (morse_pruned_cycle_search, (C5, 5, 8.5)),
    (morse_pruned_cycle_search, (C5, "5", 8)),
    (morse_pruned_cycle_search, (C5, 5, "8")),
    (_budgeted_search, (C4, True)),  # checked before the squares are read
    (_budgeted_search, (C4, 2.5)),
    (_budgeted_search, (C4, "9")),
    (_capped_square_graph, (C4, True)),
    (_capped_square_graph, (C5, 2.5)),
    (_capped_square_graph, (C5, "9")),
    (morse_oracle, (C5, [1.5])),
    (is_morse_cycle, (C5, [0, 1, 2, 3, 4.0])),
    (as_witness, (C5, [True, 2, 3, 4, 0])),
    (is_morse_subgraph, (C5, [True, 3])),
    (vertex_mask, (C5, [True, 3])),
    (vertex_mask, (C5, ["1"])),
    (C5.adjacent, (1.5, 2)),
    (C5.check_vertex, (2.5,)),
    (build_graph, (3, [(True, 2)])),
    (build_graph, (3, [(0, 1.0)])),
    (build_graph, (3.0, [])),
    (build_graph, ("3", [])),
]


def _call_id(value):
    return getattr(value, "__name__", None) or repr(value)


@pytest.mark.parametrize("fn, args, plain", NUMPY_INTEGER_CALLS, ids=_call_id)
def test_numpy_integer_arguments(fn, args, plain):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no wrapping numpy scalar arithmetic
        assert fn(*args) == fn(*plain)


@pytest.mark.parametrize("fn, args", REJECTED_CALLS, ids=_call_id)
def test_non_integer_arguments_rejected(fn, args):
    with pytest.raises(InvalidParameter):
        fn(*args)


def test_sample_edge_cases():
    assert sample_gnp(50, 0.0, 1).m == 0
    g = sample_gnp(50, 1.0, 1)
    assert g.m == 1225
    assert sample_gnp(0, 0.5, 1).n == 0
    assert sample_gnp(1, 0.5, 1).m == 0
    with pytest.raises(InvalidParameter):
        sample_gnp(10, -0.1, 1)
    with pytest.raises(InvalidParameter):
        sample_gnp(10, 1.1, 1)


def test_sample_determinism():
    a = sample_gnp(80, 0.31, 424242)
    b = sample_gnp(80, 0.31, 424242)
    assert a == b
    c = sample_gnp(80, 0.31, 424243)
    assert a != c


def _first_n(pair_test, start=2):
    return next(n for n in itertools.count(start) if pair_test(n * (n - 1) // 2))


def test_kernel_and_python_paths_agree():
    # n spans word boundaries; the numpy lanes must match the pure-Python
    # reference bit for bit, also where the last lane is full, holds one
    # draw, or lacks one, and where the lanes need a second block
    cases = [(65, 0.37, 11), (129, 0.08, 5), (200, 0.6, 99)]
    cases += [(n, 0.3, n) for n in (63, 64, 127, 128)]
    for rem in (0, 1, _LANE_CHUNK - 1):
        n = _first_n(lambda pairs: pairs > _LANE_CHUNK and pairs % _LANE_CHUNK == rem)
        cases.append((n, 0.45, rem))
    cases.append((_first_n(lambda pairs: pairs > _LANE_BLOCK * _LANE_CHUNK, 1000), 0.02, 3))
    # the first n whose lanes lengthen (n = 1449: lanes of 256 draws in two
    # blocks, the second holding 2 lanes, the last one part full); n = 2897,
    # whose second block holds exactly one lane, is in the digest goldens
    cases.append((_first_n(lambda pairs: pairs > 2 * _LANE_BLOCK * _LANE_CHUNK, 1400), 0.05, 4))
    for n, p, seed in cases:
        threshold = _threshold_u64(p)
        assert _sample_rows_numpy(n, threshold, seed) == _sample_rows_python(n, threshold, seed)


@pytest.mark.parametrize("rem", [1, _LANE_CHUNK // 2, _LANE_CHUNK - 1])
def test_numpy_sampler_drops_draws_past_the_last_pair(rem):
    # the last lane lacks _LANE_CHUNK - rem pairs, so at p = 0.99 nearly
    # all of its draws past the last pair are hits, none of them an edge
    n = _first_n(lambda pairs: pairs > _LANE_CHUNK and pairs % _LANE_CHUNK == rem)
    threshold = _threshold_u64(0.99)
    assert _sample_rows_numpy(n, threshold, rem) == _sample_rows_python(n, threshold, rem)


@pytest.mark.parametrize("n", [63, 64, 65, 127, 129])
def test_numpy_sampler_dense_rows_across_words(n):
    # rows start and end inside and on 64-bit word boundaries; at p = 0.99
    # a bit read from the wrong place is almost surely set
    threshold = _threshold_u64(0.99)
    assert _sample_rows_numpy(n, threshold, n) == _sample_rows_python(n, threshold, n)


def _unpacked(bits, width):
    """Rows of uint64 words as a bool matrix: bit ``c & 63`` of word ``c >> 6`` is column ``c``."""
    return np.unpackbits(bits.view(np.uint8), axis=-1, bitorder="little")[..., :width].astype(bool)


def _repacked(dense):
    return np.packbits(dense, axis=-1, bitorder="little").view(np.uint64)


@pytest.mark.parametrize("count", [1, 7, 600])
def test_transpose_tiles_matches_unpacked_reference(count):
    tiles = np.random.default_rng(count).integers(0, 2**64, size=(count, 64), dtype=np.uint64)
    want = _repacked(_unpacked(tiles[:, :, None], 64).transpose(0, 2, 1).copy())[:, :, 0]
    got = _transpose_tiles(tiles.T.copy())
    assert np.array_equal(got.T, want)
    assert np.array_equal(_transpose_tiles(got).T, tiles)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 2000])
def test_mirror_matches_unpacked_reference(n):
    # n = 2000 has 32 words a row: 528 tiles on or above the diagonal, more
    # than one batch of the mirror
    words = (n + 63) // 64
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    dense = np.zeros((64 * words, 64 * words), dtype=bool)
    dense[:n, :n] = upper
    bits = _repacked(dense)
    _mirror(bits)
    assert np.array_equal(_unpacked(bits, 64 * words), dense | dense.T)


def _rows_digest(g):
    width = (g.n + 7) // 8
    return hashlib.sha256(b"".join(row.to_bytes(width, "little") for row in g.rows)).hexdigest()


def test_sample_digest_golden():
    # regression pin for the numpy lanes at sizes where the pure-Python spec
    # is too slow to compare against: the edge count and the SHA-256 of the
    # rows as little-endian bytes, recorded before the lane kernel stepped
    # its state in place (n = 2897: before the lanes lengthened with n; its
    # second block holds one lane of 1024 draws, part full)
    cases = [
        (2048, density_from_coefficient(0.5, 2048).p, trial_seed(7, 0), 64049,
         "3d55473e1776d9a494572eb2e93b5019b13819713c52b36afd5cca3848801119"),
        (2048, 0.3, 12345, 630194,
         "4aad433c4c9760580ed4b30fb3f60d9ef1fbabb98bb071d02a6fa60e2a375374"),
        (4096, density_from_coefficient(0.9, 4096).p, trial_seed(2201, 3), 340238,
         "d3726cb6c99c2663fa7825cc6100b8a8b2639251d2ad2f371b222671bd13b503"),
        (4096, 0.001, MASK64, 8250,
         "c295c3f388f74f81316c77fb526beb15a081e2ec0acd363270bcb6ed24161137"),
        (2897, density_from_coefficient(0.7, 2897).p, trial_seed(21, 0), 153700,
         "f0857ce8cd0b549a8d7e7aade83b9bd772d128d72f7747b6ea67e1cb9ac15803"),
    ]
    for n, p, seed, m, digest in cases:
        g = sample_gnp(n, p, seed)
        assert (g.m, _rows_digest(g)) == (m, digest)


def test_concurrent_sampling_matches_sequential():
    # the lanes' scratch arrays belong to one call: two threads sampling at
    # once, with numpy releasing the interpreter lock in every step, get the
    # rows they get one after the other
    jobs = [[(1500, 0.05, seed), (1025, 0.3, seed + 2)] for seed in (1, 2)]
    expected = [[sample_gnp(*job).rows for job in batch] for batch in jobs]
    got = [None, None]

    def work(i):
        got[i] = [sample_gnp(*job).rows for job in jobs[i] * 3]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [batch * 3 for batch in expected]


def test_sampler_memory():
    # a call holds the packed rows and the Python rows, n * n / 8 bytes
    # each; the stream bit string, n * n / 16 bytes, freed before the rows
    # are mirrored; and one block of lanes: the hit flags and packed bytes
    # of one time slice of 128 draws a lane and the jump-ahead temporaries
    # that seed the block, under 4 MiB for 4096 lanes (of 1024 draws each at
    # n = 4096).  Rows are read out and mirrored in pieces of 256 KB.  The
    # peak here is 5.3 MiB; a block of 16384 lanes peaks at 16 MiB (numpy 2.4)
    n = 4096
    p = density_from_coefficient(0.9, n).p
    sample_gnp(n, p, trial_seed(11, 0))  # builds the cached jump tables
    tracemalloc.start()
    try:
        sample_gnp(n, p, trial_seed(11, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * n // 4 + 4 * 2**20
    # perfbench's sampler-lane-block-start fault (a block starting from the
    # wrong lane of the one before) shows only in a graph spanning two
    # blocks; its oracle samples n = 1025, whose lanes keep 128 draws
    assert _LANE_BLOCK * _LANE_CHUNK < 1025 * 1024 // 2


def test_lane_jumps_match_spec_generator():
    # applying level k's table advances a state _LANE_CHUNK * 2**k draws
    for seed in (0, 1, 2**64 - 1):
        for k in range(3):
            gen = Xoshiro256StarStar(seed)
            state = np.array([[gen.s0, gen.s1, gen.s2, gen.s3]], dtype=np.uint64)
            for _ in range(_LANE_CHUNK << k):
                gen.next_u64()
            assert _jump(state, _lane_jump(k)).tolist() == [[gen.s0, gen.s1, gen.s2, gen.s3]]
    for k in range((_LANE_BLOCK - 1).bit_length()):
        table = _lane_jump(k)
        assert table.shape == (32, 256, 4) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1


def test_sample_backend_boundary_consistency():
    # sample_gnp picks the sampling path by size; check both sides of the cutoff
    above = _first_n(lambda pairs: pairs >= _NUMPY_MIN_PAIRS)
    threshold = _threshold_u64(0.2)
    for n in (above - 1, above):
        rows = list(sample_gnp(n, 0.2, 7).rows)
        assert rows == _sample_rows_python(n, threshold, 7)
        assert rows == _sample_rows_numpy(n, threshold, 7)


def test_large_vertex_counts_supported():
    # row width must stretch to at least 4096 vertices
    g = sample_gnp(4096, 0.001, 13)
    assert g.n == 4096
    assert all(row >> 4096 == 0 for row in g.rows)
    assert g.m > 0
    from morsegraph import build_graph

    h = build_graph(4100, [(4098, 4099), (0, 4099)])
    assert h.adjacent(4098, 4099) and h.adjacent(4099, 0)


def test_edge_count_binomial_mean():
    # mean over 50 seeded trials within 4 standard errors of C(n,2) * p
    n, p, trials = 1000, 0.3, 50
    pairs = n * (n - 1) // 2
    expected = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p))
    total = 0
    for t in range(trials):
        total += sample_gnp(n, p, trial_seed(31337, t)).m
    mean = total / trials
    assert abs(mean - expected) <= 4 * sigma / math.sqrt(trials)
