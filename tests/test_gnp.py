import itertools
import math
import warnings

import numpy as np
import pytest

from morsegraph import (
    InvalidParameter,
    Xoshiro256StarStar,
    density_from_coefficient,
    density_from_probability,
    sample_gnp,
    trial_seed,
)
from morsegraph.gnp import (
    GOLDEN,
    MASK64,
    _LANE_BLOCK,
    _LANE_CHUNK,
    _NUMPY_MIN_PAIRS,
    _jump,
    _lane_jump,
    _sample_rows_numpy,
    _sample_rows_python,
    _threshold_u64,
    splitmix64_stream,
)


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
]
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
    # three blocks, the last holding few lanes (n = 1449: 4 lanes, the last
    # one part full); no n below 4000 leaves exactly one lane in a last block
    cases.append((_first_n(lambda pairs: pairs > 2 * _LANE_BLOCK * _LANE_CHUNK, 1400), 0.05, 4))
    for n, p, seed in cases:
        threshold = _threshold_u64(p)
        assert _sample_rows_numpy(n, threshold, seed) == _sample_rows_python(n, threshold, seed)


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
