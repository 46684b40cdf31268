import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from morsegraph import (
    InvalidParameter,
    OutOfDomain,
    clique_link_probability,
    conditional_link_probability,
    expected_morse_pentagons,
    expected_morse_squares,
    long_cycle_bound,
    thresholds,
)

P_GRID = [i / 10 for i in range(1, 10)]


def _enumeration_conditional(p: Fraction, which: int) -> Fraction:
    """Exact conditional probability over all configurations of the edge
    indicators between v and w1..w4 (independent, probability p each)."""
    num_edges = 3 if which in (1, 2) else 4
    joint = Fraction(0)
    given = Fraction(0)
    for bits in product((0, 1), repeat=num_edges):
        weight = Fraction(1)
        for b in bits:
            weight *= p if b else (1 - p)
        if which == 1:
            event = bits[0] == 1
            condition = not ((bits[0] and bits[1]) or (bits[0] and bits[2]))
        elif which == 2:
            event = bits[0] == 1 and bits[1] == 1
            condition = not (bits[1] and bits[2])
        else:
            event = bits[0] == 1 and bits[1] == 1
            condition = not ((bits[0] and bits[2]) or (bits[1] and bits[3]))
        if condition:
            given += weight
            if event:
                joint += weight
    return joint / given


@pytest.mark.parametrize("which", [1, 2, 3])
@pytest.mark.parametrize("tenths", range(1, 10))
def test_conditional_link_probability_matches_enumeration(which, tenths):
    p = Fraction(tenths, 10)
    exact = _enumeration_conditional(p, which)
    value = conditional_link_probability(tenths / 10, which)
    assert value == pytest.approx(float(exact), abs=1e-12)
    assert 0.0 <= value <= 1.0


def test_conditional_link_probability_frozen_values():
    assert conditional_link_probability(0.5, 2) == pytest.approx(1 / 6, abs=1e-15)
    assert conditional_link_probability(0.5, 3) == pytest.approx(1 / 9, abs=1e-15)
    assert conditional_link_probability(0.3, 1) == pytest.approx(0.17355371900826446, abs=1e-15)
    assert conditional_link_probability(0.0, 1) == 0.0
    assert conditional_link_probability(0.0, 2) == 0.0
    assert conditional_link_probability(0.0, 3) == 0.0


def test_conditional_link_probability_validation():
    with pytest.raises(InvalidParameter):
        conditional_link_probability(1.0, 1)
    with pytest.raises(InvalidParameter):
        conditional_link_probability(-0.1, 2)
    with pytest.raises(InvalidParameter):
        conditional_link_probability(0.5, 4)
    with pytest.raises(InvalidParameter):
        conditional_link_probability(0.5, 1.0)  # which must be an integer
    with pytest.raises(InvalidParameter):
        conditional_link_probability(0.5, True)


def test_conditional_link_probability_small_p_limits():
    for p in (1e-2, 1e-3, 1e-4):
        assert abs(conditional_link_probability(p, 1) - p) <= 3 * p * p
        assert conditional_link_probability(p, 2) / (p * p) == pytest.approx(1.0, abs=2 * p)
        assert conditional_link_probability(p, 3) / (p * p) == pytest.approx(1.0, abs=3 * p)


def test_pentagon_expectation_small_cases():
    p = 0.2
    assert expected_morse_pentagons(5, p) == pytest.approx(0.0012582912, rel=1e-12)
    assert expected_morse_pentagons(7, 0.0) == 0.0
    assert expected_morse_pentagons(7, 0.3) == pytest.approx(0.031133101923, rel=1e-12)


def test_pentagon_expectation_domain():
    with pytest.raises(OutOfDomain):
        expected_morse_pentagons(100, 0.45)  # 5 p^2 > 1
    with pytest.raises(InvalidParameter):
        expected_morse_pentagons(4, 0.1)
    with pytest.raises(InvalidParameter):
        expected_morse_pentagons(10, 1.2)
    with pytest.raises(InvalidParameter):
        expected_morse_pentagons(10.5, 0.1)  # n must be an integer
    with pytest.raises(InvalidParameter):
        expected_morse_pentagons(True, 0.1)
    with pytest.raises(InvalidParameter):
        expected_morse_pentagons(10**400, 0.001)  # n past the float range
    with pytest.raises(OutOfDomain):
        expected_morse_pentagons(10**300, 1e-150)  # value past the float range


def test_square_expectation_values():
    p = 0.25
    assert expected_morse_squares(4, p) == pytest.approx(3 * p**4 * (1 - p) ** 2, rel=1e-12)
    assert expected_morse_squares(4, 0.0) == 0.0
    # log-space evaluation against a 40-digit reference
    assert expected_morse_squares(512, 0.0993) == pytest.approx(27.008333260656944, rel=1e-10)


def test_square_expectation_domain():
    with pytest.raises(OutOfDomain):
        expected_morse_squares(100, 0.8)  # 2 p^2 > 1
    with pytest.raises(InvalidParameter):
        expected_morse_squares(3, 0.1)
    with pytest.raises(InvalidParameter):
        expected_morse_squares(10.0, 0.1)


def test_expectations_survive_large_n():
    # values stay finite and match high-precision references at scales where
    # naive products would wash out
    assert expected_morse_pentagons(200000, 0.004) == pytest.approx(3613341.1184154, rel=1e-9)
    assert expected_morse_squares(500000, 0.002) == pytest.approx(2280315320.7433, rel=1e-9)


@pytest.mark.parametrize("n", [8, 32, 128])
@pytest.mark.parametrize("p", [0.05, 0.15, 0.3])
def test_expectation_upper_bounds(n, p):
    assert expected_morse_pentagons(n, p) <= math.comb(n, 5) * 12 * p**5
    assert expected_morse_squares(n, p) <= math.comb(n, 4) * 3 * p**4


def test_clique_link_probability_values():
    assert clique_link_probability(10, 5, 0.0) == 1.0
    assert clique_link_probability(5, 5, 0.3) == 1.0  # no outside vertices
    assert clique_link_probability(10, 5, 0.3) == pytest.approx(0.7182608048526842, rel=1e-12)


def test_clique_link_probability_validation():
    with pytest.raises(InvalidParameter):
        clique_link_probability(4, 5, 0.3)
    with pytest.raises(InvalidParameter):
        clique_link_probability(10, 4, 0.3)
    with pytest.raises(InvalidParameter):
        clique_link_probability(10, 5, 1.0)
    with pytest.raises(InvalidParameter):
        clique_link_probability(10.5, 5, 0.1)
    with pytest.raises(InvalidParameter):
        clique_link_probability(10, 5.5, 0.1)
    with pytest.raises(InvalidParameter):
        clique_link_probability(10**400, 5, 0.1)


def test_clique_link_probability_monte_carlo():
    # 10^5 simulated neighborhoods at n=10, k=5, p=0.3 within 4 SE
    import numpy as np

    rng = np.random.default_rng(1905)
    n, k, p = 10, 5, 0.3
    trials = 100_000
    outside = rng.random((trials, n - k)) < p * p  # common-neighbor indicators
    hits = 0
    for row in outside:
        members = int(row.sum())
        if members > 4:
            continue  # conditioned away with cliques of size >= 6
        # inside neighbor joins all outside ones; outside pairs independent
        edges_needed = members + members * (members - 1) // 2
        if rng.random() < p**edges_needed:
            hits += 1
    estimate = hits / trials
    # the simulated event also excludes >4 outside neighbors, matching the sum
    expected = clique_link_probability(n, k, p)
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(estimate - expected) <= 4 * se


def test_long_cycle_bound_values():
    assert long_cycle_bound(10, 0.0, 5) == 0.0
    assert long_cycle_bound(10, 0.5, 5) == pytest.approx(2.953125, rel=1e-12)
    assert long_cycle_bound(3, 1.0, 3) == pytest.approx(1.0, rel=1e-12)
    assert long_cycle_bound(10, 1.0, 5) == 0.0  # chords forced
    assert long_cycle_bound(20, 0.25, 7) == pytest.approx(30.349672778538661, rel=1e-11)
    # C(k, 2) - k chords past the float range: (1-p)^chords, and the bound, underflow
    assert long_cycle_bound(10**200, 0.5, 10**160) == 0.0


def test_long_cycle_bound_validation():
    with pytest.raises(InvalidParameter):
        long_cycle_bound(10, 0.5, 2)
    with pytest.raises(InvalidParameter):
        long_cycle_bound(4, 0.5, 5)
    with pytest.raises(InvalidParameter):
        long_cycle_bound(10.5, 0.1, 5)
    with pytest.raises(InvalidParameter):
        long_cycle_bound(10, 0.1, 5.5)
    with pytest.raises(InvalidParameter):
        long_cycle_bound(10, 0.1, True)
    with pytest.raises(InvalidParameter):
        long_cycle_bound(10**400, 0.1, 5)
    with pytest.raises(OutOfDomain):
        long_cycle_bound(10**6, 0.01, 200)  # the bound past the float range


@pytest.mark.parametrize("flag", [False, True])
def test_probability_arguments_reject_bools(flag):
    # p goes through the sampler's real-number check: a bool is no probability,
    # though False == 0.0 and True == 1.0 pass a range test
    calls = [
        lambda p: conditional_link_probability(p, 1),
        lambda p: expected_morse_squares(10, p),
        lambda p: expected_morse_pentagons(10, p),
        lambda p: clique_link_probability(10, 5, p),
        lambda p: long_cycle_bound(10, p, 5),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter):
            call(flag)
        assert call(np.float64(0.125)) == call(0.125)
        assert call(Fraction(1, 8)) == call(0.125)


def test_threshold_values_at_1024():
    t = thresholds(1024)
    assert t.pentagon == pytest.approx(0.05817652204779741, abs=1e-15)
    assert t.square == pytest.approx(0.08227402649169248, abs=1e-15)
    assert t.cfs == pytest.approx(0.020951248815683932, abs=1e-15)


def test_threshold_ordering_and_ratio():
    for n in (3, 10, 100, 1024, 4096, 10**6):
        t = thresholds(n)
        assert t.cfs < t.pentagon < t.square
        assert abs(t.pentagon / t.square - math.sqrt(0.5)) <= 2 * math.ulp(1.0)


def test_threshold_validation():
    with pytest.raises(InvalidParameter):
        thresholds(2)
    with pytest.raises(InvalidParameter):
        thresholds(10.5)
    with pytest.raises(InvalidParameter):
        thresholds(10**400)
