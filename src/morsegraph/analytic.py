"""Closed-form expectations, conditional probabilities, and thresholds.

Everything here is a pure function of (n, p); products with large
exponents are assembled in log space (lgamma / log1p) so that expectation
values stay finite and accurate far past the point where the naive
product would degenerate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidParameter, OutOfDomain, _integer, _real

PENTAGON_COEFFICIENT = math.sqrt(0.5)
SQUARE_COEFFICIENT = 1.0
CFS_COEFFICIENT = math.sqrt(math.sqrt(6.0) - 2.0)


@dataclass(frozen=True)
class ThresholdSet:
    """The three density thresholds at one vertex count.

    ``pentagon``: sqrt(1/2) * sqrt(ln n / n), below which Morse 5-cycles
    abound.  ``square``: sqrt(ln n / n), below which Morse 4-cycles (and
    isolated square-graph vertices) abound.  ``cfs``: sqrt(sqrt(6) - 2) /
    sqrt(n), above which the square graph acquires a spanning component.
    For n >= 3 they satisfy cfs < pentagon < square.
    """

    n: int
    pentagon: float
    square: float
    cfs: float


def _vertex_count(n, low: int) -> int:
    """``n`` as an int of at least ``low`` that a float can hold."""
    return _integer("vertex count", n, low, sys.float_info.max)


def thresholds(n: int) -> ThresholdSet:
    """Evaluate the three threshold densities at ``n`` (natural logarithm)."""
    n = _vertex_count(n, 3)
    base = math.sqrt(math.log(n) / n)
    return ThresholdSet(
        n=n,
        pentagon=PENTAGON_COEFFICIENT * base,
        square=SQUARE_COEFFICIENT * base,
        cfs=CFS_COEFFICIENT / math.sqrt(n),
    )


def conditional_link_probability(p: float, which: int) -> float:
    """Exact conditional membership probabilities for common neighborhoods.

    With all edges independent of probability ``p``, for a vertex ``v`` and
    distinct vertices ``w1..w4``:

    1. P[v adjacent to w1 | v is a common neighbor of neither (w1, w2) nor
       (w1, w3)] = p(1-p) / (1 + p - p^2)
    2. P[v common neighbor of (w1, w2) | v not a common neighbor of
       (w2, w3)] = p^2 / (1 + p)
    3. P[v common neighbor of (w1, w2) | v a common neighbor of neither
       (w1, w3) nor (w2, w4)] = p^2 / (1 + p)^2

    All three behave like the unconditional probability to leading order as
    p -> 0.
    """
    if (p := _real("edge probability", p, 1.0)) == 1.0:
        raise InvalidParameter(f"need 0 <= p < 1, got {p}")
    which = _integer("which", which, 1, 3)
    if which == 1:
        return p * (1.0 - p) / (1.0 + p - p * p)
    if which == 2:
        return p * p / (1.0 + p)
    return p * p / ((1.0 + p) * (1.0 + p))


def _log_comb(n: int, k: int) -> float:
    # For small k the explicit product keeps full precision even for huge n,
    # where the difference of two large lgamma values loses absolute digits.
    if k <= 32:
        return sum(math.log(n - i) for i in range(k)) - math.lgamma(k + 1)
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _first_moment(n: int, p: float, k: int, orders: float, pairs: int) -> float:
    """C(n,k) * orders * p^k (1-p)^pairs * (1 - pairs p^2)^(n-k), in log space.

    A k-set carries ``orders`` induced k-cycles, each with k edges and
    ``pairs`` non-adjacent vertex pairs; the trailing factor is the
    probability, to second order in p, that no outside vertex is a common
    neighbor of one of those pairs.  Requires pairs * p^2 < 1, and a value
    within the float range.
    """
    n = _vertex_count(n, k)
    p = _real("edge probability", p, 1.0)
    if pairs * p * p >= 1.0:
        raise OutOfDomain(f"formula needs {pairs}*p^2 < 1, got p={p}")
    if p == 0.0:
        return 0.0
    log_mu = (
        _log_comb(n, k)
        + math.log(orders)
        + k * math.log(p)
        + pairs * math.log1p(-p)
        + (n - k) * math.log1p(-pairs * p * p)
    )
    try:
        return math.exp(log_mu)
    except OverflowError:
        raise OutOfDomain(f"the first moment at p={p} exceeds the float range") from None


def expected_morse_pentagons(n: int, p: float) -> float:
    """First-moment value C(n,5) * 12 * p^5 (1-p)^5 * (1 - 5 p^2)^(n-5).

    The trailing factor is the probability that no vertex outside a fixed
    5-set is a common neighbor of one of its five non-adjacent pairs, to
    second order in p.  That event is sufficient but not necessary for the
    cycle to be Morse, so this underestimates the expectation, and not
    slightly: the exact first moment (a finite sum over the outside vertices'
    cycle neighbours) is 2.55, 12.1 and 174 times this value at n = 256,
    c = 0.5, 0.7, 0.9, and 1.97 to 40.1 times at n = 1024; the missed factor
    is roughly e^(10 n p^3).  Requires 5 p^2 < 1.
    """
    return _first_moment(n, p, 5, 12.0, 5)


def expected_morse_squares(n: int, p: float) -> float:
    """First-moment value C(n,4) * 3 * p^4 (1-p)^2 * (1 - 2 p^2)^(n-4).

    A square has two diagonals, each excluding outside common neighbors
    with probability about p^2 per vertex; hence the exponent base
    1 - 2 p^2, consistent with the count decaying like (np)^4 e^(-2 p^2 n).
    Requires 2 p^2 < 1.
    """
    return _first_moment(n, p, 4, 3.0, 2)


def clique_link_probability(n: int, k: int, p: float) -> float:
    """Probability that a distance-2 pair of a k-cycle has a clique common
    neighborhood, conditioned on no clique of size 6 or more.

    The pair has one guaranteed common neighbor on the cycle; outside the
    cycle the number of common neighbors is binomial over ``n - k``
    vertices with success probability p^2, truncated at 4 extras by the
    clique-size conditioning, and the l outside neighbors plus the inside
    one must span C(l+1, 2) edges:

        sum_{l=0}^{4} C(n-k, l) p^(2l) (1-p^2)^(n-k-l) p^(C(l+1,2))
    """
    k = _integer("cycle length", k, 5)
    n = _vertex_count(n, k)
    if (p := _real("edge probability", p, 1.0)) == 1.0:
        raise InvalidParameter(f"need 0 <= p < 1, got {p}")
    if p == 0.0:
        return 1.0
    log_p = math.log(p)
    log_q2 = math.log1p(-p * p)
    total = 0.0
    for extras in range(5):
        ways = math.comb(n - k, extras)
        if ways == 0:
            continue
        edges_needed = 2 * extras + math.comb(extras + 1, 2)
        total += math.exp(
            math.log(ways) + edges_needed * log_p + (n - k - extras) * log_q2
        )
    return total


def long_cycle_bound(n: int, p: float, k: int) -> float:
    """First-moment bound C(n,k) (k!/2k) p^k (1-p)^(C(k,2)-k) on the
    probability that an induced k-cycle exists.

    A Markov bound: values above 1 carry no information and are reported
    as-is, up to the float range.
    """
    k = _integer("cycle length", k, 3)
    n = _vertex_count(n, k)
    if (p := _real("edge probability", p, 1.0)) == 0.0:
        return 0.0
    chords = math.comb(k, 2) - k
    if p == 1.0 and chords > 0:
        return 0.0
    log_q = math.log1p(-p) if chords else 0.0
    try:
        chord_term = chords * log_q
    except OverflowError:  # chords past the float range: take the product in logs
        try:
            chord_term = -math.exp(math.log(chords) + math.log(-log_q))
        except OverflowError:  # a product below the float range: the bound underflows
            chord_term = -math.inf
    try:
        return math.exp(
            _log_comb(n, k)
            + math.lgamma(k + 1)
            - math.log(2 * k)
            + k * math.log(p)
            + chord_term
        )
    except OverflowError:
        raise OutOfDomain(f"the bound at p={p} exceeds the float range") from None
