"""Monte Carlo sweep harness, exact small-n oracles, and aggregation.

Trials are pure functions of ``(n, p, property, master_seed, trial_index)``;
the JSONL written by a sweep is therefore byte-identical across runs and
worker counts, except for the trailing ``elapsed_ms`` field of each line.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import combinations, permutations
from typing import Any, Mapping, Sequence

from . import analytic
from .cycles import count_induced_cycles, morse_pruned_cycle_search
from .errors import (
    CapacityExceeded,
    ConfigError,
    InvalidParameter,
    MorsegraphError,
    SearchBudgetExceeded,
    TooLarge,
    TrialErrorRateExceeded,
)
from .gnp import DensityPoint, density_from_coefficient, density_from_probability, sample_gnp, trial_seed
from .graph import Graph, iter_bits
from .morse import count_morse_cycles, is_morse_subgraph
from .squares import build_square_graph, has_isolated_square, is_cfs, is_square_graph_connected, isolated_count

# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

MORSE_PENTAGON_EXISTS = "morse-pentagon-exists"
MORSE_CYCLE_EXISTS = "morse-cycle-exists"
MORSE_SQUARE_EXISTS = "morse-square-exists"
SQUARE_ISOLATED_EXISTS = "square-isolated-exists"
SQUARE_GRAPH_CONNECTED = "square-graph-connected"
CFS = "cfs"
INDUCED_CYCLE_COUNT = "induced-cycle-count"
MORSE_CYCLE_COUNT = "morse-cycle-count"

_BARE_PROPERTIES = frozenset(
    {MORSE_PENTAGON_EXISTS, MORSE_SQUARE_EXISTS, SQUARE_ISOLATED_EXISTS, SQUARE_GRAPH_CONNECTED, CFS}
)
_COUNT_PROPERTIES = frozenset({INDUCED_CYCLE_COUNT, MORSE_CYCLE_COUNT})


@dataclass(frozen=True)
class PropertyKind:
    """One per-graph observable, parsed from / formatted as a tag string.

    Tags: ``morse-pentagon-exists``, ``morse-cycle-exists:KMIN:KMAX``,
    ``morse-square-exists``, ``square-isolated-exists``,
    ``square-graph-connected``, ``cfs``, ``induced-cycle-count:K``,
    ``morse-cycle-count:K``.
    """

    name: str
    k: int | None = None
    kmin: int | None = None
    kmax: int | None = None

    @classmethod
    def parse(cls, tag: str) -> "PropertyKind":
        parts = tag.split(":")
        name = parts[0]
        if name in _BARE_PROPERTIES:
            if len(parts) != 1:
                raise InvalidParameter(f"property {name!r} takes no parameters: {tag!r}")
            return cls(name=name)
        if name == MORSE_CYCLE_EXISTS:
            if len(parts) != 3:
                raise InvalidParameter(f"expected {name}:KMIN:KMAX, got {tag!r}")
            try:
                kmin, kmax = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise InvalidParameter(f"non-integer bounds in {tag!r}") from exc
            if not 4 <= kmin <= kmax:
                raise InvalidParameter(f"need 4 <= kmin <= kmax, got {tag!r}")
            return cls(name=name, kmin=kmin, kmax=kmax)
        if name in _COUNT_PROPERTIES:
            if len(parts) != 2:
                raise InvalidParameter(f"expected {name}:K, got {tag!r}")
            try:
                k = int(parts[1])
            except ValueError as exc:
                raise InvalidParameter(f"non-integer length in {tag!r}") from exc
            floor = 4 if name == MORSE_CYCLE_COUNT else 3
            if k < floor:
                raise InvalidParameter(f"{name} needs k >= {floor}, got {tag!r}")
            return cls(name=name, k=k)
        raise InvalidParameter(f"unknown property tag {tag!r}")

    @property
    def tag(self) -> str:
        if self.name == MORSE_CYCLE_EXISTS:
            return f"{self.name}:{self.kmin}:{self.kmax}"
        if self.name in _COUNT_PROPERTIES:
            return f"{self.name}:{self.k}"
        return self.name

    @property
    def is_count(self) -> bool:
        return self.name in _COUNT_PROPERTIES


def _morse_range(prop: PropertyKind) -> tuple[int, int] | None:
    """The cycle lengths ``(kmin, kmax)`` of a Morse-cycle existence tag, else ``None``."""
    if prop.name == MORSE_CYCLE_EXISTS:
        return prop.kmin, prop.kmax
    return {MORSE_PENTAGON_EXISTS: (5, 5), MORSE_SQUARE_EXISTS: (4, 4)}.get(prop.name)


def evaluate_property_with_witness(
    g: Graph, prop: PropertyKind
) -> tuple[bool | int, list[int] | None]:
    """Evaluate one property on one graph, with a witness where one exists."""
    name = prop.name
    bounds = _morse_range(prop)
    if bounds is not None:
        w = morse_pruned_cycle_search(g, *bounds)
        return (w is not None), (list(w.vertices) if w else None)
    if name == SQUARE_ISOLATED_EXISTS:
        sq = has_isolated_square(g)
        return (sq is not None), (list(sq) if sq else None)
    if name == SQUARE_GRAPH_CONNECTED:
        return is_square_graph_connected(build_square_graph(g)), None
    if name == CFS:
        return is_cfs(g, build_square_graph(g)), None
    if name == INDUCED_CYCLE_COUNT:
        return count_induced_cycles(g, prop.k), None
    if name == MORSE_CYCLE_COUNT:
        return count_morse_cycles(g, prop.k), None
    raise InvalidParameter(f"unknown property {prop!r}")


def evaluate_property(g: Graph, prop: PropertyKind) -> bool | int:
    return evaluate_property_with_witness(g, prop)[0]


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one sampled graph evaluated under one property."""

    n: int
    c: float | None
    p: float
    property_tag: str
    seed: int
    trial: int
    outcome: bool | int | None
    error: str | None
    elapsed_ms: float

    def to_json_line(self) -> str:
        # elapsed_ms is deliberately the last key so that determinism
        # comparisons can strip it with a plain suffix split.
        payload = {
            "n": self.n,
            "c": self.c,
            "p": self.p,
            "property": self.property_tag,
            "seed": self.seed,
            "trial": self.trial,
            "outcome": self.outcome,
            "error": self.error,
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(payload, separators=(",", ":"))


def run_trial(
    n: int,
    p: float,
    prop: PropertyKind,
    master_seed: int,
    trial_index: int,
    *,
    c: float | None = None,
) -> TrialRecord:
    """Sample the trial's graph and evaluate ``prop`` on it.

    Identical inputs give identical outcomes regardless of execution order
    or worker count.  Structural errors (capacity, search budget) are
    recorded on the trial with a null outcome, never as ``False``.
    """
    start = time.perf_counter()
    g = sample_gnp(n, p, trial_seed(master_seed, trial_index))
    outcome: bool | int | None
    error: str | None
    try:
        outcome = evaluate_property(g, prop)
        error = None
    except (CapacityExceeded, SearchBudgetExceeded) as exc:
        outcome = None
        error = f"{type(exc).__name__}: {exc}"
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return TrialRecord(
        n=n,
        c=c,
        p=p,
        property_tag=prop.tag,
        seed=master_seed,
        trial=trial_index,
        outcome=outcome,
        error=error,
        elapsed_ms=round(elapsed_ms, 3),
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """A sweep: density grid x properties x trials, with one master seed."""

    ns: tuple[int, ...]
    coefficients: tuple[float, ...] | None
    ps: tuple[float, ...] | None
    properties: tuple[PropertyKind, ...]
    trials: int
    seed: int
    out: str
    z: float = 1.96

    @classmethod
    def from_mapping(cls, doc: Mapping[str, Any]) -> "SweepConfig":
        known = {"ns", "coefficients", "ps", "properties", "trials", "seed", "z", "out"}
        for key in doc:
            if key not in known:
                raise ConfigError(key, "unknown field")
        def is_int(v) -> bool:
            return isinstance(v, int) and not isinstance(v, bool)

        def is_real(v) -> bool:
            # finite as a float: no inf or nan, no int that float() overflows
            return (is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max

        ns = doc.get("ns")
        if not isinstance(ns, (list, tuple)) or not ns or not all(
            is_int(v) and v >= 2 for v in ns
        ):
            raise ConfigError("ns", "need a non-empty array of integers >= 2")
        coefficients = doc.get("coefficients")
        ps = doc.get("ps")
        if (coefficients is None) == (ps is None):
            raise ConfigError("coefficients", "exactly one of 'coefficients' or 'ps' is required")
        if coefficients is not None:
            if not isinstance(coefficients, (list, tuple)) or not coefficients or not all(
                is_real(v) and v >= 0 for v in coefficients
            ):
                raise ConfigError("coefficients", "need a non-empty array of finite reals >= 0")
            coefficients = tuple(float(v) for v in coefficients)
        if ps is not None:
            if not isinstance(ps, (list, tuple)) or not ps or not all(
                is_real(v) and 0 <= v <= 1 for v in ps
            ):
                raise ConfigError("ps", "need a non-empty array of probabilities in [0, 1]")
            ps = tuple(float(v) for v in ps)
        raw_props = doc.get("properties")
        if not isinstance(raw_props, (list, tuple)) or not raw_props:
            raise ConfigError("properties", "need a non-empty array of property tags")
        try:
            properties = tuple(PropertyKind.parse(tag) for tag in raw_props)
        except (InvalidParameter, TypeError, AttributeError) as exc:
            raise ConfigError("properties", str(exc)) from exc
        trials = doc.get("trials")
        if not is_int(trials) or trials < 1:
            raise ConfigError("trials", f"need an integer >= 1, got {trials!r}")
        seed = doc.get("seed")
        if not is_int(seed):
            raise ConfigError("seed", f"need an integer, got {seed!r}")
        z = doc.get("z", 1.96)
        if not is_real(z) or not z > 0:
            raise ConfigError("z", f"need a finite real > 0, got {z!r}")
        out = doc.get("out")
        if not isinstance(out, str) or not out:
            raise ConfigError("out", "need a non-empty output path")
        return cls(
            ns=tuple(ns),
            coefficients=coefficients,
            ps=ps,
            properties=properties,
            trials=trials,
            seed=seed,
            out=out,
            z=float(z),
        )

    def density_points(self, n: int) -> list[DensityPoint]:
        if self.coefficients is not None:
            return [density_from_coefficient(c, n) for c in self.coefficients]
        return [density_from_probability(p, n) for p in self.ps]


@dataclass(frozen=True)
class CellSummary:
    """Aggregate of one (n, density, property) cell."""

    n: int
    c: float | None
    p: float
    property_tag: str
    trials: int
    errors: int
    successes_or_mean: float
    variance: float | None
    estimate: float
    wilson_lo: float | None
    wilson_hi: float | None
    analytic_ref: float | None


# The summary's columns as (name, CellSummary field), in output order; the
# CSV leaves out "errors", and no output carries the variance.
_SUMMARY_COLUMNS = tuple(
    ("property" if f.name == "property_tag" else f.name, f.name)
    for f in fields(CellSummary)
    if f.name != "variance"
)


@dataclass(frozen=True)
class SweepSummary:
    cells: tuple[CellSummary, ...]
    jsonl_path: str
    csv_path: str


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidParameter(f"need trials >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise InvalidParameter(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not z > 0:
        raise InvalidParameter(f"need z > 0, got {z}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _analytic_reference(n: int, p: float, prop: PropertyKind) -> float | None:
    """First-moment reference attached to a summary cell, when one is defined."""
    try:
        if prop.name in (MORSE_PENTAGON_EXISTS,) or (
            prop.name == MORSE_CYCLE_COUNT and prop.k == 5
        ):
            return analytic.expected_morse_pentagons(n, p)
        if prop.name in (MORSE_SQUARE_EXISTS, SQUARE_ISOLATED_EXISTS) or (
            prop.name == MORSE_CYCLE_COUNT and prop.k == 4
        ):
            return analytic.expected_morse_squares(n, p)
    except MorsegraphError:
        return None
    return None


def _sweep_task(args: tuple[int, float | None, float, PropertyKind, int, int]) -> TrialRecord:
    n, c, p, prop, master_seed, trial_index = args
    return run_trial(n, p, prop, master_seed, trial_index, c=c)


MAX_CELL_ERROR_RATE = 0.01


def run_sweep(config: SweepConfig, *, workers: int | None = None) -> SweepSummary:
    """Run every cell of ``config``, writing JSONL trials plus a summary CSV.

    The summary CSV lands next to the JSONL at ``<out>.summary.csv``.
    Trials may execute on any number of workers, at least 1 (default: the
    CPUs this process may use); output order and content are
    worker-independent.  A cell whose error rate exceeds 1% fails the sweep
    with ``TrialErrorRateExceeded`` (after all files are written).
    """
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise InvalidParameter(f"need workers >= 1, got {workers}")
    cells: list[tuple[int, float | None, float, PropertyKind]] = []
    for n in config.ns:
        for point in config.density_points(n):
            for prop in config.properties:
                cells.append((n, point.c, point.p, prop))
    tasks = [
        (n, c, p, prop, config.seed, t)
        for (n, c, p, prop) in cells
        for t in range(config.trials)
    ]
    if workers <= 1 or len(tasks) <= 1:
        records = [_sweep_task(task) for task in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_task, tasks, chunksize=chunk))

    with open(config.out, "w", encoding="ascii", newline="\n") as fh:
        for record in records:
            fh.write(record.to_json_line())
            fh.write("\n")

    summaries: list[CellSummary] = []
    for i, (n, c, p, prop) in enumerate(cells):
        cell_records = records[i * config.trials : (i + 1) * config.trials]
        valid = [r for r in cell_records if r.error is None]
        errors = config.trials - len(valid)
        if prop.is_count:
            outcomes = [float(r.outcome) for r in valid]
            mean = sum(outcomes) / len(outcomes) if outcomes else float("nan")
            if len(outcomes) >= 2:
                variance = sum((x - mean) ** 2 for x in outcomes) / (len(outcomes) - 1)
            else:
                variance = 0.0
            tally, estimate, lo, hi = mean, mean, None, None
        else:
            successes = sum(1 for r in valid if r.outcome is True)
            if valid:
                estimate = successes / len(valid)
                lo, hi = wilson_interval(successes, len(valid), config.z)
            else:
                estimate, lo, hi = float("nan"), None, None
            tally, variance = float(successes), None
        summaries.append(
            CellSummary(
                n=n,
                c=c,
                p=p,
                property_tag=prop.tag,
                trials=config.trials,
                errors=errors,
                successes_or_mean=tally,
                variance=variance,
                estimate=estimate,
                wilson_lo=lo,
                wilson_hi=hi,
                analytic_ref=_analytic_reference(n, p, prop),
            )
        )

    csv_path = f"{config.out}.summary.csv"
    with open(csv_path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        columns = [(name, attr) for name, attr in _SUMMARY_COLUMNS if name != "errors"]
        writer.writerow([name for name, _ in columns])
        for s in summaries:
            values = (getattr(s, attr) for _, attr in columns)
            writer.writerow(["" if v is None else v for v in values])

    bad = [s for s in summaries if s.errors / s.trials > MAX_CELL_ERROR_RATE]
    if bad:
        labels = ", ".join(f"(n={s.n}, p={s.p}, {s.property_tag})" for s in bad)
        raise TrialErrorRateExceeded(
            f"cells with more than {MAX_CELL_ERROR_RATE:.0%} errored trials: {labels}"
        )
    return SweepSummary(cells=tuple(summaries), jsonl_path=config.out, csv_path=csv_path)


# ---------------------------------------------------------------------------
# Exhaustive small-n expectations
# ---------------------------------------------------------------------------

_EXHAUSTIVE_MAX_N = 7


def _pair_index(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _mask_weights(n: int, p: float):
    import numpy as np

    num_pairs = n * (n - 1) // 2
    lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)
    masks = np.arange(1 << num_pairs, dtype=np.uint32)
    counts = lut[masks.view(np.uint8).reshape(-1, 4)].sum(axis=1)
    p_pow = np.power(p, np.arange(num_pairs + 1, dtype=np.float64))
    q_pow = np.power(1.0 - p, np.arange(num_pairs + 1, dtype=np.float64))
    return masks, p_pow[counts] * q_pow[num_pairs - counts]


def _cycle_candidates(n: int, k: int):
    """All canonical k-cycle placements on n labeled vertices, as bit masks."""
    pairs = _pair_index(n)
    bit_of = {pair: 1 << i for i, pair in enumerate(pairs)}

    def pair_bit(a: int, b: int) -> int:
        return bit_of[(a, b) if a < b else (b, a)]

    for subset in combinations(range(n), k):
        anchor = subset[0]
        all_bits = 0
        for a, b in combinations(subset, 2):
            all_bits |= pair_bit(a, b)
        for perm in permutations(subset[1:]):
            if perm[0] >= perm[-1]:
                continue
            cycle = (anchor,) + perm
            cyc_bits = 0
            for i in range(k):
                cyc_bits |= pair_bit(cycle[i], cycle[(i + 1) % k])
            yield cycle, cyc_bits, all_bits ^ cyc_bits


def _graph_from_mask(n: int, mask: int, pairs: Sequence[tuple[int, int]]) -> Graph:
    """The graph on ``0..n-1`` whose edges are the pairs of ``mask``'s bits."""
    rows = [0] * n
    for b in iter_bits(mask):
        u, v = pairs[b]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows), mask.bit_count())


def exhaustive_small_n_expectation(n: int, p: float, prop: PropertyKind) -> float:
    """Exact expectation of ``prop`` on G(n, p) by complete enumeration.

    Every one of the 2^C(n,2) labeled graphs is weighted by
    p^edges (1-p)^non_edges and the property evaluated exactly; n is capped
    at 7.  Cycle-shaped properties stream through per-placement selection
    (identical sum, grouped by cycle placement); the others are evaluated
    one graph at a time.
    """
    if n > _EXHAUSTIVE_MAX_N:
        raise TooLarge(f"exhaustive enumeration is capped at n={_EXHAUSTIVE_MAX_N}, got {n}")
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter(f"need 0 <= p <= 1, got {p}")
    if prop.is_count or _morse_range(prop) is not None:
        return _exhaustive_candidates(n, p, prop)
    return _exhaustive_direct(n, p, prop)


def _exhaustive_direct(n: int, p: float, prop: PropertyKind) -> float:
    """Sum over every graph of its weight times ``evaluate_property``: any property."""
    masks, weights = _mask_weights(n, p)
    pairs = _pair_index(n)
    total = 0.0
    for mask in range(len(masks)):
        w = weights[mask]
        if w == 0.0:
            continue
        g = _graph_from_mask(n, mask, pairs)
        value = evaluate_property(g, prop)
        if value:
            total += w * float(value)
    return total


def _exhaustive_candidates(n: int, p: float, prop: PropertyKind) -> float:
    """The same sum grouped by cycle placement: cycle counts and Morse-cycle existence only."""
    import numpy as np

    masks, weights = _mask_weights(n, p)
    pairs = _pair_index(n)
    counting = prop.is_count
    if counting:
        ks, morse = [prop.k], prop.name == MORSE_CYCLE_COUNT
    else:
        kmin, kmax = _morse_range(prop)
        ks, morse = list(range(kmin, kmax + 1)), True
    total = 0.0
    exists = np.zeros(len(masks), dtype=bool) if not counting else None
    for k in ks:
        if k > n:
            continue
        for cycle, cyc_bits, chord_bits in _cycle_candidates(n, k):
            sel = np.flatnonzero(((masks & cyc_bits) == cyc_bits) & ((masks & chord_bits) == 0))
            if morse:
                # the selection makes ``cycle`` an induced cycle of every graph
                graphs = (_graph_from_mask(n, int(m), pairs) for m in sel)
                sel = sel[[is_morse_subgraph(h, cycle) for h in graphs]]
            if counting:
                total += float(weights[sel].sum())
            else:
                exists[sel] = True
    if not counting:
        total = float(weights[exists].sum())
    return total


# ---------------------------------------------------------------------------
# Cross-validation suite (the `oracle` CLI command)
# ---------------------------------------------------------------------------


def run_oracle_suite(
    max_n: int = 12, subsets_per_graph: int = 100, master_seed: int = 20240801
) -> dict[str, Any]:
    """Cross-validate the fast predicates against their literal twins.

    For a seeded corpus of G(n, p) graphs: the pairwise Morse check against
    the enumerated-squares oracle (on every induced cycle and on random
    vertex subsets), the isolated-square count of the square-graph arrays
    against the Morse-square count of the bucket scan, and the pruned search
    against the induced cycles the oracle calls Morse.  Also replays the
    exact small-n expectation identities.  Graphs have n = 5..``max_n``,
    with ``5 <= max_n <= 12``.  Returns a JSON-ready report.
    """
    from .cycles import enumerate_induced_cycles
    from .morse import morse_oracle

    if not 5 <= max_n <= 12:
        raise InvalidParameter(f"need 5 <= max_n <= 12, got {max_n}")
    if subsets_per_graph < 0:
        raise InvalidParameter(f"need subsets_per_graph >= 0, got {subsets_per_graph}")
    report: dict[str, Any] = {
        "graphs": 0,
        "cycles_checked": 0,
        "subsets_checked": 0,
        "oracle_disagreements": 0,
        "identity_violations": 0,
        "search_mismatches": 0,
        "exhaustive_failures": [],
    }
    cell = 0
    for n in range(5, max_n + 1):
        for tenths in range(1, 10):
            p = tenths / 10.0
            g = sample_gnp(n, p, trial_seed(master_seed, cell))
            cell += 1
            report["graphs"] += 1
            cycle_sets: list[tuple[int, ...]] = []
            for k in range(3, n + 1):
                for witness in enumerate_induced_cycles(g, k):
                    cycle_sets.append(witness.vertices)
            rng = random.Random(trial_seed(master_seed, cell) ^ 0x5EED)
            subsets = [tuple(rng.sample(range(n), rng.randint(0, n))) for _ in range(subsets_per_graph)]
            for s in cycle_sets + subsets:
                if is_morse_subgraph(g, s) != morse_oracle(g, s):
                    report["oracle_disagreements"] += 1
            report["cycles_checked"] += len(cycle_sets)
            report["subsets_checked"] += len(subsets)
            if isolated_count(build_square_graph(g)) != count_morse_cycles(g, 4):
                report["identity_violations"] += 1
            # the oracle's judgement of every induced cycle of length >= kmin,
            # not count_morse_cycles, which reads the search's own stream; the
            # kmin = 4 search returns at the first Morse square, so only the
            # kmin = 5 search reaches the DFS on every graph
            for kmin in (4, 5):
                found = morse_pruned_cycle_search(g, kmin, n) is not None
                any_morse = any(len(c) >= kmin and morse_oracle(g, c) for c in cycle_sets)
                if found != any_morse:
                    report["search_mismatches"] += 1

    exact = [
        ("pentagon-count-exact", 5, 0.5, "morse-cycle-count:5", 12 / 1024),
        ("k4-on-complete-graph", 4, 1.0, "morse-square-exists", 0.0),
        ("empty-density", 5, 0.0, "morse-pentagon-exists", 0.0),
    ]
    for name, n, p, tag, want in exact:
        if exhaustive_small_n_expectation(n, p, PropertyKind.parse(tag)) != want:
            report["exhaustive_failures"].append(name)
    # the placement-grouped sum against the one-graph-at-a-time sum
    cross = [
        ("candidate-vs-direct-count", 5, 0.3, "morse-cycle-count:5"),
        ("candidate-vs-direct-exists", 4, 0.3, "morse-square-exists"),
    ]
    for name, n, p, tag in cross:
        prop = PropertyKind.parse(tag)
        if not abs(_exhaustive_candidates(n, p, prop) - _exhaustive_direct(n, p, prop)) < 1e-12:
            report["exhaustive_failures"].append(name)

    report["ok"] = (
        report["oracle_disagreements"] == 0
        and report["identity_violations"] == 0
        and report["search_mismatches"] == 0
        and not report["exhaustive_failures"]
    )
    return report
