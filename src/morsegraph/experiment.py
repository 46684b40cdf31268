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

import numpy as np

from . import analytic
from .cycles import count_induced_cycles, enumerate_induced_cycles, morse_pruned_cycle_search
from .errors import (
    CapacityExceeded,
    ConfigError,
    InvalidParameter,
    MorsegraphError,
    SearchBudgetExceeded,
    TooLarge,
    TrialErrorRateExceeded,
)
from .errors import _integer, _real, _seed
from .gnp import DensityPoint, density_from_coefficient, density_from_probability, sample_gnp, trial_seed
from .graph import Graph, iter_bits
from .morse import count_morse_cycles, is_morse_subgraph, morse_oracle
from .squares import build_square_graph, is_cfs, is_square_graph_connected, isolated_count

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

# tag name -> (integer parameters, least length allowed for them, the fixed
# lengths (kmin, kmax) of a bare Morse tag, the cycle length of the summary's
# first-moment reference).  An isolated square-graph vertex is exactly a
# Morse square, so both square tags ask the length-4 question.
_TAGS: dict[str, tuple[int, int | None, tuple[int, int] | None, int | None]] = {
    MORSE_PENTAGON_EXISTS: (0, None, (5, 5), 5),
    MORSE_CYCLE_EXISTS: (2, 4, None, None),
    MORSE_SQUARE_EXISTS: (0, None, (4, 4), 4),
    SQUARE_ISOLATED_EXISTS: (0, None, (4, 4), 4),
    SQUARE_GRAPH_CONNECTED: (0, None, None, None),
    CFS: (0, None, None, None),
    INDUCED_CYCLE_COUNT: (1, 3, None, None),
    MORSE_CYCLE_COUNT: (1, 4, None, None),  # its reference uses its own k
}


@dataclass(frozen=True)
class PropertyKind:
    """One per-graph observable, parsed from / formatted as a tag string.

    Tags: ``morse-pentagon-exists``, ``morse-cycle-exists:KMIN:KMAX``,
    ``morse-square-exists``, ``square-isolated-exists``,
    ``square-graph-connected``, ``cfs``, ``induced-cycle-count:K``,
    ``morse-cycle-count:K``.  Parameters are plain decimal integers.
    """

    name: str
    k: int | None = None
    kmin: int | None = None
    kmax: int | None = None

    @classmethod
    def parse(cls, tag: str) -> "PropertyKind":
        name, *params = tag.split(":")
        if name not in _TAGS:
            raise InvalidParameter(f"unknown property tag {tag!r}")
        arity, least, _, _ = _TAGS[name]
        if len(params) != arity:
            raise InvalidParameter(f"property {name!r} takes {arity} parameter(s), got {tag!r}")
        try:
            values = [int(param) for param in params]
        except ValueError as exc:
            raise InvalidParameter(f"non-integer parameter in {tag!r}") from exc
        # str(int(param)) is ASCII with no sign, padding, blanks or underscores
        if [str(v) for v in values] != params:
            raise InvalidParameter(f"parameters must be plain decimal integers, got {tag!r}")
        if values and (values[0] < least or values != sorted(values)):
            raise InvalidParameter(f"{name} needs lengths >= {least} in order, got {tag!r}")
        if arity == 2:
            return cls(name=name, kmin=values[0], kmax=values[1])
        return cls(name, *values)

    @property
    def tag(self) -> str:
        return ":".join([self.name, *(str(v) for v in (self.k, self.kmin, self.kmax) if v is not None)])

    @property
    def is_count(self) -> bool:
        return self.k is not None

    @property
    def lengths(self) -> tuple[int, int] | None:
        """The cycle lengths ``(kmin, kmax)`` the tag asks about; ``None`` for
        the square-graph tags (``cfs``, ``square-graph-connected``)."""
        if self.k is not None:
            return self.k, self.k
        if self.kmin is not None:
            return self.kmin, self.kmax
        return _TAGS[self.name][2]


def evaluate_property_with_witness(
    g: Graph, prop: PropertyKind
) -> tuple[bool | int, list[int] | None]:
    """Evaluate one property on one graph, with a witness where one exists."""
    lengths = prop.lengths
    if lengths is None:
        sq = build_square_graph(g)
        return (is_cfs(g, sq) if prop.name == CFS else is_square_graph_connected(sq)), None
    if prop.is_count:
        count = count_morse_cycles if prop.name == MORSE_CYCLE_COUNT else count_induced_cycles
        return count(g, prop.k), None
    w = morse_pruned_cycle_search(g, *lengths)
    return (w is not None), (list(w.vertices) if w else None)


def evaluate_property(g: Graph, prop: PropertyKind) -> bool | int:
    return evaluate_property_with_witness(g, prop)[0]


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


def _columns(record: type) -> tuple[tuple[str, str], ...]:
    """A record dataclass's output columns as (name, field), in field order;
    ``property_tag`` is written as ``property``."""
    return tuple(("property" if f.name == "property_tag" else f.name, f.name) for f in fields(record))


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
        # elapsed_ms is deliberately the last field so that determinism
        # comparisons can strip it with a plain suffix split.
        payload = {name: getattr(self, attr) for name, attr in _TRIAL_COLUMNS}
        return json.dumps(payload, separators=(",", ":"))


_TRIAL_COLUMNS = _columns(TrialRecord)


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
    # the record holds the checked Python numbers, never a numpy scalar
    n, p = _integer("vertex count", n, 0), _real("edge probability", p, 1.0)
    master_seed = _seed("master seed", master_seed)
    trial_index = _integer("trial_index", trial_index, 0)
    c = None if c is None else _real("coefficient", c, sys.float_info.max)
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
        if not isinstance(doc, Mapping):
            raise ConfigError("<document>", f"need a JSON object, got {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        for key in doc:
            if key not in known:
                raise ConfigError(key, "unknown field")

        def check(key: str, value, parse, *bounds):
            try:
                return parse(key, value, *bounds)
            except InvalidParameter as exc:
                raise ConfigError(key, str(exc)) from exc

        def array(key: str, parse, *bounds) -> tuple:
            values = doc.get(key)
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(key, f"need a non-empty array, got {values!r}")
            return tuple(check(key, v, parse, *bounds) for v in values)

        ns = array("ns", _integer, 2)
        coefficients, ps = doc.get("coefficients"), doc.get("ps")
        if (coefficients is None) == (ps is None):
            raise ConfigError("coefficients", "exactly one of 'coefficients' or 'ps' is required")
        if coefficients is not None:
            coefficients = array("coefficients", _real, sys.float_info.max)
        if ps is not None:
            ps = array("ps", _real, 1.0)
        raw_props = doc.get("properties")
        if not isinstance(raw_props, (list, tuple)) or not raw_props:
            raise ConfigError("properties", "need a non-empty array of property tags")
        try:
            properties = tuple(PropertyKind.parse(tag) for tag in raw_props)
        except (InvalidParameter, TypeError, AttributeError) as exc:
            raise ConfigError("properties", str(exc)) from exc
        trials = check("trials", doc.get("trials"), _integer, 1)
        seed = check("seed", doc.get("seed"), _seed)
        if not (z := check("z", doc.get("z", 1.96), _real, sys.float_info.max)) > 0:
            raise ConfigError("z", f"need a finite real > 0, got {z!r}")
        out = doc.get("out")
        if not isinstance(out, str) or not out:
            raise ConfigError("out", "need a non-empty output path")
        return cls(
            ns=ns,
            coefficients=coefficients,
            ps=ps,
            properties=properties,
            trials=trials,
            seed=seed,
            out=out,
            z=z,
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
    estimate: float
    wilson_lo: float | None
    wilson_hi: float | None
    analytic_ref: float | None


# The summary's columns as (name, CellSummary field), in output order; the
# CSV leaves out "errors".
_SUMMARY_COLUMNS = _columns(CellSummary)


@dataclass(frozen=True)
class SweepSummary:
    cells: tuple[CellSummary, ...]
    jsonl_path: str
    csv_path: str


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    trials = _integer("trials", trials, 1)
    successes = _integer("successes", successes, 0, trials)
    if not (z := _real("z", z, sys.float_info.max)) > 0:
        raise InvalidParameter(f"need z > 0, got {z}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _analytic_reference(n: int, p: float, prop: PropertyKind) -> float | None:
    """First-moment reference attached to a summary cell, when one is defined."""
    length = prop.k if prop.name == MORSE_CYCLE_COUNT else _TAGS[prop.name][3]
    moment = {4: analytic.expected_morse_squares, 5: analytic.expected_morse_pentagons}.get(length)
    try:
        return None if moment is None else moment(n, p)
    except MorsegraphError:
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
    workers = _integer("workers", workers, 1)
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
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
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
            tally, estimate, lo, hi = mean, mean, None, None
        else:
            successes = sum(1 for r in valid if r.outcome is True)
            if valid:
                estimate = successes / len(valid)
                lo, hi = wilson_interval(successes, len(valid), config.z)
            else:
                estimate, lo, hi = float("nan"), None, None
            tally = float(successes)
        summaries.append(
            CellSummary(
                n=n,
                c=c,
                p=p,
                property_tag=prop.tag,
                trials=config.trials,
                errors=errors,
                successes_or_mean=tally,
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
    num_pairs = n * (n - 1) // 2
    masks = np.arange(1 << num_pairs, dtype=np.uint32)
    counts = np.bitwise_count(masks)
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
    if (n := _integer("n", n, 1)) > _EXHAUSTIVE_MAX_N:
        raise TooLarge(f"exhaustive enumeration is capped at n={_EXHAUSTIVE_MAX_N}, got {n}")
    p = _real("edge probability", p, 1.0)
    if prop.lengths is not None:
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
    """The same sum grouped by cycle placement: the tags with cycle lengths only."""
    masks, weights = _mask_weights(n, p)
    pairs = _pair_index(n)
    counting = prop.is_count
    morse = prop.name != INDUCED_CYCLE_COUNT
    kmin, kmax = prop.lengths
    total = 0.0
    exists = np.zeros(len(masks), dtype=bool) if not counting else None
    for k in range(kmin, min(kmax, n) + 1):
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
    max_n = _integer("max_n", max_n, 5, 12)
    subsets_per_graph = _integer("subsets_per_graph", subsets_per_graph, 0)
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
