import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from morsegraph import (
    ConfigError,
    InvalidParameter,
    TooLarge,
    TrialErrorRateExceeded,
    build_graph,
    enumerate_induced_squares,
    exhaustive_small_n_expectation,
    morse_oracle,
    morse_pruned_cycle_search,
    run_sweep,
    run_trial,
    sample_gnp,
    trial_seed,
    wilson_interval,
)
from morsegraph.errors import CapacityExceeded
from morsegraph.experiment import (
    PropertyKind,
    SweepConfig,
    _exhaustive_candidates,
    _exhaustive_direct,
    evaluate_property,
    evaluate_property_with_witness,
    run_oracle_suite,
)
from helpers import complete_bipartite, cycle_graph, two_disjoint_squares

P = PropertyKind.parse


# ---------------------------------------------------------------------------
# Property tags
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "tag",
    [
        "morse-pentagon-exists",
        "morse-cycle-exists:5:8",
        "morse-square-exists",
        "square-isolated-exists",
        "square-graph-connected",
        "cfs",
        "induced-cycle-count:3",
        "morse-cycle-count:4",
    ],
)
def test_property_tag_round_trip(tag):
    assert P(tag).tag == tag


@pytest.mark.parametrize(
    "tag",
    [
        "morse-cycle-exists:3:8",   # kmin below 4
        "morse-cycle-exists:8:5",   # inverted range
        "morse-cycle-exists:5",     # missing bound
        "induced-cycle-count:2",    # k below 3
        "morse-cycle-count:3",      # k below 4
        "cfs:5",                    # stray parameter
        "no-such-property",
        "morse-cycle-count:x",
        "morse-cycle-count:+5",     # signed
        "morse-cycle-count:05",     # zero-padded
        "morse-cycle-count: 5",     # blank
        "morse-cycle-count:5_0",    # digit separator
        "morse-cycle-exists:\u0665:8",  # non-ASCII digit
    ],
)
def test_property_tag_rejects_malformed(tag):
    with pytest.raises(InvalidParameter):
        P(tag)


def test_property_evaluation_on_fixed_graphs():
    c4 = cycle_graph(4)
    assert evaluate_property(c4, P("cfs")) is True
    assert evaluate_property(c4, P("square-isolated-exists")) is True
    assert evaluate_property(c4, P("morse-square-exists")) is True
    assert evaluate_property(c4, P("square-graph-connected")) is True
    assert evaluate_property(c4, P("induced-cycle-count:4")) == 1
    assert evaluate_property(c4, P("morse-cycle-count:4")) == 1

    c5 = cycle_graph(5)
    assert evaluate_property(c5, P("cfs")) is False
    assert evaluate_property(c5, P("square-graph-connected")) is False
    assert evaluate_property(c5, P("morse-pentagon-exists")) is True

    pair = two_disjoint_squares()
    assert evaluate_property(pair, P("cfs")) is False
    assert evaluate_property(pair, P("square-graph-connected")) is False
    assert evaluate_property(pair, P("square-isolated-exists")) is True

    k23 = complete_bipartite(2, 3)
    assert evaluate_property(k23, P("square-isolated-exists")) is False
    assert evaluate_property(k23, P("morse-square-exists")) is False
    assert evaluate_property(k23, P("cfs")) is True


def test_witnesses_returned_where_defined():
    outcome, witness = evaluate_property_with_witness(cycle_graph(5), P("morse-pentagon-exists"))
    assert outcome is True and witness == [0, 1, 2, 3, 4]
    outcome, witness = evaluate_property_with_witness(cycle_graph(4), P("morse-square-exists"))
    assert outcome is True and witness == [0, 1, 2, 3]
    outcome, witness = evaluate_property_with_witness(cycle_graph(4), P("cfs"))
    assert outcome is True and witness is None


@pytest.mark.parametrize("seed", range(3))
def test_morse_square_witness_is_first_oracle_square(seed):
    # the answer must be the first Morse square in enumeration order as the
    # literal oracle judges it
    g = sample_gnp(140, 0.1, trial_seed(9001, seed))
    first = next(
        w for w in enumerate_induced_squares(g) if morse_oracle(g, w.vertices)
    )
    outcome, witness = evaluate_property_with_witness(g, P("morse-square-exists"))
    assert outcome is True and witness == list(first.vertices)
    assert morse_pruned_cycle_search(g, 4, 6) == first


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


def test_trial_examples():
    record = run_trial(5, 1.0, P("morse-pentagon-exists"), 12, 0)
    assert record.outcome is False and record.error is None
    record = run_trial(5, 0.0, P("cfs"), 12, 0)
    assert record.outcome is False


def test_trial_determinism():
    a = run_trial(30, 0.2, P("morse-cycle-count:5"), 99, 3, c=0.5)
    b = run_trial(30, 0.2, P("morse-cycle-count:5"), 99, 3, c=0.5)
    strip = lambda r: r.to_json_line().rsplit(',"elapsed_ms":', 1)[0]
    assert strip(a) == strip(b)
    assert a.outcome == b.outcome


def test_trial_json_shape():
    record = run_trial(6, 0.5, P("cfs"), 5, 2, c=0.7)
    doc = json.loads(record.to_json_line())
    assert list(doc.keys()) == [
        "n", "c", "p", "property", "seed", "trial", "outcome", "error", "elapsed_ms",
    ]
    assert doc["n"] == 6 and doc["c"] == 0.7 and doc["trial"] == 2
    assert doc["error"] is None


def test_trial_records_structural_errors(monkeypatch):
    import morsegraph.experiment as exp

    def boom(g, prop):
        raise CapacityExceeded("square count exceeded cap (10)")

    monkeypatch.setattr(exp, "evaluate_property", boom)
    record = run_trial(10, 0.5, P("cfs"), 1, 0)
    assert record.outcome is None
    assert record.error == "CapacityExceeded: square count exceeded cap (10)"


# ---------------------------------------------------------------------------
# Wilson intervals
# ---------------------------------------------------------------------------


def test_wilson_frozen_values():
    lo, hi = wilson_interval(0, 100, 1.96)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.03699480747600191, abs=1e-12)
    lo, hi = wilson_interval(50, 100, 1.96)
    assert lo == pytest.approx(0.40382982859014715, abs=1e-12)
    assert hi == pytest.approx(0.5961701714098528, abs=1e-12)
    lo, hi = wilson_interval(100, 100, 1.96)
    assert lo == pytest.approx(0.9630051925239981, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_wilson_contains_point_estimate():
    for successes, trials in ((0, 7), (3, 9), (11, 30), (30, 30)):
        lo, hi = wilson_interval(successes, trials)
        assert lo <= successes / trials <= hi
        assert 0.0 <= lo <= hi <= 1.0


def test_wilson_validation():
    with pytest.raises(InvalidParameter):
        wilson_interval(0, 0)
    with pytest.raises(InvalidParameter):
        wilson_interval(5, 3)
    with pytest.raises(InvalidParameter):
        wilson_interval(1, 3, z=0.0)
    # non-integer counts and a non-finite z, as in the sweep config
    for args in [(1.5, 3), (1, 3.0), (True, 3), (1, 2, math.inf), (1, 2, math.nan), (1, 2, True)]:
        with pytest.raises(InvalidParameter):
            wilson_interval(*args)
    assert wilson_interval(np.int64(50), np.int64(100), 2) == wilson_interval(50, 100, 2.0)


# ---------------------------------------------------------------------------
# Exhaustive small-n expectations
# ---------------------------------------------------------------------------


def test_exhaustive_pentagon_count_is_exact():
    value = exhaustive_small_n_expectation(5, 0.5, P("morse-cycle-count:5"))
    assert value == 12 / 1024


def test_exhaustive_edge_cases():
    assert exhaustive_small_n_expectation(4, 1.0, P("morse-square-exists")) == 0.0
    assert exhaustive_small_n_expectation(5, 0.0, P("morse-pentagon-exists")) == 0.0
    assert exhaustive_small_n_expectation(5, 0.0, P("morse-cycle-count:5")) == 0.0
    with pytest.raises(TooLarge):
        exhaustive_small_n_expectation(8, 0.5, P("cfs"))
    # a bool p is not read as 0 or 1, nor a float n as an integer
    for n, p in [(5, True), (5, False), (5.0, 0.5), (5, math.nan), (5, 1.5)]:
        with pytest.raises(InvalidParameter):
            exhaustive_small_n_expectation(n, p, P("morse-pentagon-exists"))


def test_exhaustive_c4_count_closed_form():
    # E[#induced C4] at n=5: C(5,4) * 3 * p^4 (1-p)^2 with p = 1/2
    value = exhaustive_small_n_expectation(5, 0.5, P("induced-cycle-count:4"))
    assert value == pytest.approx(0.234375, abs=1e-15)


@pytest.mark.parametrize(
    "tag", ["morse-cycle-count:5", "morse-cycle-count:4", "induced-cycle-count:4"]
)
def test_exhaustive_candidate_equals_direct(tag):
    fast = _exhaustive_candidates(5, 0.3, P(tag))
    slow = _exhaustive_direct(5, 0.3, P(tag))
    assert fast == pytest.approx(slow, abs=1e-14)


def test_exhaustive_exists_candidate_equals_direct():
    for tag in (
        "morse-square-exists",
        "square-isolated-exists",
        "morse-pentagon-exists",
        "morse-cycle-exists:4:5",
    ):
        fast = _exhaustive_candidates(5, 0.35, P(tag))
        slow = _exhaustive_direct(5, 0.35, P(tag))
        assert fast == pytest.approx(slow, abs=1e-14)


def test_exhaustive_direct_only_properties():
    # structural properties run through the per-graph path
    value = exhaustive_small_n_expectation(4, 0.9, P("cfs"))
    # at n=4 CFS holds iff the graph is exactly C4: 3 labelings
    expected = 3 * (0.9**4) * (0.1**2)
    assert value == pytest.approx(expected, abs=1e-12)
    iso = exhaustive_small_n_expectation(4, 0.9, P("square-isolated-exists"))
    assert iso == pytest.approx(expected, abs=1e-12)


def test_exhaustive_monte_carlo_consistency():
    # empirical mean at (n=6, p=0.4) within 4 SE of the exact expectation
    prop = P("morse-cycle-count:5")
    exact = exhaustive_small_n_expectation(6, 0.4, prop)
    trials = 20_000
    values = [
        evaluate_property(sample_gnp(6, 0.4, trial_seed(616, t)), prop)
        for t in range(trials)
    ]
    mean = statistics.fmean(values)
    se = statistics.stdev(values) / math.sqrt(trials)
    assert abs(mean - exact) <= 4 * se


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_analytic_reference_domain_and_faults(monkeypatch):
    import morsegraph.experiment as exp

    square = P("morse-square-exists")
    assert exp._analytic_reference(64, 0.1, square) > 0
    assert exp._analytic_reference(64, 0.75, square) is None  # 2 p^2 >= 1

    def broken(n, p):
        raise RuntimeError("formula bug")

    monkeypatch.setattr(exp.analytic, "expected_morse_squares", broken)
    with pytest.raises(RuntimeError):
        exp._analytic_reference(64, 0.1, square)


@pytest.mark.parametrize(
    "tag, length",
    [
        ("morse-pentagon-exists", 5),
        ("morse-cycle-count:5", 5),
        ("morse-square-exists", 4),
        ("square-isolated-exists", 4),
        ("morse-cycle-count:4", 4),
        ("morse-cycle-count:6", None),
        ("morse-cycle-exists:4:4", None),
        ("morse-cycle-exists:5:5", None),
        ("morse-cycle-exists:5:8", None),
        ("induced-cycle-count:4", None),
        ("induced-cycle-count:5", None),
        ("cfs", None),
        ("square-graph-connected", None),
    ],
)
def test_analytic_reference_of_every_tag_kind(tag, length):
    """mu5 for the pentagon tags, mu4 for the square tags, and no reference
    for the rest; mu4 and mu5 differ at (64, 0.1), so a swap shows."""
    from morsegraph import analytic
    from morsegraph.experiment import _analytic_reference

    moment = {4: analytic.expected_morse_squares, 5: analytic.expected_morse_pentagons}
    want = moment[length](64, 0.1) if length else None
    assert _analytic_reference(64, 0.1, P(tag)) == want


@pytest.mark.parametrize("affinity", [{0, 2, 5}, None])
def test_sweep_default_workers_follow_cpu_affinity(tmp_path, monkeypatch, affinity):
    import morsegraph.experiment as exp

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(exp, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(exp.os, "cpu_count", lambda: 7)
    if affinity is None:
        monkeypatch.delattr(exp.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(exp.os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
    cfg = SweepConfig.from_mapping(dict(BASE_CONFIG, trials=2, out=str(tmp_path / "w.jsonl")))
    run_sweep(cfg)
    assert started == [7 if affinity is None else len(affinity)]


def test_sweep_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    import morsegraph.experiment as exp

    sizes = []
    pool = exp.ProcessPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(exp, "ProcessPoolExecutor", recording)
    out = tmp_path / "w.jsonl"
    small = dict(BASE_CONFIG, ns=[12], properties=["cfs"], trials=2, out=str(out))
    run_sweep(SweepConfig.from_mapping(small), workers=4)
    assert sizes == [2]
    assert len(out.read_text().splitlines()) == 2


BASE_CONFIG = {
    "ns": [12, 16],
    "coefficients": [0.6],
    "properties": ["cfs", "morse-square-exists", "morse-cycle-count:5"],
    "trials": 6,
    "seed": 4242,
}


def test_sweep_config_validation(tmp_path):
    out = str(tmp_path / "t.jsonl")
    good = dict(BASE_CONFIG, out=out)
    SweepConfig.from_mapping(good)
    with_ps = {k: v for k, v in dict(good, ps=[0.1]).items() if k != "coefficients"}
    SweepConfig.from_mapping(with_ps)

    for field, value, stored in [
        ("ns", [np.int64(12)], (12,)),
        ("trials", np.int64(2), 2),
        ("seed", np.uint64(1), 1),
        ("seed", np.uint64(2**64 - 1), 2**64 - 1),
        ("coefficients", [np.float32(0.5), 1], (0.5, 1.0)),
        ("ps", [np.float32(0.25)], (0.25,)),
        ("z", np.float32(2.0), 2.0),
    ]:
        base = with_ps if field == "ps" else good
        got = getattr(SweepConfig.from_mapping(dict(base, **{field: value})), field)
        assert repr(got) == repr(stored)  # Python ints and floats, not numpy scalars

    for field, value in [
        ("trials", 0),
        ("trials", "ten"),
        ("trials", True),
        ("ns", []),
        ("ns", [1]),
        ("seed", "abc"),
        ("seed", False),
        ("seed", -1),
        ("seed", 2**64),
        ("z", -1),
        ("properties", []),
        ("properties", ["bogus"]),
        ("out", ""),
        ("coefficients", [True]),
        ("coefficients", [float("inf")]),  # json.load reads Infinity
        ("coefficients", [10**400]),  # beyond float range
        ("ps", [False]),
        ("z", True),
        ("z", float("inf")),
        ("z", 10**400),
        ("ns", [np.True_]),
        ("trials", np.True_),
        ("seed", np.False_),
        ("coefficients", [np.True_]),
        ("ps", [np.False_]),
        ("z", np.True_),
        ("ns", [np.float64(12)]),
        ("seed", np.int64(-1)),
    ]:
        base = with_ps if field == "ps" else good
        with pytest.raises(ConfigError) as err:
            SweepConfig.from_mapping(dict(base, **{field: value}))
        assert err.value.field == field

    with pytest.raises(ConfigError):
        SweepConfig.from_mapping({k: v for k, v in good.items() if k != "out"})
    with pytest.raises(ConfigError):
        SweepConfig.from_mapping(dict(good, ps=[0.1]))  # both density styles
    with pytest.raises(ConfigError):
        SweepConfig.from_mapping(dict(good, unknown_field=1))
    no_density = {k: v for k, v in good.items() if k != "coefficients"}
    with pytest.raises(ConfigError):
        SweepConfig.from_mapping(no_density)


def test_sweep_output_and_determinism(tmp_path):
    cfg_a = SweepConfig.from_mapping(dict(BASE_CONFIG, out=str(tmp_path / "a.jsonl")))
    # BASE_CONFIG's numbers as numpy scalars write the same trials
    numpy_config = dict(
        BASE_CONFIG, ns=[np.int64(12), np.int32(16)], coefficients=[np.float64(0.6)],
        trials=np.int64(6), seed=np.uint64(4242),
    )
    cfg_b = SweepConfig.from_mapping(dict(numpy_config, out=str(tmp_path / "b.jsonl")))
    summary_a = run_sweep(cfg_a, workers=1)
    summary_b = run_sweep(cfg_b, workers=3)

    strip = lambda path: [
        line.rsplit(',"elapsed_ms":', 1)[0] for line in Path(path).read_text().splitlines()
    ]
    assert strip(cfg_a.out) == strip(cfg_b.out)
    assert len(strip(cfg_a.out)) == 2 * 1 * 3 * 6

    # summary CSV is timing-free and must match byte for byte
    csv_a = Path(summary_a.csv_path).read_text()
    csv_b = Path(summary_b.csv_path).read_text()
    assert csv_a.splitlines()[0] == (
        "n,c,p,property,trials,successes_or_mean,estimate,"
        "wilson_lo,wilson_hi,analytic_ref"
    )
    assert csv_a == csv_b

    for cell in summary_a.cells:
        assert cell.errors == 0
        if cell.property_tag == "morse-cycle-count:5":
            assert cell.wilson_lo is None and cell.wilson_hi is None
        else:
            assert cell.wilson_lo is not None
            assert cell.wilson_lo <= cell.estimate <= cell.wilson_hi


# SHA-256 of the sweep JSONL (each line cut at its elapsed_ms), of the summary
# CSV, and of the witnesses of the existence tags, recorded when Morse squares
# still had a scan of their own; answering length 4 from the isolated-square
# scan must move none of them
GOLDEN_SWEEP_TAGS = [
    "morse-pentagon-exists",
    "morse-cycle-exists:4:8",
    "morse-square-exists",
    "square-isolated-exists",
    "square-graph-connected",
    "cfs",
    "induced-cycle-count:4",
    "morse-cycle-count:4",
    "morse-cycle-exists:4:4",
]
GOLDEN_SWEEP_DIGESTS = {
    "jsonl": "6149617024f6caf532f797514c62e88e7b788895c270269c659ce6b8310c0fe2",
    "csv": "dd64ecf86c7c44d5c9df7d22a874a62c30f1baaa99d981d7c651f954084f94fd",
    "witnesses": "f46ca546ce8872e817b3e2f44126757fad9effe1238e9ca5f17b273ac05ad8c3",
}


def test_sweep_golden(tmp_path):
    cfg = SweepConfig.from_mapping(
        {
            "ns": [14, 40, 150],
            "coefficients": [0.6, 1.2],
            "properties": GOLDEN_SWEEP_TAGS,
            "trials": 5,
            "seed": 99,
            "out": str(tmp_path / "golden.jsonl"),
        }
    )
    summary = run_sweep(cfg, workers=1)
    lines = [line.split(',"elapsed_ms":')[0] for line in Path(cfg.out).read_text().splitlines()]
    witnesses = []
    for n in cfg.ns:
        for point in cfg.density_points(n):
            for t in range(cfg.trials):
                g = sample_gnp(n, point.p, trial_seed(cfg.seed, t))
                for prop in cfg.properties:
                    if prop.name.endswith("-exists"):
                        witness = evaluate_property_with_witness(g, prop)[1]
                        witnesses.append([n, point.p, t, prop.tag, witness])
    digest = lambda data: hashlib.sha256(data).hexdigest()
    assert {
        "jsonl": digest("\n".join(lines).encode()),
        "csv": digest(Path(summary.csv_path).read_bytes()),
        "witnesses": digest(json.dumps(witnesses).encode()),
    } == GOLDEN_SWEEP_DIGESTS


def test_sweep_cross_property_identity(tmp_path):
    # the two square-existence tags must agree trial by trial on the same
    # graph, in outcome and in witness
    cfg = SweepConfig.from_mapping(
        {
            "ns": [20],
            "ps": [0.25],
            "properties": ["morse-square-exists", "square-isolated-exists"],
            "trials": 25,
            "seed": 31415,
            "out": str(tmp_path / "x.jsonl"),
        }
    )
    run_sweep(cfg, workers=2)
    records = [json.loads(line) for line in Path(cfg.out).read_text().splitlines()]
    assert all(record["c"] is None for record in records)  # explicit-p sweep
    by_property = {}
    for record in records:
        by_property.setdefault(record["property"], []).append(record["outcome"])
    assert by_property["morse-square-exists"] == by_property["square-isolated-exists"]
    for t in range(cfg.trials):
        g = sample_gnp(20, 0.25, trial_seed(cfg.seed, t))
        morse, isolated = (evaluate_property_with_witness(g, prop) for prop in cfg.properties)
        assert morse == isolated


def test_sweep_fails_on_error_rate(tmp_path, monkeypatch):
    import morsegraph.experiment as exp

    def flaky(g, prop):
        raise CapacityExceeded("forced failure")

    monkeypatch.setattr(exp, "evaluate_property", flaky)
    cfg = SweepConfig.from_mapping(
        {
            "ns": [8],
            "ps": [0.3],
            "properties": ["cfs"],
            "trials": 4,
            "seed": 1,
            "out": str(tmp_path / "err.jsonl"),
        }
    )
    with pytest.raises(TrialErrorRateExceeded):
        run_sweep(cfg, workers=1)
    # the JSONL still records every trial, tagged with the error
    records = [json.loads(line) for line in Path(cfg.out).read_text().splitlines()]
    assert len(records) == 4
    assert all(r["outcome"] is None and r["error"] for r in records)


@pytest.mark.parametrize(
    "max_n,subsets", [(20, 5), (13, 5), (4, 5), (3, 5), (6, -1), (6, -4), (5.5, 5), (6, 1.5)]
)
def test_oracle_suite_rejects_out_of_range(max_n, subsets):
    with pytest.raises(InvalidParameter):
        run_oracle_suite(max_n=max_n, subsets_per_graph=subsets)


@pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2"])
def test_sweep_rejects_nonpositive_workers(tmp_path, workers):
    cfg = SweepConfig.from_mapping(dict(BASE_CONFIG, out=str(tmp_path / "w.jsonl")))
    with pytest.raises(InvalidParameter, match="workers"):
        run_sweep(cfg, workers=workers)
    assert not (tmp_path / "w.jsonl").exists()


def test_oracle_suite_small():
    report = run_oracle_suite(max_n=6, subsets_per_graph=15, master_seed=5)
    assert report["ok"] is True
    assert report["oracle_disagreements"] == 0
    assert report["graphs"] == 18
