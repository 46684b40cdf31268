"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line with the measured
numbers (visible with ``pytest -s``) and asserts the stated tolerance.
The Monte Carlo criteria run through the real sweep harness with fixed
master seeds.
"""

import json
import math
import random
import statistics
import time
from pathlib import Path

import pytest

from morsegraph import (
    build_square_graph,
    count_morse_cycles,
    enumerate_induced_cycles,
    exhaustive_small_n_expectation,
    expected_morse_pentagons,
    has_isolated_square,
    is_morse_subgraph,
    isolated_count,
    morse_oracle,
    run_sweep,
    sample_gnp,
    trial_seed,
    wilson_interval,
)
from morsegraph.analytic import conditional_link_probability
from morsegraph.experiment import PropertyKind, SweepConfig, evaluate_property
from morsegraph.gnp import density_from_coefficient

P = PropertyKind.parse
WORKERS = 2


def announce(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def run_cells(tmp_path, name, **config):
    cfg = SweepConfig.from_mapping(dict(config, out=str(tmp_path / f"{name}.jsonl")))
    return run_sweep(cfg, workers=WORKERS).cells


def test_criterion_01_oracle_equivalence(corpus_n12):
    start = time.perf_counter()
    graphs = len(corpus_n12)
    checked = 0
    disagreements = 0
    for index, g in enumerate(corpus_n12):
        subsets = []
        for k in range(3, g.n + 1):
            subsets.extend(w.vertices for w in enumerate_induced_cycles(g, k))
        rng = random.Random(0xACCE55 + index)
        subsets.extend(
            tuple(rng.sample(range(g.n), rng.randint(0, g.n))) for _ in range(100)
        )
        for s in subsets:
            checked += 1
            if is_morse_subgraph(g, s) != morse_oracle(g, s):
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and graphs >= 500 and elapsed < 60.0
    assert announce(
        1,
        ok,
        f"{graphs} graphs, {checked} subsets, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_02_cross_module_identity(corpus_n12, corpus_n40):
    start = time.perf_counter()
    violations = 0
    graphs = 0
    for g in list(corpus_n12) + list(corpus_n40):
        graphs += 1
        morse_squares = count_morse_cycles(g, 4)
        exists_via_morse = evaluate_property(g, P("morse-square-exists"))
        exists_via_square_graph = evaluate_property(g, P("square-isolated-exists"))
        isolated = isolated_count(build_square_graph(g))
        if exists_via_morse != exists_via_square_graph:
            violations += 1
        if isolated != morse_squares:
            violations += 1
        if exists_via_square_graph != (isolated > 0):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    assert announce(
        2, ok, f"{graphs} graphs (n up to 40), {violations} violations, {elapsed:.1f}s"
    )


def test_criterion_03_conditional_link_probabilities():
    import numpy as np

    start = time.perf_counter()
    p = 0.3
    samples = 1_000_000
    rng = np.random.default_rng(33)
    edges = rng.random((samples, 4)) < p
    e1, e2, e3, e4 = edges.T
    cases = {
        1: (e1, ~((e1 & e2) | (e1 & e3)), 0.173554),
        2: (e1 & e2, ~(e2 & e3), 0.069231),
        3: (e1 & e2, ~((e1 & e3) | (e2 & e4)), 0.053254),
    }
    details = []
    ok = True
    for which, (event, condition, quoted) in cases.items():
        exact = conditional_link_probability(p, which)
        assert abs(exact - quoted) < 5e-7  # stated closed-form values
        kept = int(condition.sum())
        estimate = int((event & condition).sum()) / kept
        se = math.sqrt(estimate * (1.0 - estimate) / kept)
        ok = ok and abs(estimate - exact) <= 4.0 * se
        details.append(f"({which}) {estimate:.6f} vs {exact:.6f} +-{4*se:.6f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert announce(3, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_04_below_threshold_pentagons(tmp_path):
    cells = run_cells(
        tmp_path,
        "c4",
        ns=[256, 512],
        coefficients=[0.5],
        properties=["morse-pentagon-exists"],
        trials=100,
        seed=2404,
    )
    fractions = {cell.n: cell.estimate for cell in cells}
    mu = expected_morse_pentagons(256, density_from_coefficient(0.5, 256).p)
    ok = all(fraction >= 0.90 for fraction in fractions.values())
    assert announce(
        4, ok, f"success fractions {fractions} (first-moment reference {mu:.0f})"
    )


def test_criterion_05_above_threshold_scarcity(tmp_path):
    [cell] = run_cells(
        tmp_path,
        "c5",
        ns=[256],
        coefficients=[0.95],
        properties=["morse-cycle-exists:5:8"],
        trials=100,
        seed=2405,
    )
    ok = cell.estimate <= 0.05
    assert announce(5, ok, f"success fraction {cell.estimate:.3f} at n=256, c=0.95")


def test_criterion_06_isolated_square_threshold(tmp_path):
    cells = run_cells(
        tmp_path,
        "c6",
        ns=[512],
        coefficients=[0.9, 1.2],
        properties=["square-isolated-exists"],
        trials=100,
        seed=2406,
    )
    fractions = {cell.c: cell.estimate for cell in cells}
    ok = fractions[0.9] >= 0.85 and fractions[1.2] <= 0.15
    assert announce(
        6,
        ok,
        f"fractions {fractions} (references mu4={ {c: round(cell.analytic_ref, 3) for c, cell in zip([0.9, 1.2], cells)} })",
    )


def test_criterion_07_cfs_separation(tmp_path):
    tau = 0.670435 * 1024 ** -0.5
    cells = run_cells(
        tmp_path,
        "c7",
        ns=[1024],
        ps=[0.7 * tau, 1.3 * tau],
        properties=["cfs"],
        trials=100,
        seed=2407,
    )
    low, high = cells[0].estimate, cells[1].estimate
    ok = high - low >= 0.5
    assert announce(
        7, ok, f"cfs fraction {high:.2f} at 1.3*tau vs {low:.2f} at 0.7*tau (gap {high-low:.2f})"
    )


def test_criterion_08_exact_small_n_expectation():
    start = time.perf_counter()
    exact5 = exhaustive_small_n_expectation(5, 0.5, P("morse-cycle-count:5"))
    exact_matches = exact5 == 12 / 1024

    exact7 = exhaustive_small_n_expectation(7, 0.3, P("morse-cycle-count:5"))
    trials = 100_000
    prop = P("morse-cycle-count:5")
    values = [
        evaluate_property(sample_gnp(7, 0.3, trial_seed(2408, t)), prop)
        for t in range(trials)
    ]
    mean = statistics.fmean(values)
    se = statistics.stdev(values) / math.sqrt(trials)
    within = abs(mean - exact7) <= 4.0 * se
    elapsed = time.perf_counter() - start
    ok = exact_matches and within and elapsed < 600.0
    assert announce(
        8,
        ok,
        f"exact(5)={exact5} == 12/1024: {exact_matches}; "
        f"mc mean {mean:.5f} vs exact(7) {exact7:.5f} +-{4*se:.5f}, {elapsed:.0f}s",
    )


def test_criterion_09_sweep_determinism(tmp_path):
    config = {
        "ns": [24, 32],
        "coefficients": [0.5, 1.0],
        "properties": [
            "morse-cycle-exists:5:8",
            "cfs",
            "square-isolated-exists",
            "morse-cycle-count:5",
        ],
        "trials": 20,
        "seed": 2409,
    }
    cfg_one = SweepConfig.from_mapping(dict(config, out=str(tmp_path / "one.jsonl")))
    cfg_eight = SweepConfig.from_mapping(dict(config, out=str(tmp_path / "eight.jsonl")))
    run_sweep(cfg_one, workers=1)
    run_sweep(cfg_eight, workers=8)

    def stripped(path):
        return [
            line.rsplit(',"elapsed_ms":', 1)[0]
            for line in Path(path).read_bytes().decode("ascii").splitlines()
        ]

    lines_one = stripped(cfg_one.out)
    lines_eight = stripped(cfg_eight.out)
    ok = lines_one == lines_eight and len(lines_one) == 2 * 2 * 4 * 20
    assert announce(
        9, ok, f"{len(lines_one)} trial lines identical across worker counts 1 and 8"
    )


def test_criterion_10_first_moment_diagnostic(tmp_path):
    [cell] = run_cells(
        tmp_path,
        "c10",
        ns=[256],
        coefficients=[0.5],
        properties=["morse-cycle-count:5"],
        trials=100,
        seed=2410,
    )
    mu = cell.analytic_ref
    mean = cell.successes_or_mean
    ok = mu is not None and 1.0 * mu <= mean <= 4.0 * mu
    assert announce(
        10, ok, f"mean Morse 5-cycle count {mean:.1f} vs first moment {mu:.1f} "
        f"(ratio {mean / mu:.2f}, band [1, 4])"
    )
