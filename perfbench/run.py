"""Sweep benchmark for morsegraph: throughput, CPU, memory and set-up of ``run_sweep``.

Run from the repository root:

    python3 perfbench/run.py --workload dfs-full --seed 1 --seconds 30 --trace 0

``--trace 0`` measures one workload: it repeats whole passes of the
workload's sweeps through ``experiment.run_sweep``, over the same seeds,
until ``--seconds`` have passed (at least three passes), with two
fresh-interpreter set-ups timed before each pass.  Every time is scaled to a
fixed reference speed by a reference task timed next to it; the run takes
the median of each sweep's repeats, checks every trial, and prints the
end-to-end metrics.
``--trace 1`` runs the first rounds of every workload, re-executes the same
trials with spans around each call into the program, and prints the
per-layer metrics of all workloads, so that each traced run carries the full
per-layer set (``--workload`` and ``--seconds`` only name the run).  The
last line of stdout is the JSON result; spans and results are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from oracles import isolated_square_violation, morse_cycle_violation, reference_rows, square_graph_summary
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# One BLAS thread per process, so that the load is this process plus at most
# nproc pool workers.  With OpenBLAS's default of a thread per core, the
# helper threads of the sampler's and the prefilter's matrix products spin
# after each call: on a 2-core machine dfs-full read 2.5-3.8 trials/s from
# run to run, and early-exit ran 1.3 instead of 2.3 trials/s.  Set before
# numpy is imported; the set-up probes and the pool workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
if not (ROOT / "src" / "morsegraph" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program sources at {ROOT / 'src' / 'morsegraph'}")
sys.path.insert(0, str(ROOT / "src"))

from morsegraph.cycles import enumerate_induced_squares, morse_pruned_cycle_search  # noqa: E402
from morsegraph.errors import TrialErrorRateExceeded  # noqa: E402
from morsegraph.experiment import (  # noqa: E402
    CFS,
    MORSE_CYCLE_COUNT,
    MORSE_CYCLE_EXISTS,
    MORSE_PENTAGON_EXISTS,
    SQUARE_ISOLATED_EXISTS,
    PropertyKind,
    evaluate_property_with_witness,
    run_sweep,
    run_trial,
)
from morsegraph.gnp import sample_gnp, trial_seed  # noqa: E402
from morsegraph.morse import count_morse_cycles  # noqa: E402
from morsegraph.squares import build_square_graph, components, has_isolated_square, is_cfs  # noqa: E402
from workloads import WORKLOADS, property_checks, round_seed  # noqa: E402

SETUP_RUNS_PER_PASS = 2
# Every time metric is given at reference speed: scaled to a host on which
# the reference task (``reference_seconds``) takes this long.  See the
# README's "Measured" section for why.
REF_NOMINAL_S = 0.025
REF_GRAPH = None  # adjacency bitsets of the reference task's fixed graph
MIN_PASSES = 3
SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import morsegraph\n"
    "morsegraph.sample_gnp(256, 0.1, int(sys.argv[1]))\n"
    "print(time.perf_counter() - t)\n"
)
WITNESS_PROPERTIES = (MORSE_PENTAGON_EXISTS, MORSE_CYCLE_EXISTS, SQUARE_ISOLATED_EXISTS)
CPUS = sorted(os.sched_getaffinity(0))


@dataclass
class Trial:
    """One trial of a sweep: its inputs, what the sweep wrote, and why it failed."""

    cell: str
    n: int
    c: float | None
    p: float
    prop: PropertyKind
    seed: int
    index: int
    outcome: object = None
    elapsed_ms: float = 0.0
    problem: str | None = None

    @property
    def key(self) -> str:
        return f"{self.cell}/{self.seed}/{self.index}"

    def graph(self):
        return sample_gnp(self.n, self.p, trial_seed(self.seed, self.index))

    def fail(self, why: str) -> None:
        if self.problem is None:
            self.problem = why


def sweep_trials(sweep, cfg) -> list[Trial]:
    """The trials of ``cfg`` in the order ``run_sweep`` writes them."""
    trials = []
    names = iter(sweep.cells)
    for n in cfg.ns:
        for point in cfg.density_points(n):
            for prop in cfg.properties:
                cell = next(names)
                trials += [Trial(cell, n, point.c, point.p, prop, cfg.seed, t) for t in range(cfg.trials)]
    return trials


def read_records(trials: list[Trial], path: str) -> None:
    """Check each JSONL line against its trial; keep its outcome and elapsed_ms."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if len(lines) != len(trials):
        for t in trials:
            t.fail(f"{path} has {len(lines)} lines for {len(trials)} trials")
        return
    for t, line in zip(trials, lines):
        rec = json.loads(line)
        t.elapsed_ms = rec.pop("elapsed_ms")
        t.outcome = rec.pop("outcome")
        error = rec.pop("error")
        want = {"n": t.n, "c": t.c, "p": t.p, "property": t.prop.tag, "seed": t.seed, "trial": t.index}
        if rec != want:
            t.fail(f"record {rec} is not trial {want}")
        elif error is not None:
            t.fail(error)
        elif t.prop.is_count and not (type(t.outcome) is int and t.outcome >= 0):
            t.fail(f"count outcome {t.outcome!r}")
        elif not t.prop.is_count and type(t.outcome) is not bool:
            t.fail(f"outcome {t.outcome!r} is not a bool")


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def probe_loop() -> None:
    s = 0
    for i in range(20000):
        s += i * i % 7


def place(workers: int) -> None:
    """Pin this process to the CPU on which a short loop runs fastest now.

    On a shared host each CPU has spells of some seconds in which everything
    on it runs up to twice as slowly, and the spells of different CPUs come
    and go independently.  A single-process sweep is pinned to the CPU that
    is fast at its start; a sweep on a pool needs every CPU, so it is not.
    """
    if workers > 1 or len(CPUS) == 1:
        os.sched_setaffinity(0, CPUS)
        return
    best = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            probe_loop()
            times.append(time.perf_counter() - t0)
        best.append((min(times), cpu))
    os.sched_setaffinity(0, {min(best)[1]})


def reference_seconds() -> float:
    """Time of one fixed pure-Python task from the benchmark's own oracles."""
    global REF_GRAPH
    if REF_GRAPH is None:
        REF_GRAPH = reference_rows(96, 0.15, 3)
    t0 = time.perf_counter()
    square_graph_summary(REF_GRAPH)
    return time.perf_counter() - t0


def run_one(workload, sweep, seed: int, tmp: str):
    """Run one sweep config through ``run_sweep``.

    Returns its trials, wall seconds, CPU seconds and the mean time of the
    reference task run just before and just after it.
    """
    cfg = sweep.config(seed, os.path.join(tmp, f"sweep-{seed}.jsonl"))
    place(workload.workers)
    ref0 = reference_seconds()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        run_sweep(cfg, workers=workload.workers)
    except TrialErrorRateExceeded:
        pass  # files are written; the errored trials are counted below
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    ref = (ref0 + reference_seconds()) / 2
    trials = sweep_trials(sweep, cfg)
    read_records(trials, cfg.out)
    return trials, wall, cpu, ref


def run_round(workload, seed: int, r: int, tmp: str):
    """Run each sweep of one round once; return its trials and overhead."""
    trials: list[Trial] = []
    overhead_ms = 0.0
    for i, sweep in enumerate(workload.sweeps):
        batch, wall, _, _ = run_one(workload, sweep, round_seed(seed, r, i), tmp)
        overhead_ms += workload.workers * wall * 1000.0 - sum(t.elapsed_ms for t in batch)
        trials += batch
    return trials, overhead_ms


# ---------------------------------------------------------------------------
# Checks against the independent oracles
# ---------------------------------------------------------------------------


def witness_problem(t: Trial, rows, witness) -> str | None:
    if witness is None:
        return "no witness for a positive outcome"
    if t.prop.name == SQUARE_ISOLATED_EXISTS:
        return isolated_square_violation(rows, witness)
    kmin, kmax = (5, 5) if t.prop.name == MORSE_PENTAGON_EXISTS else (t.prop.kmin, t.prop.kmax)
    return morse_cycle_violation(rows, witness, kmin, kmax)


def check_sampler(trials: list[Trial]) -> None:
    """``sample_gnp`` against the reference sampler on the first graph with n <= 1024."""
    t = next(t for t in trials if t.n <= 1024)
    if list(t.graph().rows) != reference_rows(t.n, t.p, trial_seed(t.seed, t.index)):
        t.fail("sample_gnp differs from the reference sampler")


def check_square_graphs(trials: list[Trial]) -> None:
    """Square count, diagonals, components and CFS against the oracle, once per cfs cell."""
    seen = set()
    for t in trials:
        if t.prop.name != CFS or t.cell in seen:
            continue
        seen.add(t.cell)
        g = t.graph()
        sq = build_square_graph(g)
        got = {"squares": len(sq), "diagonals": len(sq.diagonal_index),
               "components": len(components(sq)), "cfs": is_cfs(g, sq)}
        want = square_graph_summary(g.rows)
        if got != want or t.outcome != want["cfs"]:
            t.fail(f"square graph {got}, outcome {t.outcome} != oracle {want}")


def check_first_witnesses(trials: list[Trial]) -> None:
    """Re-derive and check the witness of the first positive trial of each witness cell."""
    seen = set()
    for t in trials:
        if t.prop.name not in WITNESS_PROPERTIES or t.outcome is not True or t.cell in seen:
            continue
        seen.add(t.cell)
        g = t.graph()
        value, witness = evaluate_property_with_witness(g, t.prop)
        problem = witness_problem(t, g.rows, witness) if value is True else f"re-evaluated as {value!r}"
        if problem:
            t.fail(problem)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def setup_times(seed: int, runs: int) -> list[tuple[float, float]]:
    """Times for fresh interpreters to import morsegraph and sample once.

    Each comes with the mean time of the reference task run just before and
    just after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    times = []
    for _ in range(runs):
        place(1)  # the probe inherits the pin
        ref0 = reference_seconds()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(seed)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append((float(proc.stdout.split()[-1]), (ref0 + reference_seconds()) / 2))
    return times


def check_repeats(first: list[Trial], again: list[Trial]) -> None:
    """A repeated sweep must give the same outcome for every trial."""
    for a, b in zip(first, again):
        if b.outcome != a.outcome or type(b.outcome) is not type(a.outcome):
            b.fail(f"outcome {b.outcome!r} differs from the first pass's {a.outcome!r}")


def measure(workload, seed: int, seconds: float):
    setup: list[tuple[float, float]] = []  # set-up probes, a few before each pass
    jobs = [(sweep, round_seed(seed, r, i))
            for r in range(workload.rounds) for i, sweep in enumerate(workload.sweeps)]
    # passes[k][j]: (trials, wall, cpu, ref) of job j in pass k.  A job's
    # repeats lie a whole pass apart, so their median is not moved by a slow
    # spell of the host that covers fewer than half of them.
    passes: list[list] = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        while True:
            setup += setup_times(seed, SETUP_RUNS_PER_PASS)
            passes.append([run_one(workload, sweep, s, tmp) for sweep, s in jobs])
            # Stop once another pass, at the mean pass time so far, would end
            # after ``seconds``.
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    first = [t for trials, *_ in passes[0] for t in trials]
    for later in passes[1:]:
        check_repeats(first, [t for trials, *_ in later for t in trials])
    check_sampler(first)
    check_square_graphs(first)
    check_first_witnesses(first)

    def per_pass(value) -> float:
        """Sum over the jobs of a pass of each job's median over the passes."""
        return sum(statistics.median(value(p[j]) for p in passes) for j in range(len(jobs)))

    # Times at reference speed: each one scaled by REF_NOMINAL_S over the
    # reference task's time next to it.
    wall = per_pass(lambda job: job[1] * REF_NOMINAL_S / job[3])
    cpu = per_pass(lambda job: job[2] * REF_NOMINAL_S / job[3])
    setup_s = statistics.median(t * REF_NOMINAL_S / ref for t, ref in setup)
    raw_wall = per_pass(lambda job: job[1])
    raw_cpu = per_pass(lambda job: job[2])
    ref_ms = 1000.0 * statistics.median([job[3] for p in passes for job in p] + [ref for _, ref in setup])
    trials = [t for p in passes for batch, *_ in p for t in batch]
    lines = [f"{workload.name}: {len(passes)} passes of {len(first)} trials "
             f"({workload.rounds} rounds), {len(trials)} trials, workers {workload.workers}",
             "  pass wall s: " + " ".join(f"{sum(job[1] for job in p):.2f}" for p in passes),
             f"  reference task {ref_ms:.2f} ms (nominal {1000.0 * REF_NOMINAL_S:.0f} ms); unscaled: "
             f"{len(first) / raw_wall:.4g} trials/s, {raw_cpu * 1000.0 / len(first):.4g} ms CPU/trial, "
             f"set-up {statistics.median(t for t, _ in setup):.4g} s"]
    metrics = {
        "trials_per_s": {"value": len(first) / wall, "unit": "trials/s"},
        "cpu_ms_per_trial": {"value": cpu * 1000.0 / len(first), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return trials, first, metrics, lines


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def traced_trial(tracer: Tracer, t: Trial):
    """Re-execute one trial, with a span around each call into the program."""
    name = t.prop.name
    witness = None
    with tracer.span("experiment.trial"):
        g = tracer.call("gnp.sample_gnp", sample_gnp, t.n, t.p, trial_seed(t.seed, t.index))
        if name in (MORSE_PENTAGON_EXISTS, MORSE_CYCLE_EXISTS):
            kmin, kmax = (5, 5) if name == MORSE_PENTAGON_EXISTS else (t.prop.kmin, t.prop.kmax)
            found = tracer.call("cycles.morse_pruned_cycle_search", morse_pruned_cycle_search, g, kmin, kmax)
            outcome = found is not None
            witness = list(found.vertices) if found else None
            tracer.counts["cycles.witnesses"] += outcome
        elif name == MORSE_CYCLE_COUNT:
            outcome = tracer.call("morse.count_morse_cycles", count_morse_cycles, g, t.prop.k)
            tracer.counts["morse.cycles"] += outcome
        elif name == SQUARE_ISOLATED_EXISTS:
            found = tracer.call("squares.has_isolated_square", has_isolated_square, g)
            outcome = found is not None
            witness = list(found) if found else None
        elif name == CFS:
            sq = tracer.call("squares.build_square_graph", build_square_graph, g)
            comps = tracer.call("squares.components", components, sq)
            outcome = tracer.call("squares.is_cfs", is_cfs, g, sq)
            tracer.counts["squares.components"] += len(comps)
            tracer.counts["squares.diagonals"] += len(sq.diagonal_index)
        else:
            raise ValueError(f"no traced path for {t.prop.tag}")
    tracer.counts["gnp.edges"] += g.m
    tracer.counts["gnp.pairs"] += t.n * (t.n - 1) // 2
    return g, outcome, witness


def exhaust_squares(g) -> int:
    return sum(1 for _ in enumerate_induced_squares(g))


def scan_peak_mb(first_graphs: dict) -> float:
    """Peak allocation while building the square graph or scanning for isolated squares."""
    peak = 0
    for t, g in first_graphs.values():
        fn = {CFS: build_square_graph, SQUARE_ISOLATED_EXISTS: has_isolated_square}.get(t.prop.name)
        if fn is None:
            continue
        tracemalloc.start()
        try:
            fn(g)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def trace_workload(workload, seed: int, tmp: str):
    trials: list[Trial] = []
    overhead_ms = 0.0
    for r in range(workload.trace_rounds):
        batch, overhead = run_round(workload, seed, r, tmp)
        trials += batch
        overhead_ms += overhead
    tracer = Tracer()
    first_graphs = {}
    untraced = 0.0
    for i, t in enumerate(trials):
        # The same trial untraced, in this process, alternately before and
        # after the traced one: the difference of the totals is the tracing
        # overhead.  The sweep's own elapsed_ms ran under the pool.
        if i % 2:
            untraced += run_trial(t.n, t.p, t.prop, t.seed, t.index, c=t.c).elapsed_ms
        tracer.trial = t.key
        g, outcome, witness = traced_trial(tracer, t)
        if not i % 2:
            untraced += run_trial(t.n, t.p, t.prop, t.seed, t.index, c=t.c).elapsed_ms
        first_graphs.setdefault(t.cell, (t, g))
        if outcome != t.outcome or type(outcome) is not type(t.outcome):
            t.fail(f"traced outcome {outcome!r} != sweep outcome {t.outcome!r}")
        if t.prop.name in WITNESS_PROPERTIES and outcome is True:
            problem = witness_problem(t, g.rows, witness)
            if problem:
                t.fail(problem)
        if t.prop.name == CFS:  # a separate pass, outside the trial span
            tracer.counts["cycles.squares"] += tracer.call("cycles.enumerate_induced_squares", exhaust_squares, g)
    tracer.trial = None
    check_sampler(trials)
    check_square_graphs(trials)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl")

    own = tracer.self_ms_by_name()
    counts = tracer.counts
    metrics = {}

    def put(name, value, unit):
        metrics[f"{workload.name}.{name}"] = {"value": value, "unit": unit}

    put("gnp.sample_ms", own["gnp.sample_gnp"], "ms")
    put("gnp.mpairs_per_s", counts["gnp.pairs"] / (own["gnp.sample_gnp"] * 1000.0), "Mpairs/s")
    put("gnp.edges", counts["gnp.edges"], "count")
    if "cycles.morse_pruned_cycle_search" in own:
        put("cycles.search_ms", own["cycles.morse_pruned_cycle_search"], "ms")
        put("cycles.witnesses", counts["cycles.witnesses"], "count")
    if "morse.count_morse_cycles" in own:
        put("morse.count_ms", own["morse.count_morse_cycles"], "ms")
        put("morse.cycles", counts["morse.cycles"], "count")
    if "cycles.enumerate_induced_squares" in own:
        put("cycles.enumerate_squares_ms", own["cycles.enumerate_induced_squares"], "ms")
        put("cycles.squares", counts["cycles.squares"], "count")
    if "squares.build_square_graph" in own:
        put("squares.build_ms", own["squares.build_square_graph"], "ms")
        put("squares.components_ms", own["squares.components"], "ms")
        put("squares.components", counts["squares.components"], "count")
        put("squares.diagonals", counts["squares.diagonals"], "count")
    if "squares.has_isolated_square" in own:
        put("squares.isolated_scan_ms", own["squares.has_isolated_square"], "ms")
    if any(t.prop.name in (CFS, SQUARE_ISOLATED_EXISTS) for t in trials):
        put("squares.scan_peak_mb", scan_peak_mb(first_graphs), "MB")
    for cell in workload.cells:
        put(f"experiment.trial_ms_p50.{cell}",
            statistics.median(t.elapsed_ms for t in trials if t.cell == cell), "ms")
    put("experiment.overhead_ms", overhead_ms, "ms")
    traced = tracer.duration_ms("experiment.trial")
    put("trace.untraced_ms", untraced, "ms")
    put("trace.traced_ms", traced, "ms")
    put("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%")
    lines = [f"{workload.name}: traced {len(trials)} trials, {len(tracer.spans)} spans; "
             f"traced {traced:.1f} ms vs untraced {untraced:.1f} ms "
             f"(tracing overhead {100.0 * (traced - untraced) / untraced:+.1f}%)"]
    return trials, metrics, lines


def outcomes_by_cell(trials: list[Trial]):
    """Outcomes and densities per cell, over the trials that did not fail."""
    outcomes: dict[str, list] = {}
    ps: dict[str, float] = {}
    for t in trials:
        outcomes.setdefault(t.cell, [])
        ps[t.cell] = t.p
        if t.problem is None:
            outcomes[t.cell].append(t.outcome)
    return outcomes, ps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40 or args.seconds < 1:
        parser.error("need 0 <= --seed < 2**40 and --seconds >= 1")
    OUT.mkdir(exist_ok=True)

    all_trials: list[Trial] = []
    metrics: dict = {}
    lines: list[str] = []
    checks: list[str] = []
    if args.trace:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for workload in WORKLOADS.values():
                trials, m, ls = trace_workload(workload, args.seed, tmp)
                all_trials += trials
                metrics.update(m)
                lines += ls
                checks += property_checks(workload.name, *outcomes_by_cell(trials))
    else:
        workload = WORKLOADS[args.workload]
        all_trials, first, metrics, lines = measure(workload, args.seed, args.seconds)
        checks = property_checks(workload.name, *outcomes_by_cell(first))

    failed = [t for t in all_trials if t.problem is not None]
    for line in lines + checks:
        print(line)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {len(all_trials)} trials, failed {len(failed)}")
    for t in failed[:20]:
        print(f"FAILED {t.key}: {t.problem}", file=sys.stderr)
    result = {
        "correct": all(line.startswith("PASS") for line in checks),
        "attempted": len(all_trials),
        "failed": len(failed),
        "metrics": metrics,
    }
    text = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
