"""The benchmark's workloads: sweep configs, cell names and property checks.

A workload is a list of sweep configs, all run through ``run_sweep`` with one
worker count.  One *round* runs each config once from its own master seed; a
*pass* runs the workload's ``rounds`` distinct rounds, and a run repeats whole
passes over the same seeds, so every run attempts the same mix of cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from morsegraph.analytic import expected_morse_pentagons
from morsegraph.experiment import SweepConfig, wilson_interval

# Criterion 07's CFS threshold density at n = 1024: tau = 0.670435 / sqrt(n).
TAU_1024 = 0.670435 * 1024**-0.5

# A run has far fewer trials per cell than the acceptance suite's 100, and its
# seeds vary, so a bound on a fraction or mean counts as broken only when the
# whole 99.9% interval of the run's estimate lies beyond it.
Z = 3.29


@dataclass(frozen=True)
class Sweep:
    ns: tuple[int, ...]
    density: tuple[str, tuple[float, ...]]  # ("coefficients" | "ps", values)
    prop: str
    trials: int
    cells: tuple[str, ...]  # cell names in run_sweep's order (n, then density)

    def config(self, seed: int, out: str) -> SweepConfig:
        key, values = self.density
        return SweepConfig.from_mapping(
            {"ns": list(self.ns), key: list(values), "properties": [self.prop],
             "trials": self.trials, "seed": seed, "out": out}
        )


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    rounds: int  # distinct rounds (graph sets) in one pass
    trace_rounds: int  # rounds a traced run re-executes
    sweeps: tuple[Sweep, ...]

    @property
    def cells(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(c for s in self.sweeps for c in s.cells))


WORKLOADS = {
    w.name: w
    for w in (
        # The Morse-pruned DFS does ~99% of the work; the square layer none.
        # One trial per sweep, so that each trial is placed and timed alone.
        Workload("dfs-full", 1, 3, 2, (
            Sweep((256,), ("coefficients", (0.5,)), "morse-cycle-count:5", 1,
                  ("count5_n256_c0.5",)),
            Sweep((256,), ("coefficients", (0.95,)), "morse-cycle-exists:5:8", 1,
                  ("exists5-8_n256_c0.95",)),
            Sweep((256,), ("coefficients", (0.95,)), "morse-cycle-exists:5:8", 1,
                  ("exists5-8_n256_c0.95",)),
        )),
        # Diagonal prefilter, square enumeration and components; no DFS.
        Workload("square-graph", 1, 4, 2, (
            Sweep((1024,), ("ps", (0.7 * TAU_1024,)), "cfs", 1, ("cfs_n1024_0.7tau",)),
            Sweep((1024,), ("ps", (1.3 * TAU_1024,)), "cfs", 1, ("cfs_n1024_1.3tau",)),
            Sweep((512,), ("coefficients", (1.2,)), "square-isolated-exists", 1,
                  ("isolated_n512_c1.2",)),
        )),
        # Answers come from the first candidates: sampling, per-graph set-up
        # (the dense prefilter) and the process pool dominate.
        Workload("early-exit", 2, 3, 1, (
            Sweep((1024, 4096), ("coefficients", (0.5,)), "morse-pentagon-exists", 2,
                  ("pentagon_n1024_c0.5", "pentagon_n4096_c0.5")),
            Sweep((1024, 4096), ("coefficients", (0.9,)), "square-isolated-exists", 2,
                  ("isolated_n1024_c0.9", "isolated_n4096_c0.9")),
        )),
    )
}


def round_seed(seed: int, round_index: int, sweep_index: int) -> int:
    """Master seed of one sweep config in one round of a run started with ``seed``."""
    return seed * 1000 + round_index * 10 + sweep_index


def property_checks(name: str, outcomes: dict[str, list], ps: dict[str, float]) -> list[str]:
    """The paper's statements at these scales, with the acceptance suite's bounds.

    ``outcomes`` maps cell names to the trial outcomes of a run, ``ps`` to
    their densities.  Returns one line per statement, each starting with
    ``PASS`` or ``FAIL``.
    """
    empty = [cell for cell, values in outcomes.items() if not values]
    if empty:
        return [f"FAIL {cell}: no trial passed its checks" for cell in empty]
    lines = []

    def fraction(cell: str) -> tuple[float, float, float, int]:
        values = outcomes[cell]
        hits = sum(1 for v in values if v is True)
        lo, hi = wilson_interval(hits, len(values), Z)
        return hits / len(values), lo, hi, len(values)

    def at_least(cell: str, bound: float) -> None:
        f, lo, hi, t = fraction(cell)
        ok = hi >= bound
        lines.append(f"{'PASS' if ok else 'FAIL'} {cell}: fraction {f:.3f} of {t} "
                     f"(interval [{lo:.3f}, {hi:.3f}]) >= {bound}")

    def at_most(cell: str, bound: float) -> None:
        f, lo, hi, t = fraction(cell)
        ok = lo <= bound
        lines.append(f"{'PASS' if ok else 'FAIL'} {cell}: fraction {f:.3f} of {t} "
                     f"(interval [{lo:.3f}, {hi:.3f}]) <= {bound}")

    if name == "dfs-full":
        at_most("exists5-8_n256_c0.95", 0.05)
        cell = "count5_n256_c0.5"
        values = outcomes[cell]
        mu = expected_morse_pentagons(256, ps[cell])
        mean = sum(values) / len(values)
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / max(len(values) - 1, 1))
        half = Z * sd / math.sqrt(len(values))
        ok = mean + half >= mu and mean - half <= 4 * mu
        lines.append(f"{'PASS' if ok else 'FAIL'} {cell}: mean count {mean:.1f} +- {half:.1f} "
                     f"of {len(values)} in [1, 4] x first moment {mu:.1f}")
    elif name == "square-graph":
        f_lo, lo_lo, _, _ = fraction("cfs_n1024_0.7tau")
        f_hi, _, hi_hi, _ = fraction("cfs_n1024_1.3tau")
        ok = hi_hi - lo_lo >= 0.5  # some pair of fractions inside both intervals has the gap
        lines.append(f"{'PASS' if ok else 'FAIL'} cfs gap: {f_hi:.3f} at 1.3 tau - "
                     f"{f_lo:.3f} at 0.7 tau = {f_hi - f_lo:.3f} >= 0.5")
        at_most("isolated_n512_c1.2", 0.15)
    elif name == "early-exit":
        at_least("pentagon_n1024_c0.5", 0.90)
        at_least("pentagon_n4096_c0.5", 0.90)
        at_least("isolated_n1024_c0.9", 0.85)
        at_least("isolated_n4096_c0.9", 0.85)
    return lines
