"""Time one layer of morsegraph at an earlier revision and in the working tree,
side by side in one process, and check that both give the same output.

The earlier revision's ``src/morsegraph`` comes from ``git archive <rev>``
into a temporary directory.  It must be ``cf38a9b`` or later, whose
``cycles`` has ``_candidate_blocks(packed)`` and ``_failing_pairs``.  Each
tree is imported under its own package name (``morsegraph_base`` and
``morsegraph_work``).  Graphs are sampled once per seed,
``sample_gnp(n, p, trial_seed(master, i))``, and handed to each side as its
own ``Graph``.  Outputs are compared on every graph before any
timing.  Calls are then interleaved, the side that goes first alternating
between rounds, with the process pinned to one CPU.  The report gives each
side's median time, the median and quartiles of the paired ratios
work / base (below 1 is faster), and how many pairs the working tree won.
It also gives, per graph, the ratio of the two sides' best of the R rounds,
which a burst of load on a shared box moves less than single pairs, so a
change of a few percent shows on every graph or on none.
After the timing, one more call per graph and side runs under
``tracemalloc``; the report ends with each side's peaks, so a layer change
shows whether it is memory-neutral.  For ``morse`` and ``count5`` it also
gives, per side, on how many graphs the Morse pair test built its table of
failing pairs (calls of ``cycles._failing_pairs`` in the untimed output
check), so a change that moves the switch shows it, not only the time.

Layers:

- ``candidates``: one full pass of ``cycles._candidate_blocks``, compared
  by a digest of its pieces, which are dropped as they come;
- ``first-piece``: its first piece only, the cost an early exit pays;
- ``isolated``: ``has_isolated_square``;
- ``isolated-all``: the whole ``squares.isolated_squares`` stream;
- ``listing``: ``cycles._square_blocks``, the square listing alone, without
  the diagonal ids and components of ``build_square_graph``;
- ``square-graph``: ``build_square_graph``;
- ``components``: ``labels`` and ``supports`` of a fresh ``SquareGraph`` over
  the arrays ``build_square_graph`` gave once per graph, so only they are timed;
- ``cfs``: ``is_cfs(g, build_square_graph(g))``, a ``cfs`` sweep trial's work
  after sampling;
- ``morse``: ``morse_pruned_cycle_search(g, 5, 8)``;
- ``count5``: ``count_morse_cycles(g, 5)``, the whole pentagon stream;
- ``table``: ``cycles._failing_pairs(g)``, the Morse pair test's table of
  failing pairs, built whole;
- ``sampler``: ``sample_gnp`` itself.

Example, a full filter pass at CFS density against the parent commit::

    python tools/ab_layers.py candidates --rev HEAD~1 --n 1024 --tau 1.0 --graphs 3 --rounds 7

``--p P`` gives the edge probability itself, for hosts off both scales, such
as the small dense G(130, 0.9).  ``--k2 M`` times the layer on the complete
bipartite graph K_{2,M} in place of G(n, p) samples: one bucket of
M(M - 1)/2 squares.  A host on which either side stops with
``CapacityExceeded`` (a square graph past its cap) is reported with its seed
and the cap, and skipped; the tool fails only when no host is left.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Criterion 07's CFS threshold density scale: tau = 0.670435 / sqrt(n).
TAU_COEFFICIENT = 0.670435


def load_package(name: str, directory: Path):
    """Import the package in ``directory`` as ``name``; its imports are relative."""
    spec = importlib.util.spec_from_file_location(
        name, directory / "__init__.py", submodule_search_locations=[str(directory)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def archive_package(rev: str, dest: Path) -> Path:
    """Extract ``src/morsegraph`` at ``rev`` into ``dest``; return its directory."""
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src/morsegraph"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src" / "morsegraph"


def _candidate_pieces(pkg, g):
    return pkg.cycles._candidate_blocks(pkg.cycles._packed_rows(g))


def _candidates(pkg, g, host):
    """One digest of every piece's arrays (dtype, length, bytes), each piece
    folded in and dropped as it comes, so the peak is the filter's own."""
    digest = hashlib.sha256()
    for piece in _candidate_pieces(pkg, g):
        for a in piece:
            digest.update(f"{a.dtype.str} {len(a)};".encode())
            digest.update(np.ascontiguousarray(a))
    return digest.hexdigest()


def _first_piece(pkg, g, host):
    return next(_candidate_pieces(pkg, g), None)


def _square_graph(pkg, g, host):
    sq = pkg.build_square_graph(g)
    return sq.squares, sq.diagonal_index, sq.square_diagonals


_BUILT = {}  # id of each side's Graph (held for the whole run) -> its square graph's arrays


def _components(pkg, g, host):
    if id(g) not in _BUILT:
        sq = pkg.build_square_graph(g)
        _BUILT[id(g)] = (sq.host_n, sq.squares, sq.diagonal_index, sq.square_diagonals)
    sq = pkg.squares.SquareGraph(*_BUILT[id(g)])
    return sq.labels, sq.supports


def _morse(pkg, g, host):
    witness = pkg.morse_pruned_cycle_search(g, 5, 8)
    return None if witness is None else witness.vertices


# the layers whose Morse pair test may build its table of failing pairs
TABLE_LAYERS = ("morse", "count5")


def with_table_builds(pkg, call):
    """``call()``'s result and how many tables of failing pairs it built
    (calls of ``pkg.cycles._failing_pairs``)."""
    build = pkg.cycles._failing_pairs
    graphs = []

    def counted(g):
        graphs.append(g)
        return build(g)

    pkg.cycles._failing_pairs = counted
    try:
        return call(), len(graphs)
    finally:
        pkg.cycles._failing_pairs = build


LAYERS = {
    "candidates": _candidates,
    "first-piece": _first_piece,
    "isolated": lambda pkg, g, host: pkg.has_isolated_square(g),
    "isolated-all": lambda pkg, g, host: list(pkg.squares.isolated_squares(g)),
    "listing": lambda pkg, g, host: list(pkg.cycles._square_blocks(g)),
    "square-graph": _square_graph,
    "components": _components,
    "cfs": lambda pkg, g, host: pkg.is_cfs(g, pkg.build_square_graph(g)),
    "morse": _morse,
    "count5": lambda pkg, g, host: pkg.count_morse_cycles(g, 5),
    "table": lambda pkg, g, host: pkg.cycles._failing_pairs(g),
    "sampler": lambda pkg, g, host: pkg.sample_gnp(host.n, host.p, host.seed).rows,
}


@dataclass(frozen=True)
class Host:
    """A sampled graph as plain data, rebuilt as each side's own ``Graph``."""

    n: int
    rows: tuple[int, ...]
    m: int
    p: float | None
    seed: int | None

    def on(self, pkg):
        return pkg.graph.Graph(self.n, self.rows, self.m)


def same(a, b) -> bool:
    """Equality through tuples and lists, numpy arrays compared by value and dtype."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("layer", choices=sorted(LAYERS))
    parser.add_argument("--rev", default="HEAD",
                        help="earlier revision, cf38a9b or later (default HEAD)")
    parser.add_argument("--n", type=int, help="vertex count")
    density = parser.add_mutually_exclusive_group(required=True)
    density.add_argument("--c", type=float, help="p = c * sqrt(ln n / n)")
    density.add_argument("--tau", type=float, help="p = tau * 0.670435 / sqrt(n), the CFS scale")
    density.add_argument("--p", type=float, help="the edge probability p itself")
    density.add_argument("--k2", type=int, metavar="M", help="K_{2,M} in place of G(n, p)")
    parser.add_argument("--master", type=int, default=3000, help="master seed (default 3000)")
    parser.add_argument("--graphs", type=int, default=3, help="graphs, trial_seed(master, 0..)")
    parser.add_argument("--rounds", type=int, default=7, help="timed calls per graph and side")
    args = parser.parse_args(argv)
    if (args.n is None) == (args.k2 is None) or args.k2 is not None and args.layer == "sampler":
        parser.error("need --n with --c, --tau or --p, or --k2 without --n (and not the sampler)")

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with tempfile.TemporaryDirectory() as tmp:
        base = load_package("morsegraph_base", archive_package(args.rev, Path(tmp)))
        work = load_package("morsegraph_work", ROOT / "src" / "morsegraph")
        sides = {"base": base, "work": work}
        if args.k2 is not None:
            p, side = None, (1 << args.k2 + 2) - 4  # vertices 0 and 1 against 2 .. M + 1
            hosts = [Host(args.k2 + 2, (side, side) + (3,) * args.k2, 2 * args.k2, p, None)]
        else:
            if args.c is not None:
                p = work.density_from_coefficient(args.c, args.n).p
            elif args.p is not None:
                p = args.p
            else:
                p = min(1.0, args.tau * TAU_COEFFICIENT / math.sqrt(args.n))
            hosts = []
            for i in range(args.graphs):
                seed = work.trial_seed(args.master, i)
                g = work.sample_gnp(args.n, p, seed)
                hosts.append(Host(g.n, g.rows, g.m, p, seed))
        layer = LAYERS[args.layer]

        graphs = {side: [host.on(pkg) for host in hosts] for side, pkg in sides.items()}
        tables = {side: [] for side in sides}  # per graph, the pair tables built
        capped = tuple(pkg.CapacityExceeded for pkg in sides.values())
        kept = []
        for i, host in enumerate(hosts):  # equal outputs, and warm caches, before any timing
            outputs, builds = [], []
            try:
                for side, pkg in sides.items():
                    g = graphs[side][i]
                    output, built = with_table_builds(pkg, lambda: layer(pkg, g, host))
                    outputs.append(output)
                    builds.append(built)
            except capped as exc:
                print(f"seed {host.seed}: {exc}; host skipped", file=sys.stderr)
                continue
            if not same(*outputs):
                print(f"MISMATCH on seed {host.seed}: the two trees disagree", file=sys.stderr)
                return 1
            kept.append(i)
            for side, built in zip(sides, builds):
                tables[side].append(built)
        if not kept:
            print("no host left to time", file=sys.stderr)
            return 1
        hosts = [hosts[i] for i in kept]
        graphs = {side: [gs[i] for i in kept] for side, gs in graphs.items()}

        times = {side: [] for side in sides}
        for r in range(args.rounds):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for i, host in enumerate(hosts):
                for side in order:
                    g = graphs[side][i]
                    start = time.perf_counter()
                    layer(sides[side], g, host)
                    times[side].append(time.perf_counter() - start)

        peaks = {side: [] for side in sides}
        for i, host in enumerate(hosts):
            for side, pkg in sides.items():
                tracemalloc.start()
                try:
                    layer(pkg, graphs[side][i], host)
                    peaks[side].append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

    ratios = [w / b for b, w in zip(times["base"], times["work"])]
    wins = sum(r < 1.0 for r in ratios)
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    host = f"K2,{args.k2}" if p is None else f"n={args.n} p={p:.6g}"
    print(f"{args.layer} {host} rev={args.rev} graphs={len(hosts)} "
          f"rounds={args.rounds}: outputs equal")
    for side in sides:
        print(f"  {side}: median {1e3 * statistics.median(times[side]):.3f} ms")
    print(f"  work/base paired ratio: median {med:.3f} [q1 {q1:.3f}, q3 {q3:.3f}], "
          f"work faster in {wins} of {len(ratios)}")
    best = [min(times["work"][i :: len(hosts)]) / min(times["base"][i :: len(hosts)])
            for i in range(len(hosts))]
    print(f"  work/base best of {args.rounds} per graph: median {statistics.median(best):.3f}; "
          + ", ".join(f"{r:.3f}" for r in best))
    for side in sides:
        print(f"  {side}: tracemalloc peak per graph "
              + ", ".join(f"{peak / 2**20:.2f}" for peak in peaks[side]) + " MiB")
    if args.layer in TABLE_LAYERS:
        for side in sides:
            built = tables[side]
            print(f"  {side}: pair table built on {sum(b > 0 for b in built)} "
                  f"of {len(built)} graphs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
