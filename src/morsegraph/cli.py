"""Command-line front end.

Subcommands: ``gen`` (sample a graph to an edge-list file), ``check``
(evaluate one property on a stored graph), ``squaregraph`` (square-graph
statistics, optional dump), ``sweep`` (Monte Carlo sweep from a JSON
config), ``analytic`` (closed-form values), ``oracle`` (cross-validation
suite).  Results go to stdout as a single JSON object; diagnostics go to
stderr.  Exit status: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Sequence

from . import analytic as analytic_mod
from .errors import ConfigError, MorsegraphError
from .experiment import (
    _SUMMARY_COLUMNS,
    PropertyKind,
    SweepConfig,
    evaluate_property_with_witness,
    run_oracle_suite,
    run_sweep,
)
from .gnp import density_from_coefficient, density_from_probability, sample_gnp
from .graph import read_edge_list, write_edge_list
from .squares import (
    build_square_graph,
    components,
    dump_square_graph,
    is_cfs,
    is_square_graph_connected,
    isolated_count,
)


def _property_tag(text: str) -> PropertyKind:
    try:
        return PropertyKind.parse(text)
    except MorsegraphError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsegraph",
        description="Random-graph experiments on Morse cycles, square graphs, and CFS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample one G(n, p) graph to an edge-list file")
    gen.add_argument("--n", type=int, required=True, help="vertex count")
    density = gen.add_mutually_exclusive_group(required=True)
    density.add_argument("--p", type=float, help="explicit edge probability")
    density.add_argument("--c", type=float, help="coefficient for p = c*sqrt(ln n / n)")
    gen.add_argument("--seed", type=int, required=True, help="sampler seed (64-bit)")
    gen.add_argument("--out", required=True, help="output edge-list path")
    gen.set_defaults(run=_cmd_gen)

    check = sub.add_parser("check", help="evaluate one property on a stored graph")
    check.add_argument("--in", dest="path", required=True, help="edge-list path")
    check.add_argument(
        "--property", type=_property_tag, required=True, help="property tag, e.g. morse-cycle-exists:5:8"
    )
    check.set_defaults(run=_cmd_check)

    square = sub.add_parser("squaregraph", help="square-graph statistics of a stored graph")
    square.add_argument("--in", dest="path", required=True, help="edge-list path")
    square.add_argument("--dump", help="write the square graph as an edge list (+ .json vertex map)")
    square.set_defaults(run=_cmd_squaregraph)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep from a JSON config")
    sweep.add_argument("--config", required=True, help="sweep config JSON path")
    sweep.add_argument("--workers", type=int, default=None, help="worker processes, >= 1 (default: CPUs this process may use)")
    sweep.set_defaults(run=_cmd_sweep)

    ana = sub.add_parser("analytic", help="closed-form expectations and thresholds")
    ana.add_argument("--n", type=int, required=True)
    ana.add_argument("--p", type=float, default=None)
    ana.add_argument(
        "--which",
        required=True,
        choices=list(_ANALYTIC),
    )
    ana.add_argument("--k", type=int, default=None)
    ana.set_defaults(run=lambda args: _cmd_analytic(args, parser))

    oracle = sub.add_parser("oracle", help="run the cross-validation corpus")
    oracle.add_argument("--max-n", type=int, default=12, help="largest graph size, 5..12")
    oracle.add_argument("--trials", type=int, default=100, help="random subsets per graph, >= 0")
    oracle.add_argument("--seed", type=int, default=20240801)
    oracle.set_defaults(run=_cmd_oracle)

    return parser


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj))
    sys.stdout.write("\n")


def _cmd_gen(args) -> int:
    if args.p is not None:
        point = density_from_probability(args.p, args.n)
    else:
        point = density_from_coefficient(args.c, args.n)
    g = sample_gnp(args.n, point.p, args.seed)
    write_edge_list(g, args.out)
    _emit({"n": g.n, "m": g.m, "c": point.c, "p": point.p, "seed": args.seed, "out": args.out})
    return 0


def _cmd_check(args) -> int:
    g = read_edge_list(args.path)
    outcome, witness = evaluate_property_with_witness(g, args.property)
    _emit({"outcome": outcome, "witness": witness})
    return 0


def _cmd_squaregraph(args) -> int:
    g = read_edge_list(args.path)
    sq = build_square_graph(g)
    if args.dump:
        dump_square_graph(sq, args.dump)
        print(f"square graph written to {args.dump} (+ .json)", file=sys.stderr)
    _emit(
        {
            "squares": len(sq),
            "isolated": isolated_count(sq),
            "components": len(components(sq)),
            "cfs": is_cfs(g, sq),
            "connected": is_square_graph_connected(sq),
            "empty": len(sq) == 0,
        }
    )
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
            raise ConfigError("<document>", f"not a JSON file: {exc}") from exc
    config = SweepConfig.from_mapping(doc)
    summary = run_sweep(config, workers=args.workers)
    _emit(
        {
            "jsonl": summary.jsonl_path,
            "summary_csv": summary.csv_path,
            "cells": [
                {name: getattr(cell, attr) for name, attr in _SUMMARY_COLUMNS}
                for cell in summary.cells
            ],
        }
    )
    return 0


def _link_probabilities(a) -> dict:
    return {"p": a.p, **{str(i): analytic_mod.conditional_link_probability(a.p, i) for i in (1, 2, 3)}}


# --which quantity -> (the options it needs, its output object from the arguments)
_ANALYTIC = {
    "mu5": (("p",), lambda a: {"n": a.n, "p": a.p, "mu5": analytic_mod.expected_morse_pentagons(a.n, a.p)}),
    "mu4": (("p",), lambda a: {"n": a.n, "p": a.p, "mu4": analytic_mod.expected_morse_squares(a.n, a.p)}),
    "lemma31": (("p",), _link_probabilities),
    "thresholds": ((), lambda a: asdict(analytic_mod.thresholds(a.n))),
    "clique-link": (
        ("p", "k"),
        lambda a: {"n": a.n, "k": a.k, "p": a.p, "clique_link": analytic_mod.clique_link_probability(a.n, a.k, a.p)},
    ),
    "long-cycle-bound": (
        ("p", "k"),
        lambda a: {"n": a.n, "k": a.k, "p": a.p, "long_cycle_bound": analytic_mod.long_cycle_bound(a.n, a.p, a.k)},
    ),
}


def _cmd_analytic(args, parser: argparse.ArgumentParser) -> int:
    needs, output = _ANALYTIC[args.which]
    for option in needs:
        if getattr(args, option) is None:
            parser.error(f"--which {args.which} requires --{option}")
    _emit(output(args))
    return 0


def _cmd_oracle(args) -> int:
    report = run_oracle_suite(
        max_n=args.max_n, subsets_per_graph=args.trials, master_seed=args.seed
    )
    _emit(report)
    return 0 if report["ok"] else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except MorsegraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
