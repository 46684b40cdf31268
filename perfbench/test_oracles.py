"""The benchmark's oracles agree with the program, and catch a planted fault.

Each test copies ``src/morsegraph`` to a temporary directory, plants at most
one fault there by a literal text substitution, and runs an oracle check in a
fresh interpreter against that copy.  The check exits 0 when the oracle
agrees with the program, 3 when it finds a disagreement, and 4 when it had
nothing to check.  Run with:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "morsegraph"

SAMPLER = """
from morsegraph.gnp import sample_gnp
from oracles import reference_rows
cases = [(256, 0.07, 11), (1025, 0.05, 5)]  # one lane block; two lane blocks
bad = [c for c in cases if list(sample_gnp(*c).rows) != reference_rows(*c)]
sys.exit(3 if bad else 0)
"""

MORSE_WITNESS = """
from morsegraph import density_from_coefficient, morse_pruned_cycle_search, sample_gnp, trial_seed
from oracles import morse_cycle_violation
checked = bad = 0
for c in (0.5, 0.95):
    p = density_from_coefficient(c, 256).p
    for t in range(4):
        g = sample_gnp(256, p, trial_seed(7, t))
        w = morse_pruned_cycle_search(g, 5, 8)
        if w is not None:
            checked += 1
            bad += morse_cycle_violation(g.rows, list(w.vertices), 5, 8) is not None
sys.exit(3 if bad else 0 if checked else 4)
"""

ISOLATED_WITNESS = """
from morsegraph import density_from_coefficient, has_isolated_square, sample_gnp, trial_seed
from oracles import isolated_square_violation
checked = bad = 0
for c in (0.9, 1.2):
    p = density_from_coefficient(c, 256).p
    for t in range(4):
        g = sample_gnp(256, p, trial_seed(8, t))
        sq = has_isolated_square(g)
        if sq is not None:
            checked += 1
            bad += isolated_square_violation(g.rows, list(sq)) is not None
sys.exit(3 if bad else 0 if checked else 4)
"""

SQUARE_GRAPH = """
from morsegraph import build_square_graph, components, is_cfs, sample_gnp
from oracles import square_graph_summary
checked = bad = 0
for n, p, seed in [(200, 0.05, 1), (200, 0.1, 2), (300, 0.06, 3)]:
    g = sample_gnp(n, p, seed)
    sq = build_square_graph(g)
    got = {"squares": len(sq), "diagonals": len(sq.diagonal_index),
           "components": len(components(sq)), "cfs": is_cfs(g, sq)}
    want = square_graph_summary(g.rows)
    checked += want["cfs"]
    bad += got != want
sys.exit(3 if bad else 0 if checked else 4)
"""

# (check, [(module, text, replacement), ...]); an empty fault list is the control.
CASES = {
    "sampler-clean": (SAMPLER, []),
    "sampler-splitmix-shift": (SAMPLER, [("gnp.py", "(z >> 27)", "(z >> 26)")]),
    "sampler-lane-block-start": (SAMPLER, [("gnp.py", "state = s[:, -1:].T", "state = s[:, -2:-1].T")]),
    "morse-clean": (MORSE_WITNESS, []),
    "morse-pair-test-skipped": (MORSE_WITNESS, [
        ("cycles.py", "hit = is_clique_mask(g, rows[u] & rows[w])", "hit = True"),
        ("cycles.py", "        assert is_morse_cycle(g, witness)", "        pass"),
    ]),
    "isolated-clean": (ISOLATED_WITNESS, []),
    "isolated-reciprocal-skipped": (ISOLATED_WITNESS, [("squares.py", "if reciprocal_ok:", "if True:")]),
    "squares-clean": (SQUARE_GRAPH, []),
    "squares-prefilter-drops-pairs": (SQUARE_GRAPH, [("cycles.py", "(counts >= 2.0)", "(counts >= 3.0)")]),
    "squares-bucket-not-united": (SQUARE_GRAPH, [("squares.py", "for other in members[1:]:", "for other in members[2:]:")]),
    "squares-cfs-short-host": (SQUARE_GRAPH, [("squares.py", "full = frozenset(range(g.n))", "full = frozenset(range(g.n - 1))")]),
}


def run_check(tmp_path: Path, script: str, faults) -> int:
    copy = tmp_path / "morsegraph"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    for module, text, replacement in faults:
        source = (copy / module).read_text()
        assert source.count(text) == 1, f"fault site {text!r} not found once in {module}"
        (copy / module).write_text(source.replace(text, replacement))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode in (0, 3, 4), proc.stderr
    return proc.returncode


@pytest.mark.parametrize("case", sorted(CASES))
def test_oracle(tmp_path, case):
    script, faults = CASES[case]
    expected = 3 if faults else 0
    assert run_check(tmp_path, script, faults) == expected
