import hashlib
import json
from pathlib import Path

import pytest

from morsegraph import (
    build_graph,
    clique_link_probability,
    density_from_coefficient,
    expected_morse_squares,
    long_cycle_bound,
    read_edge_list,
    sample_gnp,
    thresholds,
    write_edge_list,
)
from morsegraph.cli import main
from helpers import complete_bipartite, cycle_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_matches_library(tmp_path, capsys):
    out = tmp_path / "g.edges"
    code, stdout, _ = run_cli(
        capsys, "gen", "--n", "100", "--c", "0.5", "--seed", "7", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(stdout)
    point = density_from_coefficient(0.5, 100)
    expected = sample_gnp(100, point.p, 7)
    assert read_edge_list(out) == expected
    assert doc["m"] == expected.m and doc["p"] == point.p


def test_gen_with_explicit_p(tmp_path, capsys):
    out = tmp_path / "g.edges"
    code, stdout, _ = run_cli(
        capsys, "gen", "--n", "40", "--p", "0.2", "--seed", "3", "--out", str(out)
    )
    assert code == 0
    assert read_edge_list(out) == sample_gnp(40, 0.2, 3)


def test_check_reports_witness(tmp_path, capsys):
    path = tmp_path / "c5.edges"
    write_edge_list(cycle_graph(5), path)
    code, stdout, _ = run_cli(
        capsys, "check", "--in", str(path), "--property", "morse-cycle-exists:5:8"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc == {"outcome": True, "witness": [0, 1, 2, 3, 4]}


def test_check_count_property(tmp_path, capsys):
    path = tmp_path / "k23.edges"
    write_edge_list(complete_bipartite(2, 3), path)
    code, stdout, _ = run_cli(
        capsys, "check", "--in", str(path), "--property", "induced-cycle-count:4"
    )
    assert code == 0
    assert json.loads(stdout) == {"outcome": 3, "witness": None}


def test_squaregraph_output(tmp_path, capsys):
    path = tmp_path / "k23.edges"
    write_edge_list(complete_bipartite(2, 3), path)
    dump = tmp_path / "sq.edges"
    code, stdout, _ = run_cli(
        capsys, "squaregraph", "--in", str(path), "--dump", str(dump)
    )
    assert code == 0
    assert json.loads(stdout) == {
        "squares": 3,
        "isolated": 0,
        "components": 1,
        "cfs": True,
        "connected": True,
        "empty": False,
    }
    dumped = read_edge_list(dump)
    assert dumped.n == 3 and dumped.m == 3
    mapping = json.loads((tmp_path / "sq.edges.json").read_text())
    assert set(mapping) == {"0", "1", "2"}


def test_squaregraph_dump_golden(tmp_path, capsys):
    # digests recorded from the tuple-and-dict square graph that preceded the
    # numpy arrays: the dump files must stay the same byte for byte
    path = tmp_path / "g.edges"
    write_edge_list(sample_gnp(150, density_from_coefficient(0.6, 150).p, 7), path)
    dump = tmp_path / "sq.edges"
    code, stdout, _ = run_cli(capsys, "squaregraph", "--in", str(path), "--dump", str(dump))
    assert code == 0
    assert json.loads(stdout) == {
        "squares": 7129,
        "isolated": 176,
        "components": 204,
        "cfs": True,
        "connected": False,
        "empty": False,
    }
    digests = [hashlib.sha256(f.read_bytes()).hexdigest() for f in (dump, tmp_path / "sq.edges.json")]
    assert digests == [
        "e045f410f4db9729caa104e44f12c79c19aec8a88d7acb78fa6645a53264bd3f",
        "f2b642f5a56064533ee2ebdec9bf61d598918c4c520f8a25b4fc38bffedf9040",
    ]


def test_analytic_thresholds_match_library(capsys):
    code, stdout, _ = run_cli(capsys, "analytic", "--n", "1024", "--which", "thresholds")
    assert code == 0
    doc = json.loads(stdout)
    t = thresholds(1024)
    assert doc == {"n": 1024, "pentagon": t.pentagon, "square": t.square, "cfs": t.cfs}


def test_analytic_conditional_values(capsys):
    code, stdout, _ = run_cli(
        capsys, "analytic", "--n", "10", "--p", "0.3", "--which", "lemma31"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["1"] == pytest.approx(0.17355371900826446)
    assert doc["2"] == pytest.approx(0.06923076923076923)
    assert doc["3"] == pytest.approx(0.05325443786982249)


def test_analytic_requires_p_for_mu(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analytic", "--n", "10", "--which", "mu5"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "which,want",
    [
        ("mu4", {"n": 256, "p": 0.14, "mu4": expected_morse_squares(256, 0.14)}),
        ("clique-link", {"n": 256, "k": 5, "p": 0.14, "clique_link": clique_link_probability(256, 5, 0.14)}),
        ("long-cycle-bound", {"n": 256, "k": 5, "p": 0.14, "long_cycle_bound": long_cycle_bound(256, 0.14, 5)}),
    ],
)
def test_analytic_output_matches_library(capsys, which, want):
    code, stdout, _ = run_cli(
        capsys, "analytic", "--n", "256", "--p", "0.14", "--which", which, "--k", "5"
    )
    assert code == 0
    assert stdout == json.dumps(want) + "\n"


@pytest.mark.parametrize("which", ["clique-link", "long-cycle-bound"])
def test_analytic_requires_k(capsys, which):
    with pytest.raises(SystemExit) as err:
        main(["analytic", "--n", "256", "--p", "0.14", "--which", which])
    assert err.value.code == 2
    assert "requires --k" in capsys.readouterr().err


def test_unknown_property_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c4.edges"
    write_edge_list(cycle_graph(4), path)
    with pytest.raises(SystemExit) as err:
        main(["check", "--in", str(path), "--property", "nope"])
    assert err.value.code == 2


def test_domain_error_exit_code(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "check", "--in", str(tmp_path / "missing.edges"), "--property", "cfs"
    )
    assert code == 1
    assert "error" in stderr


def test_out_of_domain_analytic_exit_code(capsys):
    code, _, stderr = run_cli(
        capsys, "analytic", "--n", "100", "--p", "0.45", "--which", "mu5"
    )
    assert code == 1
    assert "error" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--which", "long-cycle-bound", "--n", "1000000", "--p", "0.01", "--k", "200"],
        ["--which", "thresholds", "--n", "1" + "0" * 400],
        ["--which", "mu5", "--p", "0.001", "--n", "1" + "0" * 400],
    ],
)
def test_analytic_beyond_float_range_exit_code(capsys, argv):
    code, stdout, stderr = run_cli(capsys, "analytic", *argv)
    assert code == 1 and stdout == ""
    assert stderr.startswith("error:") and "Traceback" not in stderr


def test_sweep_command(tmp_path, capsys):
    config = {
        "ns": [10],
        "ps": [0.3],
        "properties": ["cfs", "morse-square-exists"],
        "trials": 5,
        "seed": 8,
        "out": str(tmp_path / "sweep.jsonl"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--workers", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["cells"]) == 2
    assert len(Path(config["out"]).read_text().splitlines()) == 10
    assert (tmp_path / "sweep.jsonl.summary.csv").exists()


def test_oracle_command(capsys):
    code, stdout, _ = run_cli(
        capsys, "oracle", "--max-n", "5", "--trials", "5", "--seed", "3"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["ok"] is True and doc["graphs"] == 9


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--max-n", "20"],
        ["oracle", "--max-n", "3"],
        ["oracle", "--max-n", "6", "--trials", "-4"],
    ],
)
def test_oracle_out_of_range_exit_code(capsys, argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert stdout == "" and "error" in stderr


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_nonpositive_workers_exit_code(tmp_path, capsys, workers):
    config = {
        "ns": [10],
        "ps": [0.3],
        "properties": ["cfs"],
        "trials": 2,
        "seed": 8,
        "out": str(tmp_path / "sweep.jsonl"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, stderr = run_cli(capsys, "sweep", "--config", str(cfg_path), "--workers", workers)
    assert code == 1
    assert stdout == "" and "workers" in stderr


@pytest.mark.parametrize("command", [["check", "--property", "cfs"], ["squaregraph"]])
def test_non_ascii_edge_list_exit_code(tmp_path, capsys, command):
    path = tmp_path / "g.edges"
    path.write_bytes(b"3 1\n0 \xe9\n")
    code, stdout, stderr = run_cli(capsys, *command, "--in", str(path))
    assert code == 1 and stdout == ""
    assert "error" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("text", ["{not json", "7", '["ns", "ps"]'])
def test_malformed_sweep_config_exit_code(tmp_path, capsys, text):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    code, stdout, stderr = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 1 and stdout == ""
    assert "error" in stderr and "Traceback" not in stderr
    assert "unknown field" not in stderr


def test_oracle_failure_exit_code(capsys, monkeypatch):
    import morsegraph.cli as cli

    monkeypatch.setattr(cli, "run_oracle_suite", lambda **kw: {"ok": False})
    code, stdout, _ = run_cli(capsys, "oracle")
    assert code == 1
    assert json.loads(stdout) == {"ok": False}


def test_gen_domain_error_exit_code(tmp_path, capsys):
    # coefficient densities need n >= 2
    code, _, stderr = run_cli(
        capsys, "gen", "--n", "1", "--c", "0.5", "--seed", "1",
        "--out", str(tmp_path / "x.edges"),
    )
    assert code == 1 and "error" in stderr


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_gen_out_of_range_seed_exit_code(tmp_path, capsys, seed):
    # a seed is not reduced mod 2**64 onto another seed's graph
    out = tmp_path / "x.edges"
    code, stdout, stderr = run_cli(
        capsys, "gen", "--n", "30", "--p", "0.5", "--seed", seed, "--out", str(out)
    )
    assert code == 1 and stdout == "" and "seed" in stderr
    assert not out.exists()


def test_gen_infinite_coefficient_exit_code(tmp_path, capsys):
    out = tmp_path / "x.edges"
    code, stdout, stderr = run_cli(
        capsys, "gen", "--n", "10", "--c", "inf", "--seed", "1", "--out", str(out)
    )
    assert code == 1 and stdout == "" and "error" in stderr
    assert not out.exists()
