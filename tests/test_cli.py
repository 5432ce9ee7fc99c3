import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankspectra
from rankspectra.cli import main

DATA = Path(__file__).parent / "data"
EXAMPLE = str(DATA / "example_code.json")
UNIFORM = str(DATA / "uniform_2_4.json")
MRD = str(DATA / "mrd_2_4.json")


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def run_json(capsys, *argv):
    status, out = run_cli(capsys, *argv)
    return status, json.loads(out)


def test_analyze_example(capsys):
    status, report = run_json(capsys, "analyze", EXAMPLE)
    assert status == 0
    assert report["spectrum"]["A"] == [1, 15, 420, 2460, 1200]
    assert report["weights"] == [1, 3, 4]
    assert report["parameters"] == {"q": 2, "m": 4, "n": 4, "k": 3}
    assert len(report["input_sha256"]) == 64


def test_analyze_r2(capsys):
    status, report = run_json(capsys, "analyze", EXAMPLE, "--r", "2")
    assert status == 0
    assert report["spectrum"]["Qtilde"] == 256
    assert sum(report["spectrum"]["A"]) == 256**3


def test_deterministic_output(capsys):
    _, first = run_cli(capsys, "analyze", EXAMPLE)
    _, second = run_cli(capsys, "analyze", EXAMPLE)
    assert first == second


def test_betti_subcommand(capsys):
    status, report = run_json(capsys, "betti", EXAMPLE)
    assert status == 0
    entries = {(r["l"], r["i"], r["j_dim"]): r["value"] for r in report["betti"]}
    assert entries[(0, 2, 3)] == 76
    assert entries[(2, 1, 4)] == 1
    assert "spectrum" not in report


def test_weights_subcommand(capsys):
    status, report = run_json(capsys, "weights", UNIFORM)
    assert status == 0
    assert report["weights"] == [3, 4]


def test_spectrum_csv(capsys):
    status, out = run_cli(capsys, "spectrum", MRD, "--format", "csv")
    assert status == 0
    assert out.splitlines()[0] == "s,A"
    assert "3,225" in out.splitlines()


def test_higher_subcommand(capsys):
    status, report = run_json(capsys, "higher", EXAMPLE)
    assert status == 0
    assert report["higher"][1] == [0, 1, 28, 164, 80]


def test_text_format(capsys):
    status, out = run_cli(capsys, "analyze", EXAMPLE, "--format", "text")
    assert status == 0
    assert "spectrum at Qtilde=16" in out
    assert "1 15 420 2460 1200" in out


def test_verify_quick(capsys):
    status, report = run_json(capsys, "verify", UNIFORM, "--level", "quick")
    assert status == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_full_uniform(capsys):
    status, report = run_json(capsys, "verify", UNIFORM, "--level", "full")
    assert status == 0
    names = [c["check"] for c in report["checks"]]
    assert "classical lattice isomorphism" in names


def test_verify_full_mrd_code(capsys):
    status, report = run_json(capsys, "verify", MRD, "--level", "full",
                              "--cap-codewords", "70000")
    assert status == 0
    assert any(c["check"] == "brute-force spectrum" for c in report["checks"])


def test_mrd_subcommand(capsys):
    status, report = run_json(capsys, "mrd", "--q", "2", "--m", "4",
                              "--n", "4", "--k", "2")
    assert status == 0
    assert report["closed_form"] == [1, 0, 0, 225, 30]
    assert report["agreement"] is True


def test_mrd_m5(capsys):
    status, report = run_json(capsys, "mrd", "--q", "2", "--m", "5",
                              "--n", "4", "--k", "2")
    assert status == 0
    assert report["spectrum"]["A"][3] == 465


def test_mrd_invalid_parameters(capsys):
    status = main(["mrd", "--q", "2", "--m", "3", "--n", "4", "--k", "2"])
    capsys.readouterr()
    assert status == 2


@pytest.mark.parametrize("r", ["-1", "0"])
def test_nonpositive_r_rejected(capsys, r):
    status = main(["spectrum", EXAMPLE, "--r", r, "--format", "text"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "--r must be >= 1" in captured.err
    status = main(["mrd", "--q", "2", "--m", "4", "--n", "4", "--k", "2", "--r", r])
    capsys.readouterr()
    assert status == 2


def test_module_entry_point():
    package_root = str(Path(rankspectra.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": package_root + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "rankspectra.cli", "analyze", EXAMPLE],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["spectrum"]["A"] == [1, 15, 420, 2460, 1200]


def test_missing_file(capsys):
    status = main(["analyze", str(DATA / "missing.json")])
    capsys.readouterr()
    assert status == 2


def test_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    status = main(["analyze", str(bad)])
    capsys.readouterr()
    assert status == 2


def test_non_full_rank_generator(tmp_path, capsys):
    doc = {"p": 2, "m_extension": [1, 1, 0, 0, 1], "n": 4,
           "generator": [[1, 2, 3, 4], [2, 4, 6, 8]]}
    bad = tmp_path / "degenerate.json"
    bad.write_text(json.dumps(doc))
    status = main(["verify", str(bad)])
    capsys.readouterr()
    assert status == 2


def test_two_forms_rejected(tmp_path, capsys):
    doc = {"p": 2, "m_extension": [1, 1, 0, 0, 1], "n": 4,
           "generator": [[1, 0, 0, 0]], "uniform": {"q": 2, "k": 1, "n": 4}}
    bad = tmp_path / "ambiguous.json"
    bad.write_text(json.dumps(doc))
    status = main(["analyze", str(bad)])
    capsys.readouterr()
    assert status == 2


def test_subspace_cap_exit(capsys):
    status = main(["analyze", EXAMPLE, "--cap-subspaces", "10"])
    capsys.readouterr()
    assert status == 3


def test_csv_rejected_for_betti(capsys):
    status = main(["betti", EXAMPLE, "--format", "csv"])
    capsys.readouterr()
    assert status == 2


def test_threads_do_not_change_output(capsys):
    _, a = run_cli(capsys, "verify", MRD, "--level", "full",
                   "--cap-codewords", "70000", "--threads", "1")
    _, b = run_cli(capsys, "verify", MRD, "--level", "full",
                   "--cap-codewords", "70000", "--threads", "4")
    assert a == b
