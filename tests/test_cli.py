import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rankspectra
from rankspectra import (
    CycleLattice, QMatroid, ResourceLimitError, StructuralError, cli, qmatroid,
    subspace_table,
)
from rankspectra.cli import main
from rankspectra.subspace_table import SubspaceTable

DATA = Path(__file__).parent / "data"
EXAMPLE = str(DATA / "example_code.json")
UNIFORM = str(DATA / "uniform_2_4.json")
MRD = str(DATA / "mrd_2_4.json")
UNIFORM_Q3 = str(DATA / "uniform_2_4_q3.json")
CODE_Q3 = str(DATA / "code_q3_k2_n4.json")

# sha256 of the `analyze` stdout for every input in tests/data
ANALYZE_SHA256 = {
    "code_q3_k2_n4.json": "6ff95bf01247fb9ea15618861ff79a9399f96069210ed6f9debe7b1ba9e17d9f",
    "example_code.json": "b744bb71c9d4737a0b73f2721dbaeeaf55fc4c3e64e15ca110d0529bf918e17a",
    "mrd_2_4.json": "64203e0f29e9ea56902d1a795b6044a0572405b38a331eb380c3e46f84865624",
    "uniform_2_4.json": "29d03e901485261566a94573d6f5429b619c55eb558fd58c2b0ff183faaeeab1",
    "uniform_2_4_q3.json": "4b4e819b5c3e7446fd7f65658a3fa443a05d8e0588139093f54a5f59d3740e49",
}
# sha256 of the `verify --level quick` stdout for every input in tests/data
VERIFY_QUICK_SHA256 = {
    "code_q3_k2_n4.json": "0cd24c553dc0c4c49040dde1c8f184ae62d3063de7f55916c420728590b25a9f",
    "example_code.json": "dba9e5a71f051ab64d6427925d2481b70208c7f6d90b982cf90833ab9b279930",
    "mrd_2_4.json": "1257f966d0b8c3b919960a11d34f13f0a2508594b06d380f4c72d210ce3a496d",
    "uniform_2_4.json": "5f94e9a082df7274787e5bdb8793416482dcc13850ad6fbbb13eefc0212c0633",
    "uniform_2_4_q3.json": "43b194bad38f32106f93745c2291d09ac7418d2b7eb5547aaff8abd8be334ad8",
}

# sha256 of the `analyze` stdout for U(k, n) over F_q, keyed (q, k, n): the
# lattices of U(0,0) and U(0,3) have one node, that of U(1,1) over F_3 two,
# and that of the free U(3,3) every subspace of F_2^3
DEGENERATE_SHA256 = {
    (2, 0, 0): "45bd46e61dfb0937e4e84ca5f5099783738b4f09a787453c82d46f1af76b66fb",
    (2, 0, 3): "b8754bc9c5d6d908faae0d32240a349cceb1257fd8f2a38e963faa6ac7b8161a",
    (2, 3, 3): "1cdfdebd1af686407cddadae1c609018d61dae4f09994ec0d0900dfac078bb1a",
    (3, 1, 1): "60074cdc937a5e4af59596cc29aab880dbc3655c1d77d62ac4260b3c5bcf2cce",
}


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


@pytest.mark.parametrize("name", sorted(path.name for path in DATA.glob("*.json")))
def test_analyze_report_pinned(capsys, name):
    status, out = run_cli(capsys, "analyze", str(DATA / name))
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_SHA256[name]


@pytest.mark.parametrize("name", sorted(path.name for path in DATA.glob("*.json")))
def test_verify_quick_report_pinned(capsys, name):
    status, out = run_cli(capsys, "verify", "--level", "quick", str(DATA / name))
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_QUICK_SHA256[name]


@pytest.mark.parametrize("q,k,n", sorted(DEGENERATE_SHA256),
                         ids=[f"U({k},{n})-q{q}" for q, k, n in sorted(DEGENERATE_SHA256)])
def test_degenerate_lattice_reports_pinned(capsys, tmp_path, q, k, n):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({"uniform": {"q": q, "k": k, "n": n}}))
    status, out = run_cli(capsys, "analyze", str(path))
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEGENERATE_SHA256[q, k, n]


@pytest.mark.parametrize("argv", [("analyze",), ("verify", "--level", "quick"),
                                  ("verify", "--level", "full")],
                         ids=["analyze", "verify-quick", "verify-full"])
def test_one_flat_scan_and_no_dual(monkeypatch, capsys, argv):
    calls = Counter()
    for owner, name in ((QMatroid, "dual"), (QMatroid, "qcycles"),
                        (SubspaceTable, "cover_walk"), (qmatroid, "all_subspaces"),
                        (CycleLattice, "__init__")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    for path in (EXAMPLE, UNIFORM_Q3, CODE_Q3):
        calls.clear()
        status, _ = run_cli(capsys, *argv[:1], path, *argv[1:])
        assert status == 0
        assert calls["dual"] == calls["qcycles"] == 0
        # over every field one walk over the subspace table decides every
        # q-flat, and the lattice order comes from its cover edges: no
        # scalar scan over all subspaces
        assert calls["cover_walk"] == 1, path
        assert calls["all_subspaces"] == 0, path
        # the classical oracle of the full level checks the lattice the
        # report comes from
        assert calls["__init__"] == 1, path


@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_analyze_skips_closure_pass(monkeypatch, capsys, name):
    # codes and U(k, n) are q-matroids by theorem: the lattice reads the
    # pointers of one unchecked cover walk, and the checked walk never runs
    calls = []
    original = SubspaceTable.cover_walk

    def cover_walk(self, ranks, check=False):
        calls.append(check)
        return original(self, ranks, check)

    monkeypatch.setattr(SubspaceTable, "cover_walk", cover_walk)
    status, _ = run_cli(capsys, "analyze", str(DATA / name))
    assert status == 0
    assert calls == [False]


def _counted_cover_pairs(monkeypatch):
    """A Counter of the (dimension, subspace index, cover column) triples
    passed to ``SubspaceTable.cover_index``."""
    pairs = Counter()
    original = SubspaceTable.cover_index

    def cover_index(self, s, at, cols=slice(None)):
        columns = range(self.widths[s])[cols]
        pairs.update((s, i, j) for i in at.tolist() for j in columns)
        return original(self, s, at, cols)

    monkeypatch.setattr(SubspaceTable, "cover_index", cover_index)
    return pairs


def test_verify_walks_each_cover_once(monkeypatch, capsys):
    # the axiom check, the q-flats and the lattice's cover edges share one
    # walk: every (subspace, cover) pair of F_2^4 is read exactly once,
    # sum_s [4, s]_2 [4 - s, 1]_2 = 15 + 105 + 105 + 15 = 240 of them
    pairs = _counted_cover_pairs(monkeypatch)
    status, _ = run_cli(capsys, "verify", EXAMPLE, "--level", "quick")
    assert status == 0
    assert len(pairs) == sum(pairs.values()) == 240


def test_analyze_reads_no_cover_twice(monkeypatch, capsys):
    # the early-exit walk keeps the cover pointers of each flat as it reads
    # them, so the cover edges need no second pass over the flats
    pairs = _counted_cover_pairs(monkeypatch)
    status, _ = run_cli(capsys, "analyze", EXAMPLE)
    assert status == 0
    assert 0 < len(pairs) == sum(pairs.values()) < 240


def test_rank_profile_built_once(monkeypatch, capsys):
    calls = Counter()
    for owner, name in ((QMatroid, "rank_profile"), (qmatroid, "all_subspaces"),
                        (subspace_table, "subspace_rows")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    status, _ = run_cli(capsys, "verify", EXAMPLE, "--level", "quick")
    assert status == 0
    # read by the Betti/Moebius identity for s = 0..4, then by the weights
    assert calls["rank_profile"] == 5 + 1
    # no scalar subspace scan, since the axioms pass on the table, and one
    # table, enumerated once per dimension of F_2^4, for the axioms, the
    # q-flats and the profile
    assert calls["all_subspaces"] == 0
    assert calls["subspace_rows"] == 5


@pytest.mark.parametrize("argv", [
    *([name, "--help"] for name in cli.COMMANDS),
    ["analyze"],
    ["analyze", EXAMPLE, "--bogus"],
    ["verify", EXAMPLE, "--level", "bad"],
    ["mrd", "--q", "2"],
    ["spectrum", EXAMPLE, "--r", "2", "--format", "csv"],
], ids=lambda argv: "-".join(a.strip("-") for a in argv if a != EXAMPLE))
def test_command_parser_matches_full_parser(capsys, argv):
    # main builds the subparser of the named command alone; it parses and
    # reports as the parser of every command does, usage line included
    def outcome(parser):
        try:
            args = vars(parser.parse_args(argv))
        except SystemExit as exc:
            args = exc.code
        return args, capsys.readouterr()

    assert outcome(cli.build_parser(argv[0])) == outcome(cli.build_parser())


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


@pytest.mark.parametrize("error,line,status", [
    (ResourceLimitError, "SKIP  classical lattice isomorphism", 0),
    (StructuralError, "FAIL  classical lattice isomorphism", 1),
], ids=["limit-skipped", "mismatch-fails"])
def test_check_status_in_text(monkeypatch, capsys, error, line, status):
    def stopped(lattice):
        raise error("classical oracle stopped")

    monkeypatch.setattr(cli, "verify_iso_summary", stopped)
    code, out = run_cli(capsys, "verify", UNIFORM, "--level", "full",
                        "--format", "text")
    assert code == status
    assert line in out.splitlines()


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


def run_python(*argv, timeout=120):
    """``python ARGV`` in a subprocess that imports this checkout's package;
    a hang fails the test."""
    package_root = str(Path(rankspectra.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": package_root + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, env=env, timeout=timeout)


def run_module(*argv, timeout=120):
    """``python -m rankspectra.cli ARGV`` in a subprocess."""
    return run_python("-m", "rankspectra.cli", *argv, timeout=timeout)


def test_module_entry_point():
    proc = run_module("analyze", EXAMPLE)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["spectrum"]["A"] == [1, 15, 420, 2460, 1200]


def test_cli_import_loads_no_thread_pool():
    # the CLI runs in one thread, so its start-up does not pay for the
    # executor machinery
    proc = run_python("-c", "import sys, rankspectra.cli; "
                      "print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"False"


def test_cli_import_leaves_oracle_out():
    # only the oracle checks of ``verify --level full`` load the oracle
    proc = run_python("-c", "import sys, rankspectra.cli; "
                      "print('rankspectra.oracle' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"False"


def test_cli_leaves_openssl_out():
    # the input is hashed by the builtin SHA-256, so no command loads
    # OpenSSL's ``_hashlib``
    proc = run_python("-c", "import sys, rankspectra.cli; "
                      "print('_hashlib' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"False"
    proc = run_python("-c", "import sys; from rankspectra.cli import main; "
                      f"status = main(['analyze', {EXAMPLE!r}]); "
                      "print(status, '_hashlib' in sys.modules, file=sys.stderr)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == [b"0", b"False"]


@pytest.mark.parametrize("name", sorted(path.name for path in DATA.glob("*.json")))
def test_input_sha256_matches_hashlib(capsys, name):
    raw = (DATA / name).read_bytes()
    status, report = run_json(capsys, "analyze", str(DATA / name))
    assert status == 0
    assert report["input_sha256"] == hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("argv", [("analyze",), ("verify", "--level", "full")],
                         ids=["analyze", "verify-full"])
def test_module_run_matches_main(capsys, argv):
    # ``console_main`` freezes the heap before exiting; the report and the
    # status stay those of ``main``
    status, out = run_cli(capsys, *argv, EXAMPLE)
    proc = run_module(*argv, EXAMPLE)
    assert (proc.returncode, proc.stdout) == (status, out.encode())
    assert status == 0


@pytest.mark.parametrize("setup,expected", [
    ("os.environ.pop('OPENBLAS_NUM_THREADS', None)", b"1"),
    ("os.environ['OPENBLAS_NUM_THREADS'] = '3'", b"3"),
    # numpy already loaded its BLAS, so the variable would change nothing
    ("os.environ.pop('OPENBLAS_NUM_THREADS', None); import numpy", b"None"),
], ids=["unset", "user-value", "numpy-first"])
def test_import_sets_one_blas_thread(setup, expected):
    proc = run_python("-c", f"import os; {setup}; import rankspectra; "
                      "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_import_and_parsing_leave_numpy_unloaded(tmp_path):
    # numpy loads at the first array operation: import, parsing, an input
    # rejected while parsing, --help and --version run without it
    proc = run_python("-c", "import sys, rankspectra, rankspectra.cli; "
                      "from pathlib import Path; "
                      f"[rankspectra.cli.parse_spec_source(p.read_bytes()) "
                      f"for p in Path({str(DATA)!r}).glob('*.json')]; "
                      "print('numpy._core' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"False"
    spec = tmp_path / "deficient.json"
    spec.write_text(json.dumps({"p": 2, "m_extension": [1, 1, 0, 0, 1], "n": 4,
                                "generator": [[1, 2, 3, 4], [2, 4, 6, 8]]}))
    for argv, status in ((["analyze", str(spec)], 2), (["--help"], 0), (["--version"], 0)):
        proc = run_python("-c", "import atexit, sys; atexit.register(lambda: print("
                          "'numpy._core' in sys.modules, file=sys.stderr)); "
                          "from rankspectra.cli import console_main; console_main()", *argv)
        assert proc.returncode == status, proc.stderr
        assert proc.stderr.split()[-1:] == [b"False"]


@pytest.mark.parametrize("argv", [
    ("-c", "import sys; sys.modules['numpy'] = None; import rankspectra"),
    # no site directory, so no numpy to find
    ("-S", "-c", "import rankspectra"),
], ids=["blocked", "not-found"])
def test_import_without_numpy_fails(argv):
    proc = run_python(*argv)
    assert proc.returncode == 1
    assert b"ModuleNotFoundError" in proc.stderr


# a stand-in numpy package, run at the first lookup after import rankspectra
DEFERRED_NUMPY = {
    # a lookup from another thread waits for the load; the body's own lookup
    # meanwhile sees a partially initialized module
    "slow": ("import sys, time\n"
             "early = hasattr(sys.modules[__name__], 'zeros')\n"
             "time.sleep(0.3)\n"
             "zeros = 'loaded'\n",
             "import threading, time\n"
             "loader = threading.Thread(target=lambda: numpy.zeros)\n"
             "loader.start(); time.sleep(0.1)\n"
             "print(numpy.zeros, numpy.early); loader.join()\n",
             b"loaded False"),
    # a failed load raises its own error each time and leaves sys.modules
    "broken": ("raise ImportError('broken numpy')\n",
               "for _ in range(2):\n"
               "    try:\n"
               "        numpy.zeros\n"
               "    except ImportError as error:\n"
               "        print(error, 'numpy' in sys.modules)\n",
               b"broken numpy False\nbroken numpy False"),
}


@pytest.mark.parametrize("case", sorted(DEFERRED_NUMPY))
def test_deferred_numpy_load(tmp_path, case):
    body, script, expected = DEFERRED_NUMPY[case]
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text(body)
    proc = run_python("-c", f"import sys; sys.path.insert(0, {str(tmp_path)!r})\n"
                      "import rankspectra, numpy\n" + script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


@pytest.mark.parametrize("doc,status", [
    # 2^61 - 1 is prime: rejected by the field-size cap before any primality test
    ({"p": 2**61 - 1, "m_extension": [1, 1, 0, 0, 1], "n": 4,
      "generator": [[1, 0, 0, 0]]}, 2),
    # a prime q just under the cap: factored fast, then the subspace cap applies
    ({"uniform": {"q": 1000000007, "k": 1, "n": 2}}, 3),
], ids=["huge_characteristic", "huge_uniform_q"])
def test_huge_field_fails_fast(tmp_path, doc, status):
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(doc))
    proc = run_module("analyze", str(spec), timeout=30)
    assert proc.returncode == status
    assert proc.stdout == b""


@pytest.mark.parametrize("argv,doc", [
    (("analyze", EXAMPLE, "--r", "4000"), None),
    (("analyze", EXAMPLE, "--r", str(10**12)), None),
    (("analyze",), {"uniform": {"q": 2, "k": 1, "n": 2, "m": 15000}}),
    (("analyze",), {"uniform": {"q": 2, "k": 1, "n": 2, "m": 10**12}}),
    (("mrd", "--q", "2", "--m", str(10**12), "--n", "2", "--k", "1"), None),
], ids=["r_4000", "r_1e12", "uniform_m_15000", "uniform_m_1e12", "mrd_m_1e12"])
def test_report_integers_bounded(tmp_path, argv, doc):
    # Q^r past Python's int-to-str digit limit: refused before any power of
    # Q is formed, instead of a traceback at print time or a hang
    if doc is not None:
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps(doc))
        argv = (*argv, str(spec))
    proc = run_module(*argv, timeout=30)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert b"int-to-str limit" in proc.stderr


def test_classical_oracle_bounded(tmp_path):
    # U(2,5) over F_2: the classical matroid would walk 2^31 point subsets
    spec = tmp_path / "u25.json"
    spec.write_text(json.dumps({"uniform": {"q": 2, "k": 2, "n": 5}}))
    proc = run_module("verify", "--level", "full", str(spec), timeout=30)
    assert proc.returncode == 0
    checks = {c.pop("check"): c for c in json.loads(proc.stdout)["checks"]}
    assert checks.pop("classical lattice isomorphism") == {
        "status": "skipped",
        "witness": "classical ground set of 31 points exceeds the bitmask limit"}
    assert {c["status"] for c in checks.values()} == {"pass"}


def test_brute_higher_bounded(tmp_path):
    # a k=3, n=5 code over F_1024: 1,049,601 message rows on the exp/log
    # tables, about 50 us each; the check reads skipped at once
    rng = random.Random(1)
    spec = tmp_path / "f1024.json"
    spec.write_text(json.dumps({
        "p": 2, "m_extension": [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1], "n": 5,
        "generator": [[rng.randrange(1024) for _ in range(5)] for _ in range(3)]}))
    proc = run_module("verify", "--level", "full", str(spec), timeout=30)
    assert proc.returncode == 0
    checks = {c.pop("check"): c for c in json.loads(proc.stdout)["checks"]}
    assert checks["brute-force higher spectra (i <= 2)"] == {
        "status": "skipped",
        "witness": "1049601 message rows on table arithmetic exceed the limit 300000"}


@pytest.mark.parametrize("command", [["analyze"], ["verify", "--level", "quick"]],
                         ids=["analyze", "verify-quick"])
def test_cover_cap_exceeded_fails_fast(tmp_path, command):
    # U(3,9) over F_2: 8283458 subspaces pass the subspace cap, but the
    # cover walk of the q-flats and the axiom check visits
    # sum_s [9, s]_2 [9 - s, 1]_2 = 213188689 covers
    spec = tmp_path / "n9.json"
    spec.write_text(json.dumps({"uniform": {"q": 2, "k": 3, "n": 9}}))
    proc = run_module(*command, str(spec), timeout=30)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert str(213188689) in proc.stderr.decode()


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


@pytest.mark.parametrize("raw", [
    b'{"uniform": {"q": 2, "k": 1, "n": 2, "m": ' + b"9" * 5000 + b"}}",
    b'{"uniform": {"q": 2, "k": 1, "n": 2, "m": 3\xff}}',
], ids=["int_over_digit_limit", "invalid_utf8"])
def test_undecodable_input(tmp_path, capsys, raw):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    status = main(["analyze", str(bad)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "invalid JSON input" in captured.err


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
