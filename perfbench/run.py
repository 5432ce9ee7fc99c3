"""rankspectra benchmark: the user-facing CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from a checkout root; the package is taken from its ``src`` directory.
The load is a closed loop with one client: one CLI command at a time, each
in a fresh interpreter with ``--threads 1``, so no rank memo or field table
survives between samples.  Every output is checked outside the timed
region, and a command that exits non-zero, prints nothing or fails a check
counts as failed.

``--trace 0`` samples the command until the next sample would pass S
seconds (at least one) and reports medians of the end-to-end metrics.
``--trace 1`` runs the command once untraced, once with spans and once
with call counters (``tracer.py``) and reports the per-layer metrics.
The last stdout line is the JSON result; lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 9  # at least this many set-up timings per run
DEADLINE_S = 150  # every child must end this long after start; checks follow

CLI_MAIN = "from rankspectra.cli import console_main; console_main()"
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import rankspectra
from rankspectra import cli
with open(sys.argv[1], "rb") as fh:
    cli.parse_spec_source(fh.read())
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {"solve_s": "s", "solve_cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}

SPAN_METRICS = {  # metric -> span name, total over outermost spans
    "cli.parse_s": "cli.parse",
    "qmatroid.qcycles_s": "qmatroid.qcycles",
    "qmatroid.qflats_s": "qmatroid.qflats",
    "qmatroid.rank_s": "qmatroid.rank",
    "qmatroid.verify_axioms_s": "qmatroid.verify_axioms",
    "lattice.build_s": "lattice.build",
    "lattice.betti_s": "lattice.betti",
    "spectra.weights_conullity_s": "spectra.weights_conullity",
    "spectra.weights_flats_s": "spectra.weights_flats",
    "spectra.eval_s": "spectra.eval",
    "spectra.poly_mobius_s": "spectra.poly_mobius",
    "oracle.brute_spectrum_s": "oracle.brute_spectrum",
    "oracle.lattice_iso_s": "oracle.lattice_iso",
    "oracle.inclusion_exclusion_s": "oracle.inclusion_exclusion",
    "oracle.brute_higher_s": "oracle.brute_higher",
    "kernels.spectrum_counts_s": "kernels.spectrum_counts",
}
COUNT_METRICS = {  # metric -> unit, read from the counting pass
    "qmatroid.rank_calls": "count",
    "qmatroid.rank_evals": "count",
    "qmatroid.memo_hit_ratio": "share",
    "linalg.subspaces_enumerated": "count",
    "linalg.contains_calls": "count",
    "linalg.rref_calls": "count",
    "fields.add_calls": "count",
    "fields.mul_calls": "count",
    "fields.neg_calls": "count",
    "fields.inv_calls": "count",
    "lattice.nodes": "count",
    "lattice.below_pairs": "count",
    "lattice.cover_edges": "count",
    "oracle.codewords": "count",
}


@dataclass
class Sample:
    status: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mib: float
    stderr: bytes


def run_child(argv, deadline: float) -> Sample:
    """Run one child to completion and return its output and rusage.

    The child is killed at the deadline (``time.monotonic``) and then
    reports a negative status.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        out.seek(0)
        err.seek(0)
        return Sample(proc.returncode, out.read(), wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, err.read())


def measure_setup(argv, deadline: float) -> float:
    """Seconds of ``import rankspectra`` plus input parsing in a fresh interpreter."""
    sample = run_child(argv, deadline)
    if sample.status != 0:
        raise RuntimeError("setup failed: " + sample.stderr.decode(errors="replace"))
    return float(sample.stdout)


def check_outputs(workload, samples: list[Sample], raw: bytes) -> list[list[str]]:
    """Problems per sample; reports must also be byte-identical across samples."""
    digest = hashlib.sha256(raw).hexdigest()
    verdicts: dict[bytes, list[str]] = {}
    out = []
    for sample in samples:
        problems = []
        if sample.status != 0:
            problems.append(f"exit status {sample.status}: "
                            + sample.stderr.decode(errors="replace")[-300:])
        if not sample.stdout:
            problems.append("empty stdout")
        elif sample.stdout != samples[0].stdout:
            problems.append("report differs from the first sample's")
        else:
            if sample.stdout not in verdicts:
                verdicts[sample.stdout] = check_report(workload, sample.stdout, raw, digest)
            problems += verdicts[sample.stdout]
        out.append(problems)
    return out


def check_report(workload, stdout: bytes, raw: bytes, digest: str) -> list[str]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if report.get("input_sha256") != digest:
        return [f"input_sha256 {report.get('input_sha256')} != {digest}"]
    try:
        return workload.check(report, raw)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]


def span_summary(spans: list[list]) -> tuple[dict, dict, float, float]:
    """Total (outermost spans only) and self time per name, root time, coverage.

    Coverage is the share of the root span's time covered by its children,
    the top-level layer calls.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        self_time[name] += end - start - child_time[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total[name] += end - start
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    root_s = sum(spans[i][2] - spans[i][1] for i in roots)
    covered = sum(child_time[i] for i in roots)
    return total, self_time, root_s, covered / root_s if root_s else 0.0


def metadata(workload, seed: int, seconds: float, trace: bool, raw: bytes) -> dict:
    import numpy
    import rankspectra
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "input_sha256": hashlib.sha256(raw).hexdigest(),
        "git_sha": sha, "src_sha256": tree.hexdigest(),
        "rankspectra": rankspectra.__version__, "python": platform.python_version(),
        "numpy": numpy.__version__, "numba": has_numba,
        "RANKSPECTRA_NO_NUMBA": os.environ.get("RANKSPECTRA_NO_NUMBA"),
        "nproc": os.cpu_count(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark run, print its report lines and return the result."""
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(parents=True, exist_ok=True)
    raw = (json.dumps(workload.make_input(seed), sort_keys=True) + "\n").encode()
    stem = f"{workload.name}-seed{seed}"
    input_path = WORK / f"{stem}.json"
    input_path.write_bytes(raw)
    command = [*workload.command, str(input_path), "--threads", "1"]
    cli_argv = [sys.executable, "-c", CLI_MAIN, *command]

    samples: list[Sample] = []
    metrics: dict[str, dict] = {}
    lines: list[str] = []
    if not trace:
        # set-up is timed next to each sample, so both see the same machine load
        setup_argv = [sys.executable, "-c", SETUP_CODE, str(input_path)]
        measure_setup(setup_argv, deadline)  # warm the bytecode cache
        setup: list[float] = []
        loop_start = time.perf_counter()
        while True:
            setup.append(measure_setup(setup_argv, deadline))
            samples.append(run_child(cli_argv, deadline))
            elapsed = time.perf_counter() - loop_start
            typical = statistics.median(s.wall_s for s in samples)
            if elapsed + typical > seconds or time.monotonic() + typical > deadline:
                break
        while len(setup) < SETUP_REPEATS:
            setup.append(measure_setup(setup_argv, deadline))
        values = {"solve_s": [s.wall_s for s in samples],
                  "solve_cpu_s": [s.cpu_s for s in samples],
                  "setup_s": setup,
                  "peak_rss_mb": [s.rss_mib for s in samples]}
        for name, vals in values.items():
            metrics[name] = metric(statistics.median(vals), END_TO_END_UNITS[name])
            lines.append(f"{name} = {metrics[name]['value']:.6f} {END_TO_END_UNITS[name]}"
                         f"  (median of {len(vals)}; min {min(vals):.6f}, max {max(vals):.6f})")
    else:
        tracer = [sys.executable, str(HERE / "tracer.py")]
        spans_path, counts_path = WORK / f"{stem}-spans.json", WORK / f"{stem}-counts.json"
        spans_path.unlink(missing_ok=True)
        counts_path.unlink(missing_ok=True)
        plain = run_child(cli_argv, deadline)
        traced = run_child([*tracer, "--mode", "spans", "--out", str(spans_path),
                            "--id", f"{stem}/spans", "--", *command], deadline)
        counted = run_child([*tracer, "--mode", "counts", "--out", str(counts_path),
                             "--id", f"{stem}/counts", "--", *command], deadline)
        samples = [plain, traced, counted]
        metrics, lines = per_layer(spans_path, counts_path, plain, traced)

    problems = check_outputs(workload, samples, raw)
    failed = sum(1 for p in problems if p)
    attempted = len(samples)
    meta = metadata(workload, seed, seconds, trace, raw)
    meta["samples"] = attempted
    if not trace:
        meta["setup_samples"] = len(setup)
    print(f"workload {workload.name}  seed {seed}  input sha256 {meta['input_sha256']}")
    for line in lines:
        print(line)
    print(f"failed_share = {failed / attempted:.4f} share  ({failed} of {attempted})")
    for i, p in enumerate(problems):
        for problem in p:
            print(f"sample {i} FAILED: {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer(spans_path: Path, counts_path: Path, plain: Sample, traced: Sample):
    lines = []
    metrics: dict[str, dict] = {}
    spans = json.loads(spans_path.read_text())["spans"] if spans_path.exists() else []
    counts = (json.loads(counts_path.read_text())["counts"]
              if counts_path.exists() else {})
    total, self_time, root_s, coverage = span_summary(spans)
    for name, span in SPAN_METRICS.items():
        metrics[name] = metric(total.get(span, 0.0), "s")
    for name, unit in COUNT_METRICS.items():
        metrics[name] = metric(counts.get(name, 0), unit)
    kernel_s = total.get("kernels.spectrum_counts", 0.0)
    metrics["kernels.codewords_per_s"] = metric(
        counts.get("kernels.codewords", 0) / kernel_s if kernel_s else 0.0, "1/s")
    metrics["trace.command_s"] = metric(root_s, "s")
    metrics["trace.coverage"] = metric(coverage, "share")
    metrics["trace.overhead_s"] = metric(traced.wall_s - plain.wall_s, "s")
    lines.append(f"{'span':<32} {'total s':>10} {'self s':>10}")
    for name in sorted(self_time, key=lambda k: -total.get(k, 0.0)):
        lines.append(f"{name:<32} {total.get(name, 0.0):>10.4f} {self_time[name]:>10.4f}")
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']} {m['unit']}")
    if coverage < 0.9:
        lines.append(f"WARNING: top-level spans cover only {coverage:.3f} of the command")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "rankspectra" / "__init__.py").is_file():
        print(f"no rankspectra package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"unknown workload {args.workload}; choose from {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
