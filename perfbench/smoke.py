"""Harness smoke check on the small ladder inputs; finishes in seconds.

    python3 perfbench/smoke.py

Runs the benchmark harness on ``analyze`` of the golden F_16 code
(tests/data/example_code.json) and of U(2,4), untraced and traced, and
checks that the golden spectrum is found, that every metric named in
BENCHMARK.json is printed with its unit, and that a deliberately wrong
expected value makes every command count as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
from workloads import Workload, check_uniform  # noqa: E402

GOLDEN_SPECTRUM = [1, 15, 420, 2460, 1200]


def spectrum_is(expected):
    def check(report: dict, raw: bytes) -> list[str]:
        got = report["spectrum"]["A"]
        return [] if got == expected else [f"spectrum {got} != expected {expected}"]
    return check


def require(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke check FAILED: {message}")


def capture(workload: Workload, trace: bool) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.run_workload(workload, seed=0, seconds=1, trace=trace)
    return result, buf.getvalue()


def require_printed(result: dict, text: str, declared: list[dict]) -> None:
    require(set(result["metrics"]) == {m["name"] for m in declared},
            f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    for m in declared:
        require(result["metrics"][m["name"]]["unit"] == m["unit"], f"unit of {m['name']}")
        require(any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                    for line in text.splitlines()), f"{m['name']} not printed with its unit")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    golden_input = json.loads((run.ROOT / "tests" / "data" / "example_code.json").read_text())
    golden = Workload("smoke_golden", ("analyze",),
                      lambda seed: golden_input, spectrum_is(GOLDEN_SPECTRUM))
    uniform = Workload("smoke_uniform_2_4", ("analyze",),
                       lambda seed: {"uniform": {"q": 2, "k": 2, "n": 4}},
                       check_uniform(4, 2, 2))
    wrong = Workload("smoke_wrong_expectation", ("analyze",), lambda seed: golden_input,
                     spectrum_is(GOLDEN_SPECTRUM[:-1] + [GOLDEN_SPECTRUM[-1] + 1]))

    for workload in (golden, uniform):
        result, text = capture(workload, trace=False)
        require(result["correct"] and result["failed"] == 0,
                f"{workload.name} failed:\n{text}")
        require("failed_share = 0.0000 share" in text, "failed_share not printed")
        require_printed(result, text, spec["end_to_end"])
        result, text = capture(workload, trace=True)
        require(result["correct"] and result["failed"] == 0,
                f"{workload.name} traced run failed:\n{text}")
        require_printed(result, text, spec["per_layer"])
        require(result["metrics"]["trace.coverage"]["value"] >= 0.9,
                f"top-level spans cover too little of {workload.name}")

    result, text = capture(wrong, trace=False)
    require(not result["correct"] and result["failed"] == result["attempted"],
            f"a wrong expected value did not fail every command:\n{text}")
    require("failed_share = 1.0000 share" in text, "failed_share is not 1")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
