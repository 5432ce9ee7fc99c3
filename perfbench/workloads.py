"""Benchmark workloads: seeded input generators and output checks.

Each workload names one CLI command, builds its JSON input from the seed
alone, and checks a report against an independent reference.  Checks
run in the benchmark process, outside the timed region, and return a
list of problems (empty when the report is correct).  BENCHMARK.json
records why each workload was chosen.  The package is imported from the
checkout's ``src`` directory, which ``run.py`` puts first on ``sys.path``
before importing this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from rankspectra import InputError, cli, prime_field, spectra
from rankspectra.oracle import brute_spectrum
from rankspectra.qmatroid import GabidulinCode


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI words placed before the input file
    make_input: Callable[[int], dict]
    check: Callable[[dict, bytes], list[str]]  # (report, raw input) -> problems


def random_code(seed: int, label: str, p: int, m_extension, k: int, n: int) -> dict:
    """Generator-matrix input drawn from the seed, full rank over F_{p^m}.

    Rank-deficient draws are rejected by ``GabidulinCode`` itself, the same
    validation the CLI applies, and redrawn from the same stream.
    """
    rng = random.Random(f"{label}/{seed}")
    tower = prime_field(p).extend(m_extension)
    Q = tower.size()
    while True:
        gen = [[rng.randrange(Q) for _ in range(n)] for _ in range(k)]
        try:
            GabidulinCode(tower, 0, 1, gen)
        except InputError:
            continue
        return {"p": p, "m_extension": list(m_extension), "n": n, "generator": gen}


def parse(raw: bytes):
    return cli.parse_spec_source(raw)[0]


def expect(problems: list[str], name: str, got, want) -> None:
    if got != want:
        problems.append(f"{name}: got {got}, expected {want}")


def check_brute_r1(report: dict, raw: bytes) -> list[str]:
    """The reported spectrum equals full codeword enumeration at r=1."""
    problems: list[str] = []
    expect(problems, "spectrum vs brute_spectrum(r=1)",
           report["spectrum"]["A"], brute_spectrum(parse(raw).code, 1))
    return problems


def check_uniform(n: int, k: int, q: int) -> Callable[[dict, bytes], list[str]]:
    """The report matches the MRD and uniform Betti closed forms."""

    def check(report: dict, raw: bytes) -> list[str]:
        problems: list[str] = []
        expect(problems, "spectrum vs mrd_closed_form",
               report["spectrum"]["A"], spectra.mrd_closed_form(n, k, q, n))
        expect(problems, "betti vs uniform_betti_table",
               report["betti"], spectra.uniform_betti_table(n, k, q).to_records())
        return problems

    return check


def check_verify_pass(report: dict, raw: bytes) -> list[str]:
    """Every verification check of the report passed."""
    problems = [f"check {c['check']!r}: {c['status']}"
                for c in report["checks"] if c["status"] != "pass"]
    if not report["checks"]:
        problems.append("report lists no checks")
    return problems


def check_mobius_and_mass(report: dict, raw: bytes) -> list[str]:
    """Polynomials s <= 2 match the Moebius route; totals are Q^(r k), r = 1, 2."""
    problems: list[str] = []
    model = parse(raw)
    M = model.matroid
    polys = [spectra.WeightPolynomial(c) for c in report["polynomials"]]
    for s in range(min(2, M.n) + 1):
        expect(problems, f"polynomial s={s} vs weight_poly_mobius",
               polys[s], spectra.weight_poly_mobius(M, s))
    k = report["k"]
    for r in (1, 2):
        expect(problems, f"spectrum total at r={r}",
               sum(P(model.Q**r) for P in polys), model.Q ** (r * k))
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        "code_q2_n6",
        ("analyze",),
        lambda seed: random_code(seed, "code_q2_n6", 2, [1, 1, 0, 0, 0, 0, 1], 3, 6),
        check_brute_r1,
    ),
    Workload(
        "uniform_q2_k3_n6",
        ("analyze",),
        lambda seed: {"uniform": {"q": 2, "k": 3, "n": 6}},
        check_uniform(6, 3, 2),
    ),
    Workload(
        "verify_full_q2_n4",
        ("verify", "--level", "full"),
        lambda seed: random_code(seed, "verify_full_q2_n4", 2, [1, 1, 0, 0, 1], 3, 4),
        check_verify_pass,
    ),
    Workload(
        "code_q3_n5",
        ("analyze",),
        lambda seed: random_code(seed, "code_q3_n5", 3, [1, 2, 0, 0, 0, 1], 2, 5),
        check_mobius_and_mass,
    ),
)}
