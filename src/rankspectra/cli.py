"""Command-line interface: parse input files, run the pipeline, emit reports.

Input is a JSON document describing exactly one of: an explicit generator
matrix over a field tower, a uniform q-matroid, or an MRD Gabidulin
construction from anchor elements.  Output is a deterministic report in
JSON (default), aligned text, or CSV (spectra matrices only).

Exit codes: 0 success, 1 verification failure, 2 input error,
3 resource cap exceeded.  A ``verify`` check that meets an oracle's own
size limit reads ``skipped``, which is not a failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

# hashlib loads OpenSSL (3.3 MiB of peak RSS) only to hash the input; the
# builtin module gives the same digests, as random.py does for SHA-512
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .errors import InputError, ResourceLimitError, StructuralError
from .fields import prime_field
from .lattice import build_cycle_lattice, virtual_betti_table
from .linalg import (
    DEFAULT_CODEWORD_CAP,
    DEFAULT_SUBSPACE_CAP,
    enumerate_subspaces,
    gaussian_binomial,
)
from .qmatroid import GabidulinCode, uniform_qmatroid
from .spectra import (
    cross_checked_weights,
    higher_spectra,
    mrd_closed_form,
    uniform_betti_table,
    uniform_h_sequence,
    weight_distribution,
    weight_poly_mobius,
    weight_polys_betti,
)


class Model:
    """A parsed input: the q-matroid plus, when present, the code behind it."""

    def __init__(self, kind, matroid, params, code=None):
        self.kind = kind
        self.matroid = matroid
        self.code = code
        self.params = params

    @property
    def Q(self) -> int:
        """Size q^m of the field the spectra are evaluated over."""
        return self.params["q"] ** self.params["m"]


def _require(cond, message):
    if not cond:
        raise InputError(message)


def _as_int_list(value, name):
    _require(isinstance(value, list) and all(isinstance(x, int) for x in value),
             f"{name} must be a list of integers")
    return value


def parse_spec(doc: dict) -> Model:
    _require(isinstance(doc, dict), "input document must be a JSON object")
    forms = [key for key in ("generator", "uniform", "mrd_gabidulin") if key in doc]
    _require(len(forms) == 1,
             "exactly one of generator/uniform/mrd_gabidulin must be present")
    form = forms[0]
    if form == "uniform":
        u = doc["uniform"]
        _require(isinstance(u, dict), "uniform must be an object")
        for key in ("q", "k", "n"):
            _require(isinstance(u.get(key), int), f"uniform.{key} must be an integer")
        q, k, n = u["q"], u["k"], u["n"]
        m = u.get("m", n)
        _require(isinstance(m, int) and m >= n, "uniform.m must be an integer >= n")
        M = uniform_qmatroid(k, n, q)
        return Model("uniform", M, params={"q": q, "k": k, "n": n, "m": m})
    fields = doc if form == "generator" else doc["mrd_gabidulin"]
    _require(isinstance(fields, dict), f"{form} description must be an object")
    _require(isinstance(fields.get("p"), int), "p must be an integer")
    tower = prime_field(fields["p"])
    for step in fields.get("q_extensions", []):
        tower = tower.extend(_as_int_list(step, "q_extensions entry"))
    q_level = tower.top_level
    tower = tower.extend(_as_int_list(fields.get("m_extension"), "m_extension"))
    code_level = tower.top_level
    _require(isinstance(fields.get("n"), int), "n must be an integer")
    n = fields["n"]
    if form == "generator":
        gen = doc["generator"]
        _require(isinstance(gen, list) and gen, "generator must be a nonempty list")
        for row in gen:
            _as_int_list(row, "generator row")
            _require(len(row) == n, "generator row length must equal n")
        code = GabidulinCode(tower, q_level, code_level, gen)
    else:
        _require(isinstance(fields.get("k"), int), "mrd_gabidulin.k must be an integer")
        anchors = _as_int_list(fields.get("anchors"), "mrd_gabidulin.anchors")
        _require(len(anchors) == n, "mrd_gabidulin needs n anchors")
        code = GabidulinCode.mrd(tower, q_level, code_level, anchors, fields["k"])
    return Model(form, code.qmatroid(), code=code,
                 params={"q": code.q, "m": code.m, "n": code.n, "k": code.k})


def parse_spec_source(raw: bytes) -> tuple[Model, str]:
    digest = sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # bad JSON, bad UTF-8, or an int over the digit limit
        raise InputError(f"invalid JSON input: {exc}") from None
    return parse_spec(doc), digest


def check_report_size(q: int, m: int, r: int, k: int) -> None:
    """Raise ResourceLimitError if a report integer could exceed the int-to-str limit.

    With Q = q^m, the spectrum at Q^r sums to Q^(r k), Q^r itself is printed,
    and row i of the higher spectra counts at most [k, i]_Q < 4 Q^(i (k - i))
    subcodes, so every integer a report holds has fewer than
    e log2(Q) + 2 bits, e = max(r, r k, floor(k^2 / 4)).  log2 Q is read as
    m log2 q, so no power of Q is formed before the check.
    """
    # the limit exists from Python 3.11 (and late 3.10 releases); 0 means none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # past 4 * limit every q >= 2 fails, so clamping keeps the float finite
    exponent = min(m * max(r, r * k, k * k // 4), 4 * limit)
    bits = exponent * math.log2(q) + 2
    if limit and bits * math.log10(2) > limit:
        raise ResourceLimitError(
            f"report integers for q={q}, m={m}, r={r}, k={k} would exceed "
            f"the {limit}-digit int-to-str limit", cap=limit)


def analyze_model(model: Model, r: int, cap: int | None):
    M = model.matroid
    lattice = build_cycle_lattice(M, cap=cap)
    table = virtual_betti_table(lattice)
    polys = weight_polys_betti(table)
    weights = cross_checked_weights(M, table, polys, cap=cap)
    Qtilde = model.Q**r
    spectrum = weight_distribution(polys, Qtilde)
    higher = higher_spectra(polys, model.Q, table.k)
    return {
        "k": table.k,
        "lattice_size": len(lattice),
        "betti": table.to_records(),
        "phi": [
            {"l": l, "j": j, "value": table.phi(l, j)}
            for l in range(table.k + 1)
            for j in range(table.n + 1)
            if table.phi(l, j)
        ],
        "weights": list(weights),
        "polynomials": [list(P.coeffs) for P in polys],
        "spectrum": {"r": r, "Qtilde": Qtilde, "A": spectrum},
        "higher": higher,
    }


def build_report(model: Model, digest: str, body: dict) -> dict:
    return {
        "version": __version__,
        "input_sha256": digest,
        "kind": model.kind,
        "parameters": model.params,
        **body,
    }


# -- rendering ---------------------------------------------------------


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def _text_lines(report: dict):
    yield f"rankspectra {report['version']}  input sha256 {report['input_sha256']}"
    yield f"kind: {report['kind']}  parameters: {report['parameters']}"
    if "weights" in report:
        yield "generalized weights: " + " ".join(map(str, report["weights"]))
    if "betti" in report:
        yield "betti table (l, i, dim j, classical [j], value):"
        for rec in report["betti"]:
            yield (f"  l={rec['l']} i={rec['i']} j={rec['j_dim']} "
                   f"[{rec['j_classical']}] {rec['value']}")
    if "polynomials" in report:
        yield "weight polynomials (s: coefficients, low degree first):"
        for s, coeffs in enumerate(report["polynomials"]):
            yield f"  s={s}: {coeffs}"
    if "spectrum" in report:
        sp = report["spectrum"]
        yield (f"spectrum at Qtilde={sp['Qtilde']} (r={sp['r']}): "
               + " ".join(map(str, sp["A"])))
    if "higher" in report:
        yield "higher spectra (row i, column w):"
        for i, row in enumerate(report["higher"]):
            yield f"  i={i}: " + " ".join(map(str, row))
    if "checks" in report:
        for check in report["checks"]:
            status = {"pass": "pass", "fail": "FAIL", "skipped": "SKIP"}[check["status"]]
            yield f"{status}  {check['check']}"


def render_text(report: dict) -> str:
    return "\n".join(_text_lines(report)) + "\n"


def render_csv(report: dict) -> str:
    lines = []
    if "spectrum" in report:
        lines.append("s,A")
        for s, a in enumerate(report["spectrum"]["A"]):
            lines.append(f"{s},{a}")
    if "higher" in report:
        if lines:
            lines.append("")
        n = len(report["higher"][0]) - 1
        lines.append("i," + ",".join(f"w{w}" for w in range(n + 1)))
        for i, row in enumerate(report["higher"]):
            lines.append(f"{i}," + ",".join(map(str, row)))
    if not lines:
        raise InputError("csv format applies only to spectrum data")
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "text":
        return render_text(report)
    if fmt == "csv":
        return render_csv(report)
    raise InputError(f"unknown format: {fmt}")


# -- verification ------------------------------------------------------


def run_verification(model: Model, level: str, cap: int | None,
                     cap_codewords: int):
    M = model.matroid
    checks = []

    def record(name, fn):
        try:
            witness = fn()
            checks.append({"check": name, "status": "pass"}
                          | ({"witness": witness} if witness else {}))
        except StructuralError as exc:
            checks.append({"check": name, "status": "fail", "witness": str(exc)})
        except ResourceLimitError as exc:
            checks.append({"check": name, "status": "skipped", "witness": str(exc)})

    axioms = M.verify_axioms(cap=cap)
    checks.append({"check": "q-matroid axioms", "status":
                   "pass" if axioms["ok"] else "fail"}
                  | ({} if axioms["ok"] else {"witness": axioms["violation"]}))

    lattice = build_cycle_lattice(M, cap=cap)
    table = virtual_betti_table(lattice)
    polys = weight_polys_betti(table)
    checks.append({"check": "cycle lattice Jordan-Dedekind", "status": "pass"})

    def poly_identity():
        for s in range(M.n + 1):
            if weight_poly_mobius(M, s, cap=cap) != polys[s]:
                raise StructuralError(f"polynomial identity fails at s={s}")

    record("betti/moebius polynomial identity", poly_identity)
    record("generalized-weight agreement",
           lambda: {"weights": list(cross_checked_weights(M, table, polys, cap=cap))})

    def conservation():
        k = table.k
        for power in (1, 2, 3):
            total = sum(P(model.Q**power) for P in polys)
            if total != model.Q ** (power * k):
                raise StructuralError(
                    f"spectrum total {total} != Qtilde^k at power {power}")

    record("spectrum mass conservation", conservation)

    if level == "full":
        record("classical lattice isomorphism",
               lambda: verify_iso_summary(lattice))
        record("inclusion-exclusion polynomials (s <= 2)",
               lambda: check_inclusion_exclusion(M, polys, cap))
        if model.code is not None:
            record("brute-force spectrum",
                   lambda: check_brute_spectrum(model, polys, cap_codewords))
            higher = higher_spectra(polys, model.Q, table.k)
            record("brute-force higher spectra (i <= 2)",
                   lambda: check_brute_higher(model, higher, cap))
    return checks


# The oracle checks import ``oracle`` (and its enumeration kernel) as they
# run, so no other command loads it.


def verify_iso_summary(lattice):
    from . import oracle

    report = oracle.verify_lattice_isomorphism(lattice)
    return {"flats": report["flats"], "cycles": report["cycles"]}


def check_inclusion_exclusion(M, polys, cap):
    from . import oracle

    for s in range(min(2, M.n) + 1):
        total = [0] * (M.full_rank + 1)
        for U in enumerate_subspaces(M.gf, M.n, s, cap=cap):
            for e, c in enumerate(oracle.inclusion_exclusion_poly(M, U).coeffs):
                total[e] += c
        while total and total[-1] == 0:
            total.pop()
        if tuple(total) != polys[s].coeffs:
            raise StructuralError(
                f"inclusion-exclusion sum {total} != polynomial at s={s}")


def check_brute_spectrum(model, polys, cap_codewords):
    from . import oracle

    out = {}
    for r in (1, 2):
        if model.Q ** (r * model.code.k) > cap_codewords:
            continue
        brute = oracle.brute_spectrum(model.code, r, cap=cap_codewords)
        expected = weight_distribution(polys, model.Q**r)
        if brute != expected:
            raise StructuralError(
                f"brute spectrum {brute} != evaluation {expected} at r={r}")
        out[f"r={r}"] = brute
    return out


def check_brute_higher(model, higher, cap):
    from . import oracle

    for i in range(min(2, model.code.k) + 1):
        brute = oracle.brute_higher(model.code, i, cap=cap)
        if brute != higher[i]:
            raise StructuralError(
                f"brute higher spectra {brute} != pipeline {higher[i]} at i={i}")


# -- entry points ------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--format", choices=("json", "text", "csv"), default="json")
    parser.add_argument("--r", type=int, default=1,
                        help="extension degree for the evaluation point Q^r")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--cap-codewords", type=int,
                        default=DEFAULT_CODEWORD_CAP)
    parser.add_argument("--cap-subspaces", "--max-subspaces", type=int,
                        dest="cap_subspaces", default=DEFAULT_SUBSPACE_CAP)


COMMANDS = ("analyze", "betti", "weights", "spectrum", "higher", "verify", "mrd")


def build_parser(command=None):
    """The parser of every command, or of ``command`` alone, which parses
    and reports as the full one does: its usage still lists every command."""
    parser = argparse.ArgumentParser(
        prog="rankspectra",
        description="Rank-metric weight spectra via the lattice of q-cycles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        None if command is None else "{" + ",".join(COMMANDS) + "}"))
    for name in COMMANDS if command is None else (command,):
        p = sub.add_parser(name)
        if name == "mrd":
            for flag in ("--q", "--m", "--n", "--k"):
                p.add_argument(flag, type=int, required=True)
        else:
            p.add_argument("file")
        if name == "verify":
            p.add_argument("--level", choices=("quick", "full"), default="quick")
        _add_common(p)
    return parser


_SECTION_KEYS = {
    "betti": ("k", "lattice_size", "betti", "phi"),
    "weights": ("k", "weights"),
    "spectrum": ("k", "polynomials", "spectrum"),
    "higher": ("k", "higher"),
}


def run(args) -> tuple[str, int]:
    _require(args.r >= 1, f"--r must be >= 1, got {args.r}")
    if args.command == "mrd":
        return run_mrd(args)
    with open(args.file, "rb") as fh:
        raw = fh.read()
    model, digest = parse_spec_source(raw)
    p = model.params  # verify ignores --r; it prints spectra only within the codeword cap
    check_report_size(p["q"], p["m"], 1 if args.command == "verify" else args.r, p["k"])
    if args.command == "verify":
        checks = run_verification(model, args.level, args.cap_subspaces,
                                  args.cap_codewords)
        report = build_report(model, digest, {"level": args.level, "checks": checks})
        failed = any(c["status"] == "fail" for c in checks)
        return render(report, args.format), 1 if failed else 0
    body = analyze_model(model, args.r, args.cap_subspaces)
    if args.command != "analyze":
        body = {key: body[key] for key in _SECTION_KEYS[args.command]}
    return render(build_report(model, digest, body), args.format), 0


def run_mrd(args) -> tuple[str, int]:
    q, m, n, k = args.q, args.m, args.n, args.k
    M = uniform_qmatroid(k, n, q)
    check_report_size(q, m, args.r, k)
    closed = mrd_closed_form(n, k, q, m)
    table = virtual_betti_table(build_cycle_lattice(M, cap=args.cap_subspaces))
    polys = weight_polys_betti(table)
    pipeline = weight_distribution(polys, (q**m) ** args.r)
    agree = args.r == 1 and closed == pipeline
    params = {"q": q, "m": m, "n": n, "k": k}
    digest = sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()
    report = build_report(Model("mrd", M, params=params), digest, {
        "closed_form": closed,
        "spectrum": {"r": args.r, "Qtilde": (q**m) ** args.r, "A": pipeline},
        "agreement": agree,
        "h_sequences": {str(l): uniform_h_sequence(n, k, q, l)
                        for l in range(k + 1)},
        "betti": uniform_betti_table(n, k, q).to_records(),
        "gaussian_nk": gaussian_binomial(n, k, q),
    })
    if args.r == 1 and not agree:
        raise StructuralError("closed-form and pipeline spectra disagree")
    return render(report, args.format), 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        output, status = run(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except StructuralError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return status


def console_main():  # pragma: no cover - thin wrapper
    status = main()
    # finalization runs full collections; frozen objects are skipped, so
    # the tens of thousands left alive cost nothing to exit
    gc.freeze()
    raise SystemExit(status)


if __name__ == "__main__":
    console_main()
