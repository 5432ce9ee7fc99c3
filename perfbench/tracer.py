"""Run one rankspectra CLI command in-process with per-layer instrumentation.

    python3 perfbench/tracer.py --mode spans|counts --out FILE --id ID -- CLI-ARGS...

The command's report goes to stdout and its exit status is returned,
exactly as ``rankspectra CLI-ARGS`` would give them.  Instrumentation
wraps public functions at their module or class attributes, so the
package source is not changed:

- ``spans`` records a span (name, start, end, parent, command id) around
  each layer entry point, kept in memory and written to FILE at the end.
- ``counts`` counts the hot calls (FieldTower arithmetic, Subspace.contains,
  rref, subspaces enumerated, rank-oracle calls and memo hits) and the
  lattice shape.  It is a separate pass, so the wrappers around tens of
  millions of field operations do not inflate span times.

Spans assume one thread (``--threads 1``): the parent is the innermost open
span.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rankspectra  # noqa: E402
from rankspectra import _kernels, cli, fields, lattice, linalg, oracle, qmatroid, spectra  # noqa: E402

ROOT_SPAN = "cli.main"

# (owner, attribute, span name); several attributes may share one name
SPANNED = (
    (cli, "parse_spec_source", "cli.parse"),
    (cli, "render", "cli.render"),
    (qmatroid.QMatroid, "rank", "qmatroid.rank"),
    (qmatroid.QMatroid, "qcycles", "qmatroid.qcycles"),
    (qmatroid.QMatroid, "qflats", "qmatroid.qflats"),
    (qmatroid.QMatroid, "verify_axioms", "qmatroid.verify_axioms"),
    (lattice, "build_cycle_lattice", "lattice.build_cycle_lattice"),
    (lattice.CycleLattice, "__init__", "lattice.build"),
    (lattice, "virtual_betti_table", "lattice.betti"),
    (spectra, "weight_polys_betti", "spectra.polys_betti"),
    (spectra, "weight_poly_mobius", "spectra.poly_mobius"),
    (spectra, "cross_checked_weights", "spectra.cross_checked_weights"),
    (spectra, "weights_conullity", "spectra.weights_conullity"),
    (spectra, "weights_betti", "spectra.weights_betti"),
    (spectra, "weights_flats", "spectra.weights_flats"),
    (spectra, "weights_from_polys", "spectra.weights_from_polys"),
    (spectra, "weight_distribution", "spectra.eval"),
    (spectra, "higher_spectra", "spectra.eval"),
    (oracle, "brute_spectrum", "oracle.brute_spectrum"),
    (oracle, "verify_lattice_isomorphism", "oracle.lattice_iso"),
    (oracle, "inclusion_exclusion_poly", "oracle.inclusion_exclusion"),
    (oracle, "brute_higher", "oracle.brute_higher"),
    (_kernels, "spectrum_counts", "kernels.spectrum_counts"),
)

COUNTED = (
    (fields.FieldTower, "add", "fields.add_calls"),
    (fields.FieldTower, "mul", "fields.mul_calls"),
    (fields.FieldTower, "neg", "fields.neg_calls"),
    (fields.FieldTower, "inv", "fields.inv_calls"),
    (linalg.Subspace, "contains", "linalg.contains_calls"),
    (linalg, "rref", "linalg.rref_calls"),
)


def patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` by ``make(original)``.

    A module-level function is replaced in every rankspectra module that
    imported it by name, so calls through those modules see the wrapper.
    """
    if isinstance(owner, type):
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    original = getattr(owner, attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if name == "rankspectra" or name.startswith("rankspectra."):
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


class SpanRecorder:
    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []

    def wrap(self, name: str):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
                open_.append(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    open_.pop()
                    spans[index][2] = clock()
            return wrapper

        return make

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            patch(owner, attr, self.wrap(name))

    def run(self, argv) -> int:
        return self.wrap(ROOT_SPAN)(cli.main)(argv)

    def result(self) -> dict:
        return {"command_id": self.command_id,
                "fields": ["name", "start", "end", "parent"],
                "spans": self.spans}


class CallCounter:
    def __init__(self, command_id: str):
        self.command_id = command_id
        self._cells: dict[str, list[int]] = {}
        self._subspaces_seen: set = set()
        self._lattices: list = []

    def cell(self, name: str) -> list[int]:
        return self._cells.setdefault(name, [0])

    def count_calls(self, name: str):
        cell = self.cell(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        return make

    def install(self) -> None:
        for owner, attr, name in COUNTED:
            patch(owner, attr, self.count_calls(name))
        calls, hits = self.cell("qmatroid.rank_calls"), self.cell("memo_hits")
        seen = self._subspaces_seen

        def make_rank(fn):
            @functools.wraps(fn)
            def rank(self, X):
                calls[0] += 1
                if X in self._memo:
                    hits[0] += 1
                seen.add(X)
                return fn(self, X)
            return rank

        patch(qmatroid.QMatroid, "rank", make_rank)
        enumerated = self.cell("linalg.subspaces_enumerated")

        def make_enumerate(fn):
            # subspaces of an ambient subspace come from an inner call on its
            # chart, which is counted there; count only direct enumerations
            @functools.wraps(fn)
            def enumerate_subspaces(*args, **kwargs):
                direct = kwargs.get("ambient", args[3] if len(args) > 3 else None) is None
                for X in fn(*args, **kwargs):
                    if direct:
                        enumerated[0] += 1
                    yield X
            return enumerate_subspaces

        patch(linalg, "enumerate_subspaces", make_enumerate)
        lattices = self._lattices

        def make_lattice_init(fn):
            @functools.wraps(fn)
            def __init__(self, *args, **kwargs):
                fn(self, *args, **kwargs)
                lattices.append(self)
            return __init__

        patch(lattice.CycleLattice, "__init__", make_lattice_init)
        self.add_result_sum(oracle, "brute_spectrum", "oracle.codewords")
        self.add_result_sum(_kernels, "spectrum_counts", "kernels.codewords")

    def add_result_sum(self, owner, attr: str, name: str) -> None:
        """Accumulate the sum of a histogram-valued function's results."""
        cell = self.cell(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                cell[0] += int(sum(out))
                return out
            return wrapper

        patch(owner, attr, make)

    def run(self, argv) -> int:
        return cli.main(argv)

    def result(self) -> dict:
        counts = {name: cell[0] for name, cell in self._cells.items()}
        calls, hits = counts["qmatroid.rank_calls"], counts.pop("memo_hits")
        counts["qmatroid.rank_evals"] = len(self._subspaces_seen)
        counts["qmatroid.memo_hit_ratio"] = hits / calls if calls else 0.0
        nodes = below_pairs = cover_edges = 0
        for L in self._lattices:
            nodes += len(L.nodes)
            below_pairs += sum(len(b) for b in L.below)
            for below in L.below:
                # j is covered by i unless some t strictly between has j below it
                deeper = set().union(*(L.below[t] for t in below))
                cover_edges += len(below - deeper)
        counts.update({"lattice.nodes": nodes, "lattice.below_pairs": below_pairs,
                       "lattice.cover_edges": cover_edges})
        return {"command_id": self.command_id, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("spans", "counts"), required=True)
    parser.add_argument("--out", required=True, help="file for the recorded data")
    parser.add_argument("--id", default="", help="command id stored with the data")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if not Path(rankspectra.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"rankspectra imported from {rankspectra.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    recorder = SpanRecorder(args.id) if args.mode == "spans" else CallCounter(args.id)
    recorder.install()
    status = recorder.run(cli_args)
    with open(args.out, "w") as fh:
        json.dump(recorder.result(), fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
