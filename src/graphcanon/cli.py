"""Command-line surface: canonize, compare, probe embeddings, generate corpora, bench.

Output is deterministic for fixed inputs and flags; --workers is accepted and
ignored, and all randomness flows through --seed. Exit codes: 0 success
(isomorphic, for `iso`), 1 negative verdict or generic failure, 2 malformed
input, 3 oracle or backend capacity exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    BackendCapacityError,
    FormatError,
    GraphCanonError,
    OracleCapacityError,
)
from .formats import cg_dumps, cg_loads, graph6_loads, rs_dumps, rs_loads
from .generators import gen_family, manifest_line, platonic_rotation_system
from .graph import Labeling, apply_permutation
from .invariant import backend_from_selector
from .mincode import minimum_encoding
from .oracles import automorphisms, orbits, rigidity_index
from .parallel import RunStats
from .rigidity import canon_rigidity
from .separator import canon_separator, find_isomorphism
from .embedding import (
    enumerate_rotation_systems,
    euler_genus,
    fixing_triple,
    is_polyhedral,
    polyhedral_fixing_set,
    trace_faces,
)

BENCH_COLUMNS = "family,n,seed,method,invariant,depth,invariant_calls,wall_ms,workers,diagnostics"


@dataclass
class RunReport:
    """One bench row in the fixed CSV schema."""

    family: str
    n: int
    seed: int
    method: str
    invariant: str
    depth: int
    invariant_calls: int
    wall_ms: float
    workers: int
    diagnostics: str

    def csv_row(self) -> str:
        return (
            f"{self.family},{self.n},{self.seed},{self.method},{self.invariant},"
            f"{self.depth},{self.invariant_calls},{self.wall_ms:.1f},{self.workers},"
            f"{self.diagnostics}"
        )


def _emit(text: str):
    sys.stdout.write(text)


def _read_graph(path: str, fmt: str):
    data = Path(path).read_bytes()
    if fmt == "cg":
        return cg_loads(data)
    if fmt == "graph6":
        return graph6_loads(data)
    raise FormatError(f"unknown graph format {fmt!r}")


def _check_r(method: str, r: int):
    """Refuse an --r the method cannot use, before any output: separators need
    r >= 1, rigidity sequences r >= 0; bf has no r."""
    least = {"separator": 1, "rigidity": 0}.get(method)
    if least is not None and r < least:
        raise ValueError(f"--r must be at least {least} for {method}, got {r}")


def _canonize(graph, args, stats: RunStats) -> Labeling:
    if args.method == "bf":
        _, labeling = minimum_encoding(graph, stats=stats)
        stats.count_invariant()
        stats.observe_depth(1)
        return labeling
    backend = backend_from_selector(args.invariant)
    if args.method == "separator":
        return canon_separator(
            graph, args.r, backend, check=args.check, workers=args.workers, stats=stats
        )
    if args.method == "rigidity":
        return canon_rigidity(graph, args.r, backend, workers=args.workers, stats=stats)
    raise GraphCanonError(f"unknown method {args.method!r}")


def cmd_canon(args) -> int:
    _check_r(args.method, args.r)
    graph = _read_graph(args.input, args.format)
    stats = RunStats(args.workers)
    labeling = _canonize(graph, args, stats)
    lines = [f"{v} -> {labeling[v]}" for v in graph.vertices]
    _emit("\n".join(lines) + ("\n" if lines else ""))
    _emit(cg_dumps(apply_permutation(graph, labeling)))
    for diag in stats.diagnostics:
        print(f"diagnostic: {diag}", file=sys.stderr)
    return 0


def cmd_iso(args) -> int:
    _check_r("separator", args.r)
    first = _read_graph(args.inputs[0], args.format)
    second = _read_graph(args.inputs[1], args.format)
    backend = backend_from_selector(args.invariant)
    stats = RunStats(args.workers)
    mapping = find_isomorphism(
        first, second, args.r, backend, check=args.check, workers=args.workers, stats=stats
    )
    for diag in stats.diagnostics:
        print(f"diagnostic: {diag}", file=sys.stderr)
    if mapping is None:
        _emit("non-isomorphic\n")
        return 1
    _emit("\n".join(f"{v} -> {mapping[v]}" for v in first.vertices) + "\n")
    return 0


def cmd_rigidity(args) -> int:
    graph = _read_graph(args.input, args.format)
    index, witness = rigidity_index(graph)
    _emit(f"rig = {index}\n")
    _emit("witness: " + (" ".join(str(v) for v in sorted(witness)) or "-") + "\n")
    return 0


def cmd_aut(args) -> int:
    graph = _read_graph(args.input, args.format)
    group = automorphisms(graph)
    _emit(f"order = {group.order}\n")
    for alpha in group:
        _emit(" ".join(str(alpha[v]) for v in graph.vertices) + "\n")
    return 0


def cmd_orbits(args) -> int:
    graph = _read_graph(args.input, args.format)
    for orb in orbits(graph):
        _emit("orbit: " + " ".join(str(v) for v in sorted(orb)) + "\n")
    return 0


def cmd_embed(args) -> int:
    if args.action == "fixing-set":
        graph = _read_graph(args.input, args.format)
        systems = [
            rs
            for rs in enumerate_rotation_systems(graph)
            if euler_genus(rs) == args.genus and is_polyhedral(rs)
        ]
        chosen = polyhedral_fixing_set(graph, systems)
        _emit(f"systems = {len(systems)}\n")
        _emit("fixing-set: " + " ".join(str(v) for v in sorted(chosen)) + "\n")
        return 0

    rs = rs_loads(Path(args.input).read_bytes())
    if args.action == "faces":
        walks = trace_faces(rs)
        for walk in walks:
            _emit("face: " + " ".join(str(v) for v in walk.vertices) + "\n")
        _emit(f"faces = {len(walks)}\n")
        _emit(f"genus = {euler_genus(rs)}\n")
        return 0
    if args.action == "genus":
        _emit(f"genus = {euler_genus(rs)}\n")
        return 0
    if args.action == "polyhedral":
        _emit(f"polyhedral = {'true' if is_polyhedral(rs) else 'false'}\n")
        return 0
    if args.action == "fixing-triple":
        report = fixing_triple(rs)
        kind = "degenerate" if report.degenerate else "triple"
        _emit(f"{kind}: " + " ".join(str(v) for v in sorted(report.vertices)) + "\n")
        if report.verified is not None:
            _emit(f"verified = {'true' if report.verified else 'false'}\n")
        for w in report.warnings:
            print(f"warning: {w}", file=sys.stderr)
        return 0
    raise GraphCanonError(f"unknown embed action {args.action!r}")


def cmd_gen(args) -> int:
    graph = gen_family(
        args.family, n=args.n, k=args.k, p=args.p, name=args.name, seed=args.seed
    )
    text = cg_dumps(graph)
    if args.out:
        Path(args.out).write_text(text)
    else:
        _emit(text)
    if args.rotation_out:
        if args.family != "platonic":
            raise GraphCanonError("--rotation-out applies to the platonic family only")
        Path(args.rotation_out).write_text(rs_dumps(platonic_rotation_system(args.name)))
    if args.manifest:
        if not args.out:
            raise GraphCanonError("--manifest needs --out to record the file path")
        params = {
            key: value
            for key, value in (("n", args.n), ("k", args.k), ("p", args.p), ("name", args.name))
            if value is not None
        }
        with open(args.manifest, "a", encoding="ascii") as fh:
            fh.write(manifest_line(args.family, params, args.seed, args.out) + "\n")
    return 0


def cmd_bench(args) -> int:
    _check_r(args.method, args.r)
    _emit(BENCH_COLUMNS + "\n")
    for trial in range(args.trials):
        seed = args.seed + trial
        graph = gen_family(args.family, n=args.n, k=args.k, p=args.p, seed=seed)
        stats = RunStats(args.workers)
        started = time.perf_counter()
        _canonize(graph, args, stats)
        stats.wall_ms = (time.perf_counter() - started) * 1000.0
        diagnostics = ";".join(str(d).replace(",", ";") for d in stats.diagnostics) or "-"
        report = RunReport(
            family=args.family,
            n=graph.n,
            seed=seed,
            method=args.method,
            invariant=args.invariant if args.method != "bf" else "bf",
            depth=stats.max_depth,
            invariant_calls=stats.invariant_calls,
            wall_ms=stats.wall_ms,
            workers=args.workers,
            diagnostics=diagnostics,
        )
        _emit(report.csv_row() + "\n")
    return 0


def _add_graph_input(parser, two: bool = False):
    if two:
        parser.add_argument("inputs", nargs=2, metavar="GRAPH")
    else:
        parser.add_argument("--input", required=True, help="path to the graph file")
    parser.add_argument("--format", choices=["cg", "graph6"], default="cg")


WORKERS_HELP = "accepted for compatibility; has no effect on output or speed"


def _add_method_flags(parser):
    parser.add_argument(
        "--method", choices=["separator", "rigidity", "bf"], default="separator"
    )
    parser.add_argument("--invariant", default="wl1", help="wl1 | wlk:<k> | bf")
    parser.add_argument("--r", type=int, default=1, help="sequence length bound")
    parser.add_argument("--check", action="store_true", help="enable oracle cross-checks")
    parser.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcanon",
        description="Canonical labeling toolkit for colored graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonical labeling and canonical form")
    _add_graph_input(p)
    _add_method_flags(p)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("iso", help="find and verify an isomorphism")
    _add_graph_input(p, two=True)
    p.add_argument("--invariant", default="wl1")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--check", action="store_true")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("rigidity", help="exact rigidity index and witness")
    _add_graph_input(p)
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("aut", help="full automorphism group")
    _add_graph_input(p)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("orbits", help="vertex orbit partition")
    _add_graph_input(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("embed", help="rotation-system operations")
    p.add_argument(
        "action", choices=["faces", "genus", "polyhedral", "fixing-triple", "fixing-set"]
    )
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["cg", "graph6"], default="cg",
                   help="graph format for fixing-set; other actions read rs files")
    p.add_argument("--genus", type=int, default=0, help="surface for fixing-set")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("gen", help="seeded family generator")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--name", help="platonic solid name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write cg here instead of stdout")
    p.add_argument("--manifest", help="append a corpus-manifest line (needs --out)")
    p.add_argument("--rotation-out", help="also write the planar rs file (platonic only)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="seeded corpus runs with a CSV report")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_method_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleCapacityError, BackendCapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphCanonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
