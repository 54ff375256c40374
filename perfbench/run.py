"""Seeded, self-checking benchmark of graphcanon canonization throughput.

    python3 perfbench/run.py --workload sep-wl1 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from its
`src/` directory and nowhere else. One run

1. sets the workload up several times (import graphcanon, generate the base
   graphs with `gen_family`, read the inputs back with `cg_loads`) and keeps
   the median as `setup_s`;
2. runs whole rounds of the workload's operations until `--seconds` have
   passed; an operation is one canonization followed by `cg_dumps` of the
   canonical form, or one `find_isomorphism` query;
3. with `--trace 1`, runs one more round with every layer wrapped in spans,
   writes the spans to `perfbench/out/`, and reports per-layer figures in
   place of the end-to-end ones;
4. checks every output against networkx and its own mapping check.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the git sha,
a digest of the program's sources, the Python version and `nproc`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 21


class SetupError(Exception):
    """The program cannot be found or imported from this checkout."""


def load_program():
    """Import graphcanon afresh from this checkout's src/ directory."""
    if not (SRC / "graphcanon" / "__init__.py").is_file():
        raise SetupError(f"no graphcanon sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "graphcanon" or m.startswith("graphcanon.")]:
        del sys.modules[name]
    package = importlib.import_module("graphcanon")
    if Path(package.__file__).resolve().parent != SRC / "graphcanon":
        raise SetupError(f"graphcanon was imported from {package.__file__}")
    return package


@dataclass
class Bench:
    gc: object  # the imported graphcanon package
    ops: list
    setup_s: float


def set_up(workload: corpus.Workload, seed: int, gc=None) -> Bench:
    """Build the corpus; `setup_s` counts only the time spent in graphcanon:
    the import (skipped when `gc` is given), gen_family and cg_loads."""
    clock = 0.0
    started = perf_counter()
    if gc is None:
        gc = load_program()
    clock += perf_counter() - started

    def generate(family, params, base_seed):
        nonlocal clock
        started = perf_counter()
        graph = gc.generators.gen_family(family, seed=base_seed, **params)
        clock += perf_counter() - started
        return corpus.plain_of(graph)

    ops = corpus.build_ops(workload, seed, generate)
    texts = [[corpus.cg_text(p) for p in op.plains] for op in ops]
    started = perf_counter()
    for op, docs in zip(ops, texts):
        op.graphs = tuple(gc.formats.cg_loads(doc) for doc in docs)
    clock += perf_counter() - started
    return Bench(gc, ops, clock)


def runner(gc, workload: corpus.Workload, workers: int):
    """A function running one operation; it returns (output, RunStats).

    Every graphcanon function is looked up at call time, so that the tracer's
    wrappers are the ones called when they are installed.
    """
    backend = gc.invariant.backend_from_selector(workload.invariant)

    def run(op):
        stats = gc.parallel.RunStats(workers)
        try:
            if op.kind == "iso":
                mapping = gc.separator.find_isomorphism(
                    op.graphs[0], op.graphs[1], op.r, backend, workers=workers, stats=stats
                )
                return (None if mapping is None else mapping.mapping), stats
            graph = op.graphs[0]
            canon = (
                gc.separator.canon_separator
                if workload.method == "separator"
                else gc.rigidity.canon_rigidity
            )
            labeling = canon(graph, op.r, backend, workers=workers, stats=stats)
            form = gc.formats.cg_dumps(gc.graph.apply_permutation(graph, labeling))
            return (form, labeling.mapping), stats
        except Exception as exc:  # an operation that raises counts as failed
            return f"{type(exc).__name__}: {exc}", stats

    return run


@dataclass
class Measurement:
    ops: list
    rounds: int = 0
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    outputs: list | None = None  # of the first round
    repeats_differ: list = field(default_factory=list)  # per op, later rounds
    invariant_calls: int = 0
    wl_rounds: int = 0

    @property
    def attempted(self) -> int:
        return self.rounds * len(self.ops)


def measure(run_op, ops, seconds: float, tracer=None, reference=None) -> Measurement:
    """Run whole rounds of `ops` until `seconds` have passed (at least one).

    Outputs of later rounds, and of every round when `reference` (the first
    round of an earlier measurement) is given, are compared with the first.
    """
    m = Measurement(ops, repeats_differ=[0] * len(ops), outputs=reference)
    started = perf_counter()
    while True:
        outputs = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(m.attempted + i + 1)
            t0 = perf_counter()
            out, stats = run_op(op)
            m.latencies.append(perf_counter() - t0)
            outputs.append(out)
            m.invariant_calls += stats.invariant_calls
            m.wl_rounds += sum(stats.wl_rounds)
        m.rounds += 1
        if m.outputs is None:
            m.outputs = outputs
        else:
            for i, out in enumerate(outputs):
                m.repeats_differ[i] += out != m.outputs[i]
        m.wall_s = perf_counter() - started
        if m.wall_s >= seconds:
            return m


def tally(measurements, ok) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over measurements that share one first
    round, given which first-round outputs are correct. `correct` is false when
    an operation other than the known-fault pair failed."""
    attempted = failed = unexpected = 0
    for m in measurements:
        attempted += m.attempted
        for i, op in enumerate(m.ops):
            bad = m.rounds if not ok[i] else m.repeats_differ[i]
            failed += bad
            unexpected += 0 if op.known_fault else bad
    return attempted, failed, unexpected == 0


def end_to_end(m: Measurement, setup_s: float) -> dict:
    return {
        "ops_per_s": (m.attempted / m.wall_s, "op/s"),
        "op_p50_ms": (statistics.median(m.latencies) * 1000.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(tracer: spans.Tracer, untraced: Measurement, traced: Measurement) -> dict:
    """Per-layer figures: counts and seconds per operation of the traced round,
    except gen_family and cg_loads, which are per corpus set-up."""
    ops = traced.attempted
    by_op = tracer.summarize(setup=False)
    by_setup = tracer.summarize(setup=True)

    def get(table, name, key):
        return table.get(name, {}).get(key, 0)

    def count(name):
        return (get(by_op, name, "count") / ops, "count")

    def covered(name):
        return (get(by_op, name, "covered_s") / ops, "s")

    def own(name):
        return (get(by_op, name, "self_s") / ops, "s")

    untraced_rate = untraced.attempted / untraced.wall_s
    traced_rate = traced.attempted / traced.wall_s
    return {
        "graph.graphs_built": count("graph.ColoredGraph"),
        "graph.with_extra_colors_s": covered("graph.with_extra_colors"),
        "graph.induced_subgraph_s": covered("graph.induced_subgraph"),
        "separator.scopes": count("separator.mark_separating_sequences"),
        "separator.is_separator_calls": count("separator.is_separator"),
        "separator.is_separator_self_s": own("separator.is_separator"),
        "separator.decompose_flaps_s": covered("separator.decompose_flaps"),
        "separator.canon_separator_s": covered("separator.canon_separator"),
        "separator.find_isomorphism_s": covered("separator.find_isomorphism"),
        "invariant.calls": (traced.invariant_calls / ops, "count"),
        "invariant.wl1_calls": count("invariant.wl1_refine"),
        "invariant.wl1_self_s": own("invariant.wl1_refine"),
        "invariant.wl1_rounds": (traced.wl_rounds / ops, "count"),
        "invariant.bf_bounded_calls": count("invariant.code_bounded"),
        "invariant.bf_bounded_hits": (tracer.code_hits / ops, "count"),
        "invariant.bf_bounded_hit_share": (
            tracer.code_hits / max(1, get(by_op, "invariant.code_bounded", "count")), "ratio"
        ),
        "mincode.minimum_encoding_calls": count("mincode.minimum_encoding"),
        "mincode.minimum_encoding_self_s": own("mincode.minimum_encoding"),
        "rigidity.canon_rigidity_s": covered("rigidity.canon_rigidity"),
        "rigidity.individualize_calls": count("rigidity.individualize"),
        "rigidity.individualize_plus_calls": count("rigidity.individualize_plus"),
        "parallel.parallel_map_calls": count("parallel.parallel_map"),
        "parallel.parallel_map_s": covered("parallel.parallel_map"),
        "formats.cg_dumps_s": covered("formats.cg_dumps"),
        "formats.cg_loads_s": (get(by_setup, "formats.cg_loads", "covered_s"), "s"),
        "generators.gen_family_s": (get(by_setup, "generators.gen_family", "covered_s"), "s"),
        "trace.untraced_ops_per_s": (untraced_rate, "op/s"),
        "trace.traced_ops_per_s": (traced_rate, "op/s"),
        "trace.overhead": (untraced_rate / traced_rate - 1.0, "ratio"),
    }


def environment() -> dict:
    """What a figure depends on besides the workload: program version and host."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "graphcanon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workers", type=int, help="override the workload's worker count (for comparisons)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = corpus.WORKLOADS[args.workload]
    workers = workload.workers if args.workers is None else args.workers
    try:
        env = environment()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            bench = set_up(workload, args.seed)
            setup_times.append(bench.setup_s)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(setup_times)
    run_op = runner(bench.gc, workload, workers)
    untraced = measure(run_op, bench.ops, args.seconds)
    measurements = [untraced]
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(bench.gc)
        try:
            again = set_up(workload, args.seed, gc=bench.gc)
            traced = measure(run_op, again.ops, 0, tracer, reference=untraced.outputs)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        measurements.append(traced)
        metrics = per_layer(tracer, untraced, traced)
    else:
        metrics = end_to_end(untraced, setup_s)

    import verify  # networkx is imported after peak memory has been read

    ok = verify.check(bench.ops, untraced.outputs)
    attempted, failed, correct = tally(measurements, ok)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "workers": workers, **env}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
