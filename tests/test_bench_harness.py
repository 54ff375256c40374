"""The benchmark harness in perfbench/ runs one round of every workload
against this package, untraced and traced, and reads every figure it reports:
a change that breaks a name the harness looks up (RunStats, wl_rounds, a
traced function, a runner lookup) fails here."""

import importlib
import math
from pathlib import Path

import pytest

import graphcanon

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# invariant calls of one seed-1 round: a change in the work per operation
# shows here, not only in the benchmark
INVARIANT_CALLS = {"sep-wl1": 0, "rig-wl1": 36, "iso-bf": 24}


@pytest.mark.parametrize("name", ["sep-wl1", "rig-wl1", "iso-bf"])
def test_one_round_of_each_workload(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    corpus, run, spans, verify = map(
        importlib.import_module, ("corpus", "run", "spans", "verify")
    )
    workload = corpus.WORKLOADS[name]
    bench = run.set_up(workload, 1, gc=graphcanon)
    run_op = run.runner(graphcanon, workload, workload.workers)
    untraced = run.measure(run_op, bench.ops, 0)
    tracer = spans.Tracer()
    tracer.install(graphcanon)
    try:
        again = run.set_up(workload, 1, gc=graphcanon)
        traced = run.measure(run_op, again.ops, 0, tracer, reference=untraced.outputs)
    finally:
        tracer.uninstall()
    figures = {
        **run.end_to_end(untraced, bench.setup_s),
        **run.per_layer(tracer, untraced, traced),
    }
    assert all(math.isfinite(value) for value, _ in figures.values())
    assert untraced.rounds == traced.rounds == 1
    assert untraced.invariant_calls == traced.invariant_calls == INVARIANT_CALLS[name]
    ok = verify.check(bench.ops, untraced.outputs)
    assert run.tally([untraced, traced], ok) == (2 * len(bench.ops), 0, True)
