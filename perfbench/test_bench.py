"""Tests of the benchmark's own checker, on corpora small enough to run in seconds.

    python3 -m pytest -q perfbench
"""

import corpus
import run
import verify

TINY_SEP = corpus.Workload(
    "tiny-sep", "separator", "wl1", 1, (corpus.Group("tree", {"n": 12}, 1, 2, 2),)
)
TINY_ISO = corpus.Workload(
    "tiny-iso", "iso", "bf", 1,
    (corpus.Group("partial_k_tree", {"n": 7, "k": 2}, 3, 2, 1),),
    known_fault=True,
)


def outcome(workload, replace=None):
    """(attempted, failed, correct) of one round on seed 3; `replace(bench)`
    may swap a graphcanon function for a faulty one first."""
    bench = run.set_up(workload, 3)
    if replace is not None:
        replace(bench)
    m = run.measure(run.runner(bench.gc, workload, 1), bench.ops, 0)
    return run.tally([m], verify.check(bench.ops, m.outputs))


def test_clean_canonization_round_has_no_failure():
    assert outcome(TINY_SEP) == (4, 0, True)


def test_identity_labeling_on_a_relabeled_copy_counts_as_failed(monkeypatch):
    def replace(bench):
        op = bench.ops[1]
        assert op.base == 0 and op.plains[0] != bench.ops[0].plains[0]
        copy = op.graphs[0]
        real = bench.gc.separator.canon_separator

        def canon_separator(graph, *args, **kwargs):
            if graph is copy:
                return bench.gc.graph.Labeling.identity(graph.n)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(bench.gc.separator, "canon_separator", canon_separator)

    assert outcome(TINY_SEP, replace) == (4, 1, False)


def test_wrong_mapping_and_wrong_verdict_count_as_failed(monkeypatch):
    def replace(bench):
        positive = bench.ops[0].graphs

        def find_isomorphism(graph, other, *args, **kwargs):
            if (graph, other) == positive:
                return None
            return bench.gc.graph.Labeling.identity(graph.n)

        monkeypatch.setattr(bench.gc.separator, "find_isomorphism", find_isomorphism)
        assert verify.isomorphic(*bench.ops[0].plains)
        assert not verify.isomorphic(*bench.ops[1].plains)

    attempted, failed, correct = outcome(TINY_ISO, replace)
    assert attempted == 5 and failed >= 2 and not correct


def test_only_the_known_fault_failing_keeps_the_run_correct(monkeypatch):
    def replace(bench):
        fault = bench.ops[-1]
        assert fault.known_fault and verify.isomorphic(*fault.plains)
        real = bench.gc.separator.find_isomorphism

        def find_isomorphism(graph, other, *args, **kwargs):
            if (graph, other) == fault.graphs:
                return None
            return real(graph, other, *args, **kwargs)

        monkeypatch.setattr(bench.gc.separator, "find_isomorphism", find_isomorphism)

    assert outcome(TINY_ISO, replace) == (5, 1, True)
