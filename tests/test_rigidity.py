import itertools

import pytest

from graphcanon import (
    ColoredGraph,
    ContractViolationError,
    Labeling,
    OracleCapacityError,
    apply_permutation,
    are_isomorphic_bf,
    canon_rigidity,
    encode,
    gen_family,
    individualize,
    individualize_plus,
    is_fixing_bf,
    is_fixing_by_invariant,
    rigidity_consistency_check,
    wl1_refine,
)
from graphcanon.invariant import BruteForceBackend, Wl1Backend, WlkBackend
from graphcanon.mincode import minimum_encoding
from graphcanon.parallel import FALLBACK, Diagnostic, RunStats

from .conftest import count_scratch_refinements

BF = BruteForceBackend()


class TestIndividualize:
    def test_colors_assigned_in_sequence_order(self, k3):
        g = individualize(k3, (1,))
        assert g.color_set(1) == frozenset({1})
        assert g.color_set(2) == frozenset()
        # the colored vertex forms a singleton refinement class
        coloring, _ = wl1_refine(g)
        classes = {}
        for v, c in coloring.items():
            classes.setdefault(c, set()).add(v)
        assert {1} in classes.values()

    def test_plus_variants_isomorphic_when_symmetric(self, k3):
        a = individualize_plus(k3, (1,), 2)
        b = individualize_plus(k3, (1,), 3)
        assert are_isomorphic_bf(a, b) is not None

    def test_c4_adjacent_pair(self, c4):
        g = individualize(c4, (1, 2))
        assert g.color_set(1) == frozenset({1})
        assert g.color_set(2) == frozenset({2})

    def test_rejects_repeats(self, k3):
        with pytest.raises(ContractViolationError):
            individualize(k3, (1, 1))

    def test_plus_may_stack_on_sequence_vertex(self, k3):
        g = individualize_plus(k3, (1,), 1)
        assert g.color_set(1) == frozenset({1, 2})

    def test_colors_start_above_largest_input_color(self):
        g = ColoredGraph(3, [(1, 2)], {1: {0}, 2: {0, 4}})
        h = individualize_plus(g, (3, 1), 2)
        assert [h.color_set(v) for v in g.vertices] == [{0, 6}, {0, 4, 7}, {5}]
        # the input graph's colors and adjacency are shared, not rebuilt
        assert h.edges is g.edges and h.neighbors(1) is g.neighbors(1)


class TestFixingTests:
    def test_c4_adjacent_pair_fixing(self, c4):
        assert is_fixing_by_invariant(c4, (1, 2), BF)
        assert is_fixing_bf(c4, {1, 2})

    def test_c4_antipodal_pair_not_fixing(self, c4):
        # the reflection through the 1-3 axis swaps 2 and 4
        assert not is_fixing_by_invariant(c4, (1, 3), BF)
        assert not is_fixing_bf(c4, {1, 3})

    def test_k3_singleton_not_fixing(self, k3):
        assert not is_fixing_by_invariant(k3, (1,), BF)
        assert not is_fixing_bf(k3, {1})

    def test_k4_sets(self, k4):
        assert is_fixing_bf(k4, {1, 2, 3})
        assert not is_fixing_bf(k4, {1, 2})

    def test_p3_endpoint(self, p3):
        assert is_fixing_bf(p3, {1})

    def test_rigid_graph_empty_set(self):
        rigid = ColoredGraph(6, [(1, 3), (1, 4), (1, 6), (2, 3), (2, 5), (3, 4)])
        from graphcanon import rigidity_index

        assert rigidity_index(rigid)[0] == 0
        assert is_fixing_bf(rigid, set())


class TestCanonRigidity:
    def test_single_vertex_r1(self):
        g = ColoredGraph(1)
        assert canon_rigidity(g, 1, BF) == Labeling([1])

    def test_c4_form_stable_under_all_relabelings(self, c4):
        form = encode(apply_permutation(c4, canon_rigidity(c4, 2, BF)))
        for perm in itertools.permutations(range(1, 5)):
            h = apply_permutation(c4, Labeling(perm))
            assert encode(apply_permutation(h, canon_rigidity(h, 2, BF))) == form

    def test_k3_identity_fallback(self, k3):
        stats = RunStats()
        assert canon_rigidity(k3, 1, BF, stats=stats) == Labeling.identity(3)
        assert stats.had_fallback

    def test_no_fixing_sequence_form_stable_under_relabeling(self, c4):
        # a single vertex of C4 is still fixed by a reflection, so r=1 has no
        # fixing sequence and the minimum-encoding labeling is used
        stats = RunStats()
        form = encode(apply_permutation(c4, canon_rigidity(c4, 1, BF, stats=stats)))
        assert stats.had_fallback
        for perm in itertools.permutations(range(1, 5)):
            h = apply_permutation(c4, Labeling(perm))
            assert encode(apply_permutation(h, canon_rigidity(h, 1, BF))) == form

    def test_no_fixing_sequence_above_oracle_cap_refuses(self):
        k11 = ColoredGraph(11, list(itertools.combinations(range(1, 12), 2)))
        with pytest.raises(OracleCapacityError):
            canon_rigidity(k11, 1, Wl1Backend())

    def test_bijection_and_sequence_block(self):
        g = gen_family("tree", n=7, seed=9)
        lab = canon_rigidity(g, 2, BF)
        assert sorted(lab.mapping) == list(range(1, 8))

    def test_workers_do_not_change_result(self, c4):
        assert canon_rigidity(c4, 2, BF, workers=1) == canon_rigidity(c4, 2, BF, workers=4)

    def test_label_invariance_random_corpus(self):
        from graphcanon import Lcg64, rigidity_index

        done = 0
        for seed in range(40):
            g = gen_family("random_gnp", n=6, p=0.45, seed=seed)
            if rigidity_index(g)[0] > 2:
                continue
            base = encode(apply_permutation(g, canon_rigidity(g, 2, BF)))
            rng = Lcg64(seed + 1)
            for _ in range(3):
                perm = list(range(1, 7))
                rng.shuffle(perm)
                h = apply_permutation(g, Labeling(perm))
                assert encode(apply_permutation(h, canon_rigidity(h, 2, BF))) == base
            done += 1
        assert done >= 10

    def test_precolored_input_does_not_alias_individualization_colors(self):
        # input color 1 is also the individualization color at r=1, so
        # unless input colors are shifted, vertex 1 looks individualized
        g = ColoredGraph(3, [(1, 2)], {1: {1}, 3: {1}})
        for backend in (BF, Wl1Backend()):
            form = encode(apply_permutation(g, canon_rigidity(g, 1, backend)))
            for perm in itertools.permutations(range(1, 4)):
                h = apply_permutation(g, Labeling(perm))
                assert encode(apply_permutation(h, canon_rigidity(h, 1, backend))) == form

    def test_precolored_zero_does_not_alias_individualization_colors(self):
        # color 0 is valid input; a shift by r+1 would turn it into the
        # probe color r+1, so no P3 sequence would be found fixing
        g = ColoredGraph(3, [(1, 2), (2, 3)], {v: {0} for v in range(1, 4)})
        for backend in (BF, Wl1Backend()):
            forms = set()
            for perm in itertools.permutations(range(1, 4)):
                h = apply_permutation(g, Labeling(perm))
                stats = RunStats()
                forms.add(encode(apply_permutation(h, canon_rigidity(h, 1, backend, stats=stats))))
                assert stats.diagnostics == []
            assert len(forms) == 1

    def test_negative_r_refused_on_precolored_graph(self):
        g = ColoredGraph(3, [(1, 2)], {1: {0}})
        with pytest.raises(ValueError):
            canon_rigidity(g, -3, Wl1Backend())

    def test_negative_r_refused_before_any_work(self, monkeypatch, k3):
        scratch = count_scratch_refinements(monkeypatch)
        with pytest.raises(ValueError, match="r >= 0"):
            canon_rigidity(k3, -1, BF)
        assert scratch == []

    def test_call_budget_on_refinement_discrete_graph(self, monkeypatch):
        # refinement makes the graph discrete, so every sequence has its own
        # key and none is coded; the first one probed is fixing, for n codes,
        # which restart from the one refinement behind the keys
        g = gen_family("random_gnp", n=18, p=0.2, seed=1)
        coloring, _ = wl1_refine(g)
        assert len(set(coloring.values())) == g.n
        scratch = count_scratch_refinements(monkeypatch)
        stats = RunStats()
        canon_rigidity(g, 2, Wl1Backend(), stats=stats)
        assert stats.invariant_calls == 18
        assert scratch == [g]

    def test_fallback_diagnostic_record(self, k3):
        stats = RunStats()
        canon_rigidity(k3, 1, Wl1Backend(), stats=stats)
        assert stats.diagnostics == [
            Diagnostic(FALLBACK, 1, 3, "no fixing 1-sequence; minimum-encoding fallback")
        ]
        assert stats.had_fallback


def _eager_rigidity(graph, r, backend):
    """The eager rule on an uncolored graph: probe every r-sequence, then
    choose the fixing one of minimal (key, code, index), where the key is the
    tuple of the sequence's stable wl1 classes. Codes are of the graph with
    colors 1..r on the sequence (and r+1 on one more vertex in a probe), as
    the backend codes recolorings of one scope. Returns the labeling and the
    diagnostics."""
    classes, _ = wl1_refine(graph)
    probes = []
    for s in itertools.permutations(graph.vertices, r):
        marks = {v: [i + 1] for i, v in enumerate(s)}
        plus = [{**marks, v: marks.get(v, []) + [r + 1]} for v in graph.vertices]
        codes = dict(zip(graph.vertices, backend.codes(graph, plus, classes)))
        probes.append((s, marks, codes, len(set(codes.values())) == graph.n))
    fixing = [
        (tuple(classes[v] for v in s), backend.codes(graph, [marks], classes)[0], i)
        for i, (s, marks, _, ok) in enumerate(probes)
        if ok
    ]
    if not fixing:
        message = f"no fixing {r}-sequence; minimum-encoding fallback"
        return minimum_encoding(graph)[1], [Diagnostic(FALLBACK, 1, graph.n, message)]
    chosen, _, codes, _ = probes[min(fixing)[2]]
    rest = sorted((v for v in graph.vertices if v not in chosen), key=codes.__getitem__)
    labels = {v: i + 1 for i, v in enumerate(chosen + tuple(rest))}
    return Labeling(labels[v] for v in graph.vertices), []


class TestLazyEqualsEager:
    def _corpus(self):
        graphs = [("K3", gen_family("complete", n=3)), ("C4", gen_family("cycle", n=4))]
        for seed in range(10):
            n = 5 + seed % 4
            graphs.append((f"gnp{seed}", gen_family("random_gnp", n=n, p=0.35, seed=seed)))
            graphs.append((f"tree{seed}", gen_family("tree", n=n, seed=seed)))
            graphs.append((f"p2t{seed}", gen_family("partial_k_tree", n=n, k=2, seed=seed)))
        return graphs

    @pytest.mark.parametrize(
        "backend, max_n",
        [(Wl1Backend(), 8), (WlkBackend(2), 6), (BF, 7)],
        ids=["wl1", "wlk:2", "bf"],
    )
    def test_lazy_choice_equals_eager_rule(self, backend, max_n):
        for name, g in self._corpus():
            if g.n > max_n:
                continue
            for r in (1, 2):
                stats = RunStats()
                got = canon_rigidity(g, r, backend, stats=stats)
                assert (got, stats.diagnostics) == _eager_rigidity(g, r, backend), (name, r)


class TestConsistencyCheck:
    def test_precolored_with_individualization_color_agrees(self):
        # two isolated vertices colored 1: individualizing either one with
        # color 1 would change nothing, so neither would look fixing
        g = ColoredGraph(2, [], {1: {1}, 2: {1}})
        assert rigidity_consistency_check(g, 1).ok
        assert is_fixing_by_invariant(g, (1,), BF)

    def test_c4_all_pairs_agree(self, c4):
        report = rigidity_consistency_check(c4, 2)
        assert report.checked == 12
        assert report.ok

    def test_k3_r1_all_false_agree(self, k3):
        report = rigidity_consistency_check(k3, 1)
        assert report.checked == 3
        assert report.ok

    def test_k4_r3_all_true_agree(self, k4):
        report = rigidity_consistency_check(k4, 3)
        assert report.checked == 24
        assert report.ok

    def test_equivalence_on_sample(self):
        for seed in (0, 1, 2):
            g = gen_family("random_gnp", n=6, p=0.5, seed=seed)
            for r in (1, 2):
                assert rigidity_consistency_check(g, r).ok

    def test_equivalence_up_to_r3_small(self):
        for seed in (3, 4):
            g = gen_family("random_gnp", n=5, p=0.4, seed=seed)
            assert rigidity_consistency_check(g, 3).ok

    def test_equivalence_r3_sample_n7(self):
        for seed in (5, 6):
            g = gen_family("random_gnp", n=7, p=0.4, seed=seed)
            assert rigidity_consistency_check(g, 3).ok
