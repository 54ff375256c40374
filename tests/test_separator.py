import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcanon import (
    ColoredGraph,
    ContractViolationError,
    Labeling,
    OracleCapacityError,
    apply_permutation,
    canon_separator,
    decompose_flaps,
    encode,
    find_isomorphism,
    gen_family,
    is_separator,
    mark_separating_sequences,
    wl1_refine,
)
from graphcanon import invariant, separator
from graphcanon.invariant import BruteForceBackend, Wl1Backend
from graphcanon.parallel import FALLBACK, INVARIANT_FAILURE, Diagnostic, RunStats
from graphcanon.separator import SeparatorRun

from .conftest import (
    complete_graph,
    count_scratch_refinements,
    every_labeled_graph,
    path_graph,
)
from .test_graph import (
    components_by_induction,
    permutations_of,
    seeded_small_graphs,
    small_vertex_sets,
)

BF = BruteForceBackend()
WL1 = Wl1Backend()


def relabelings(n, count, seed):
    from graphcanon import Lcg64

    rng = Lcg64(seed)
    out = []
    for _ in range(count):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        out.append(Labeling(perm))
    return out


def flaps_by_two_step_induction(graph, sequence, depth, run):
    """Reference flaps: induce the rest of the scope, split it into components,
    induce each component again from the scope, and add the pattern colors."""
    base = (depth - 1) * run.block_width + run.r + 1
    rest = [v for v in graph.vertices if v not in sequence]
    sub, sub_origin = graph.induced_subgraph(rest)
    flaps = []
    for comp in sorted(sub.components(), key=min):
        fgraph, origin = graph.induced_subgraph(sorted(sub_origin[v] for v in comp))
        colors = {}
        for local, orig in origin.items():
            offset = sum(1 << i for i, s in enumerate(sequence) if graph.has_edge(orig, s))
            colors[local] = fgraph.color_set(local) | {base + offset}
        flaps.append((ColoredGraph(fgraph.n, fgraph.edges, colors), origin))
    return flaps


def count_separator_work(monkeypatch):
    """Record every ColoredGraph.components and separator.is_separator call."""
    walks, tests = [], []
    components, is_sep = ColoredGraph.components, separator.is_separator

    def counting_components(self, *args, **kwargs):
        walks.append(self.n)
        return components(self, *args, **kwargs)

    def counting_is_separator(*args, **kwargs):
        tests.append(1)
        return is_sep(*args, **kwargs)

    monkeypatch.setattr(ColoredGraph, "components", counting_components)
    monkeypatch.setattr(separator, "is_separator", counting_is_separator)
    return walks, tests


def separating_sequences_by_definition(g, r):
    return sorted(
        perm
        for combo in itertools.combinations(g.vertices, r)
        if is_separator(g, combo)
        for perm in itertools.permutations(combo)
    )


class TestIsSeparator:
    def test_matches_components_of_the_induced_rest(self):
        for g in seeded_small_graphs():
            for xs in small_vertex_sets(g):
                expected = all(
                    2 * len(comp) <= g.n for comp in components_by_induction(g, xs)
                )
                assert is_separator(g, xs) == expected

    def test_p3_midpoint(self, p3):
        assert is_separator(p3, {2})

    def test_p3_endpoint_is_not(self, p3):
        assert not is_separator(p3, {1})

    def test_k4_empty_set(self, k4):
        assert not is_separator(k4, set())

    def test_p7_center_vs_offcenter(self):
        p7 = path_graph(7)
        assert is_separator(p7, {4})
        assert not is_separator(p7, {2})

    def test_rejects_foreign_vertices(self, p3):
        with pytest.raises(ContractViolationError):
            is_separator(p3, {9})

    def test_empty_set_on_balanced_disconnected(self, two_triangles):
        # both components have exactly n/2 vertices
        assert is_separator(two_triangles, set())


class TestMarkSeparatingSequences:
    def test_p3_r1(self, p3):
        assert mark_separating_sequences(p3, 1) == [(2,)]

    def test_k5_r1_empty(self):
        assert mark_separating_sequences(complete_graph(5), 1) == []

    def test_p3_r2_all_pairs(self, p3):
        seqs = mark_separating_sequences(p3, 2)
        expected = sorted(
            itertools.chain.from_iterable(
                itertools.permutations(c) for c in [(1, 2), (1, 3), (2, 3)]
            )
        )
        assert seqs == expected

    def test_lexicographic_order(self):
        p7 = path_graph(7)
        seqs = mark_separating_sequences(p7, 2)
        assert seqs == sorted(seqs)
        assert all(len(set(s)) == 2 for s in seqs)

    def test_r_zero_refused(self, two_triangles):
        # the empty set separates two triangles, yet r=0 is no sequence length
        with pytest.raises(ContractViolationError):
            mark_separating_sequences(two_triangles, 0)

    def test_negative_r_refused(self, p3):
        with pytest.raises(ContractViolationError):
            mark_separating_sequences(p3, -1)


class TestDecomposeFlaps:
    def test_p3_flap_pattern_colors(self, p3):
        run = SeparatorRun(1, 3, BF)
        flaps = decompose_flaps(p3, (2,), 1, run)
        assert len(flaps) == 2
        for flap in flaps:
            assert flap.graph.n == 1
            assert flap.graph.color_set(1) == frozenset({3})
        assert flaps[0].origin == {1: 1}
        assert flaps[1].origin == {1: 3}

    def test_pattern_color_range_r2(self):
        # r=2 gives block width 6: vertex adjacent to neither separator vertex
        # gets color 3, adjacent to both gets 6
        g = ColoredGraph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        run = SeparatorRun(2, 6, BF)
        (flap,) = decompose_flaps(g, (1, 2), 1, run)
        assert flap.origin == {1: 3, 2: 4}
        assert flap.graph.color_set(1) == frozenset({6})  # adjacent to both
        assert flap.graph.color_set(2) == frozenset({3})  # adjacent to neither

    def test_star_center_gives_four_flaps(self):
        star = gen_family("star", n=5)
        run = SeparatorRun(1, 3, BF)
        flaps = decompose_flaps(star, (1,), 1, run)
        assert len(flaps) == 4
        assert all(flap.graph.n == 1 for flap in flaps)

    def test_rejects_non_separator(self, p3):
        run = SeparatorRun(1, 3, BF)
        with pytest.raises(ContractViolationError):
            decompose_flaps(p3, (1,), 1, run)

    def test_rejects_repeated_vertices(self, p3):
        run = SeparatorRun(2, 6, BF)
        with pytest.raises(ContractViolationError):
            decompose_flaps(p3, (2, 2), 1, run)

    def test_rejects_foreign_vertices(self, p3):
        run = SeparatorRun(1, 3, BF)
        with pytest.raises(ContractViolationError):
            decompose_flaps(p3, (9,), 1, run)

    def test_one_component_walk(self, monkeypatch):
        walks, tests = count_separator_work(monkeypatch)
        star = gen_family("star", n=5)
        decompose_flaps(star, (1,), 1, SeparatorRun(1, 3, BF))
        assert (len(walks), len(tests)) == (1, 0)

    def test_pattern_colors_disjoint_across_depths(self):
        # depth-d pattern colors live in ((d-1)W + r, dW], so depths never collide
        g = gen_family("k_tree", n=12, k=2, seed=8)
        run = SeparatorRun(3, 11, BF)
        seq = mark_separating_sequences(g, 3)[0]
        inherited = {v: frozenset() for v in g.vertices}
        for depth in (1, 2, 3):
            low, high = (depth - 1) * 11 + 3, depth * 11
            flaps = decompose_flaps(g, seq, depth, run)
            for flap in flaps:
                for v in flap.graph.vertices:
                    fresh = flap.graph.color_set(v) - inherited[flap.origin[v]]
                    assert len(fresh) == 1
                    (pattern,) = fresh
                    assert low < pattern <= high

    def test_disconnected_input_with_small_components(self, two_triangles):
        # every component has at most n/2 vertices, so every sequence separates
        assert len(mark_separating_sequences(two_triangles, 1)) == 6
        form = encode(
            apply_permutation(two_triangles, canon_separator(two_triangles, 1, BF))
        )
        for lab in relabelings(6, 4, seed=23):
            h = apply_permutation(two_triangles, lab)
            assert encode(apply_permutation(h, canon_separator(h, 1, BF))) == form

    def test_flaps_match_two_step_induction(self):
        for g in seeded_small_graphs():
            for xs in small_vertex_sets(g):
                if not xs or not is_separator(g, xs):
                    continue
                r = len(xs)
                run = SeparatorRun(r, 2**r + r, BF)
                for seq in itertools.permutations(xs):
                    for depth in (1, 2):
                        flaps = decompose_flaps(g, seq, depth, run)
                        expected = flaps_by_two_step_induction(g, seq, depth, run)
                        assert [(f.graph, f.origin) for f in flaps] == expected

    def test_one_graph_built_per_flap_and_none_to_test_separators(self, monkeypatch):
        built = []
        init = ColoredGraph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        g = gen_family("partial_k_tree", n=9, k=2, seed=4)
        run = SeparatorRun(2, 6, BF)
        monkeypatch.setattr(ColoredGraph, "__init__", counting_init)
        sequences = mark_separating_sequences(g, 2)
        assert sequences and not built
        flaps = decompose_flaps(g, sequences[0], 1, run)
        assert len(built) == len(flaps)

    def test_each_flap_colored_once(self, monkeypatch):
        # one recoloring of the scope, then one induced subgraph per flap
        calls = []
        set_colors = ColoredGraph._set_colors

        def counting(self, colors):
            calls.append(1)
            set_colors(self, colors)

        g = gen_family("partial_k_tree", n=9, k=2, seed=4)
        run = SeparatorRun(2, 6, BF)
        seq = next(s for s in mark_separating_sequences(g, 2) if len(g.components(s)) >= 2)
        monkeypatch.setattr(ColoredGraph, "_set_colors", counting)
        flaps = decompose_flaps(g, seq, 1, run)
        assert len(calls) <= len(flaps) + 1

    def test_flap_partition_property(self):
        g = gen_family("partial_k_tree", n=9, k=2, seed=4)
        run = SeparatorRun(3, 11, BF)
        for seq in mark_separating_sequences(g, 3)[:20]:
            flaps = decompose_flaps(g, seq, 1, run)
            covered = set(seq)
            for flap in flaps:
                originals = set(flap.origin.values())
                assert not originals & covered
                covered |= originals
            assert covered == set(g.vertices)


class TestCanonSeparator:
    def test_single_vertex(self):
        assert canon_separator(ColoredGraph(1), 1, BF) == Labeling([1])

    def test_p3_midpoint_ranked_first(self, p3):
        lab = canon_separator(p3, 1, BF)
        assert lab[2] == 1
        assert {lab[1], lab[3]} == {2, 3}

    def test_p3_form_stable_under_relabeling(self, p3):
        form = encode(apply_permutation(p3, canon_separator(p3, 1, BF)))
        for perm in itertools.permutations([1, 2, 3]):
            h = apply_permutation(p3, Labeling(perm))
            assert encode(apply_permutation(h, canon_separator(h, 1, BF))) == form

    def test_no_separator_fallback_is_identity(self):
        k5 = complete_graph(5)
        stats = RunStats()
        assert canon_separator(k5, 1, BF, stats=stats) == Labeling.identity(5)
        assert stats.had_fallback
        message = "no separating 1-sequence at depth 1; minimum-encoding fallback"
        assert stats.diagnostics == [Diagnostic(FALLBACK, 1, 5, message)]

    def test_had_fallback_reads_the_kind_not_the_text(self):
        stats = RunStats()
        stats.diagnose(INVARIANT_FAILURE, 1, 4, "invariant failure: not a fallback")
        assert not stats.had_fallback
        assert str(stats.diagnostics[0]) == "invariant failure: not a fallback"

    def test_symmetric_flap_ties_are_irrelevant(self):
        # four interchangeable leaf flaps; any relabeling permutes them
        star = gen_family("star", n=5)
        form = encode(apply_permutation(star, canon_separator(star, 1, BF)))
        for lab in relabelings(5, 6, seed=17):
            h = apply_permutation(star, lab)
            assert encode(apply_permutation(h, canon_separator(h, 1, BF))) == form

    def test_agreement_on_seeded_partial_2_trees(self):
        # 50 corpus graphs, 5 relabelings each; brute-force invariant
        for i in range(50):
            g = gen_family("partial_k_tree", n=4 + i % 7, k=2, seed=900 + i)
            base = encode(apply_permutation(g, canon_separator(g, 3, BF)))
            for lab in relabelings(g.n, 5, seed=i):
                h = apply_permutation(g, lab)
                assert encode(apply_permutation(h, canon_separator(h, 3, BF))) == base

    def test_depth_and_size_halving(self):
        for n, seed in [(8, 1), (12, 2), (16, 3)]:
            g = gen_family("k_tree", n=n, k=2, seed=seed)
            stats = RunStats()
            canon_separator(g, 3, WL1, stats=stats)
            assert not stats.had_fallback
            bound = 1
            while (1 << bound) < n:
                bound += 1
            assert stats.max_depth <= bound + 1

    def test_output_always_bijection(self):
        for seed in range(8):
            g = gen_family("random_gnp", n=7, p=0.5, seed=seed)
            lab = canon_separator(g, 2, WL1)
            assert sorted(lab.mapping) == list(range(1, 8))

    def test_cross_check_flags_wl1_collision(self):
        # K3,3 and the triangular prism under one apex: removing the apex
        # leaves two connected 3-regular flaps with uniform pattern colors,
        # which WL-1 cannot distinguish although they are not isomorphic
        k33 = [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]
        prism = [(7, 8), (8, 9), (7, 9), (10, 11), (11, 12), (10, 12),
                 (7, 10), (8, 11), (9, 12)]
        apex = [(13, v) for v in range(1, 13)]
        union = ColoredGraph(13, k33 + prism + apex)
        stats = RunStats()
        canon_separator(union, 1, WL1, check=True, stats=stats)
        failures = [d for d in stats.diagnostics if d.kind == INVARIANT_FAILURE]
        assert failures and all(str(d).startswith("invariant failure") for d in failures)
        assert {(d.depth, d.n) for d in failures} == {(2, 6)}

    def test_workers_do_not_change_result(self):
        g = gen_family("partial_k_tree", n=9, k=2, seed=77)
        lab1 = canon_separator(g, 3, BF, workers=1)
        lab4 = canon_separator(g, 3, BF, workers=4)
        assert lab1 == lab4

    def test_wl1_canonizes_trees_against_ground_truth(self):
        # WL-1 is complete on the colored trees arising in the recursion, so
        # the derived forms must partition a tree corpus exactly like the
        # brute-force oracle does
        from graphcanon import are_isomorphic_bf

        trees = [gen_family("tree", n=5 + s % 5, seed=300 + s) for s in range(30)]
        forms = []
        for i, t in enumerate(trees):
            base = encode(apply_permutation(t, canon_separator(t, 1, WL1)))
            for lab in relabelings(t.n, 3, seed=i):
                h = apply_permutation(t, lab)
                assert encode(apply_permutation(h, canon_separator(h, 1, WL1))) == base
            forms.append(base)
        for i in range(len(trees)):
            for j in range(i + 1, len(trees)):
                same = forms[i] == forms[j]
                assert same == (are_isomorphic_bf(trees[i], trees[j]) is not None)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_form_invariant_under_random_relabeling(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = ColoredGraph(n, [e for e, keep in zip(pairs, mask) if keep])
    perm = data.draw(permutations_of(n))
    h = apply_permutation(g, Labeling(perm))
    fg = encode(apply_permutation(g, canon_separator(g, 2, BF)))
    fh = encode(apply_permutation(h, canon_separator(h, 2, BF)))
    assert fg == fh


# no 2-set separates this graph, so r=2 reaches the no-separator path at the top
NO_SEPARATOR_R2 = ColoredGraph(
    6, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 4), (3, 6), (4, 5), (5, 6)]
)


@pytest.mark.parametrize("backend", [BF, WL1], ids=["bf", "wl1"])
def test_no_separator_scope_form_invariant_regression(backend):
    g = NO_SEPARATOR_R2
    assert mark_separating_sequences(g, 2) == []
    h = apply_permutation(g, Labeling([1, 2, 3, 4, 6, 5]))
    fg = encode(apply_permutation(g, canon_separator(g, 2, backend)))
    fh = encode(apply_permutation(h, canon_separator(h, 2, backend)))
    assert fg == fh
    assert find_isomorphism(g, h, 2, backend) is not None


def test_fallback_counts_auto_limit_hits():
    # K10 has no separating vertex; its minimum encoding ties every labeling
    stats = RunStats()
    canon_separator(complete_graph(10), 1, WL1, stats=stats)
    assert stats.had_fallback and stats.auto_limit_hits > 0


def test_no_separator_above_oracle_cap_refuses():
    with pytest.raises(OracleCapacityError):
        canon_separator(complete_graph(11), 1, WL1)


# relabelings of this graph got two forms under bf at r=1 while input color 2
# aliased the depth-1 pattern colors; the color blocks now start above it
PRECOLORED_ALIAS = ColoredGraph(4, [(1, 4), (2, 3), (2, 4)], {1: {3}, 4: {2}})


def test_precolored_alias_regression():
    forms = set()
    for perm in itertools.permutations(range(1, 5)):
        h = apply_permutation(PRECOLORED_ALIAS, Labeling(perm))
        forms.add(encode(apply_permutation(h, canon_separator(h, 1, BF))))
    assert len(forms) == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_precolored_form_invariant_under_random_relabeling(data):
    # colors up to 2W+1 at r=2 (W = 6) reach into the first two depth blocks
    n = data.draw(st.integers(min_value=1, max_value=6))
    r = data.draw(st.sampled_from([1, 2]))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    palette = st.sets(st.integers(min_value=0, max_value=13), max_size=2)
    colors = {v: data.draw(palette) for v in range(1, n + 1)}
    g = ColoredGraph(n, [e for e, keep in zip(pairs, mask) if keep], colors)
    h = apply_permutation(g, Labeling(data.draw(permutations_of(n))))
    fg = encode(apply_permutation(g, canon_separator(g, r, BF)))
    fh = encode(apply_permutation(h, canon_separator(h, r, BF)))
    assert fg == fh


def reference_root_choice(graph, r, backend):
    """The root scope's separator, by the rule written out: the separating
    r-sequences, narrowed to those of minimal key (the tuple of their stable
    wl1 classes) when there are more than two, then the first code-minimal
    one, coded with individualization colors b+1..b+r as recolorings of the
    scope."""
    seqs = mark_separating_sequences(graph, r)
    classes, _ = wl1_refine(graph)
    if len(seqs) > 2:
        keys = [tuple(classes[v] for v in s) for s in seqs]
        seqs = [s for s, k in zip(seqs, keys) if k == min(keys)]
    b = graph.top_color()
    marks = [{v: [b + i + 1] for i, v in enumerate(s)} for s in seqs]
    codes = backend.codes(graph, marks, classes)
    return seqs[codes.index(min(codes))]


@pytest.mark.parametrize("backend", [BF, WL1], ids=["bf", "wl1"])
def test_separator_choice_equals_reference_rule(backend):
    checked = 0
    for seed in range(12):
        n = 6 + seed % 4
        for g, r in (
            (gen_family("tree", n=n, seed=seed), 1),
            (gen_family("partial_k_tree", n=n, k=2, seed=seed), 2),
            (gen_family("random_gnp", n=n, p=0.35, seed=seed), 2),
            (gen_family("k_tree", n=n, k=2, seed=seed), 3),
        ):
            if not mark_separating_sequences(g, r):
                continue
            lab = canon_separator(g, r, backend)
            chosen = reference_root_choice(g, r, backend)
            assert [lab[v] for v in chosen] == list(range(1, r + 1)), (seed, r)
            checked += 1
    assert checked >= 40


def test_separating_sequences_equal_definition_on_every_small_graph():
    graphs = 0
    for g in every_labeled_graph(5):
        for r in range(1, g.n + 2):
            assert mark_separating_sequences(g, r) == separating_sequences_by_definition(g, r)
        graphs += 1
    assert graphs == 1 + 1 + 2 + 8 + 64 + 1024


def test_separating_sequences_equal_definition_on_seeded_gnp():
    disconnected = isolated = 0
    for seed in range(200):
        n = 6 + seed % 9
        g = gen_family("random_gnp", n=n, p=0.05 + 0.05 * (seed % 8), seed=seed)
        disconnected += not g.is_connected()
        isolated += any(g.degree(v) == 0 for v in g.vertices)
        for r in (1, 2, 3):
            assert mark_separating_sequences(g, r) == separating_sequences_by_definition(g, r)
    assert disconnected >= 50 and isolated >= 50


BENCH_SCOPES = (
    (lambda: gen_family("tree", n=200, seed=1), 1),
    (lambda: gen_family("k_tree", n=40, k=2, seed=1), 3),
)


@pytest.mark.parametrize("make,r", BENCH_SCOPES, ids=["tree200-r1", "2tree40-r3"])
def test_separating_sequences_equal_definition_on_large_scopes(make, r):
    g = make()
    seqs = mark_separating_sequences(g, r)
    assert seqs and seqs == separating_sequences_by_definition(g, r)


@pytest.mark.parametrize("make,r", BENCH_SCOPES, ids=["tree200-r1", "2tree40-r3"])
def test_separating_sequences_walk_no_component_per_set(monkeypatch, make, r):
    # one component walk per r-set would be 200 and 9,880 calls here
    g = make()
    walks, tests = count_separator_work(monkeypatch)
    assert mark_separating_sequences(g, r)
    assert walks == [] and tests == []


def test_key_refinement_only_above_two_sequences(monkeypatch):
    calls = []
    real = invariant.wl1_refine

    def counting(graph, *args, **kwargs):
        calls.append(graph.n)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(invariant, "wl1_refine", counting)
    # P7 at r=1: the centre is the root's only separator, and each flap is a
    # P3 whose midpoint is its only one
    canon_separator(path_graph(7), 1, BF)
    assert calls == []
    # C6 at r=2 has many separating pairs at the root
    canon_separator(gen_family("cycle", n=6), 2, BF)
    assert calls[:1] == [6]


def test_each_scope_refined_from_scratch_at_most_once(monkeypatch):
    # a scope's flap code gives its stable partition, and its candidates
    # restart from it; recolorings share the scope's adjacency, so the
    # adjacency identifies the scope a refinement worked on
    g = gen_family("tree", n=200, seed=1)
    scratch = count_scratch_refinements(monkeypatch)
    canon_separator(g, 1, WL1)
    scopes = [h._adj for h in scratch]
    assert len(scopes) > 100
    assert len({id(adj) for adj in scopes}) == len(scopes)


class TestFindIsomorphism:
    def test_self(self, k4):
        mapping = find_isomorphism(k4, k4, 1, BF)
        assert mapping is not None
        assert encode(apply_permutation(k4, mapping)) == encode(k4)

    def test_p3_vs_k3(self, p3, k3):
        assert find_isomorphism(p3, k3, 1, BF) is None

    def test_tree_with_wl1(self):
        tree = gen_family("tree", n=9, seed=21)
        for lab in relabelings(9, 3, seed=5):
            image = apply_permutation(tree, lab)
            mapping = find_isomorphism(tree, image, 1, WL1)
            assert mapping is not None
            for u, v in tree.edges:
                assert image.has_edge(mapping[u], mapping[v])
            assert len(tree.edges) == len(image.edges)

    def test_verification_catches_wl1_lie(self, c6, two_triangles):
        stats = RunStats()
        mapping = find_isomorphism(c6, two_triangles, 1, WL1, stats=stats)
        assert mapping is None

    @pytest.mark.parametrize("backend", [BF, WL1], ids=["bf", "wl1"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_agrees_with_bf_oracle(self, backend, r):
        # one graph per isomorphism class for n <= 5, against every other of
        # its order and a relabeled copy of itself; then seeded graphs, n = 6
        from graphcanon import are_isomorphic_bf, bf_invariant

        groups = []
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            reps = {}
            for mask in range(1 << len(pairs)):
                g = ColoredGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                reps.setdefault(bf_invariant(g), g)
            groups.append(list(reps.values()))
        groups.append([gen_family("random_gnp", n=6, p=0.45, seed=s) for s in range(8)])
        for graphs in groups:
            n = graphs[0].n
            labs = relabelings(n, len(graphs), seed=n)
            copies = [apply_permutation(g, lab) for g, lab in zip(graphs, labs)]
            pairs = list(itertools.combinations(graphs, 2)) + list(zip(graphs, copies))
            for g, h in pairs:
                expected = are_isomorphic_bf(g, h) is not None
                mapping = find_isomorphism(g, h, r, backend)
                assert (mapping is not None) == expected, (g.edges, h.edges)
                if mapping is not None:
                    assert apply_permutation(g, mapping) == h
