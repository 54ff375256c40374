import itertools
import math
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcanon import (
    ColoredGraph,
    ContractViolationError,
    Labeling,
    Lcg64,
    OracleCapacityError,
    apply_permutation,
    are_isomorphic_bf,
    canon_separator,
    cg_dumps,
    decompose_flaps,
    encode,
    find_isomorphism,
    gen_family,
    is_separator,
    mark_separating_sequences,
    wl1_refine,
)
from graphcanon import invariant, mincode, separator
from graphcanon.graph import View
from graphcanon.invariant import BruteForceBackend, Wl1Backend, WlkBackend, _individualized
from graphcanon.parallel import FALLBACK, INVARIANT_FAILURE, Diagnostic, RunStats
from graphcanon.separator import SeparatorRun

from .conftest import (
    antiprism,
    complete_graph,
    count_scratch_refinements,
    every_labeled_graph,
    mobius_ladder,
    path_graph,
    prism,
    stacked_triangulation,
)
from .test_cli import run_cli
from .test_invariant import partition_of
from .test_graph import (
    components_by_induction,
    permutations_of,
    seeded_small_graphs,
    small_vertex_sets,
)

BF = BruteForceBackend()
WL1 = Wl1Backend()
WLK2 = WlkBackend(2)


def relabelings(n, count, seed):
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
    base = run.color_base + (depth - 1) * run.block_width + run.r + 1
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


def count_graph_builds(monkeypatch) -> list:
    """Record every ColoredGraph built: by __init__ or, from parts already
    checked, by _from_parts, the path induced_subgraph takes."""
    built = []
    init, from_parts = ColoredGraph.__init__, ColoredGraph._from_parts.__func__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_from_parts(cls, *args):
        built.append(1)
        return from_parts(cls, *args)

    monkeypatch.setattr(ColoredGraph, "__init__", counting_init)
    monkeypatch.setattr(ColoredGraph, "_from_parts", classmethod(counting_from_parts))
    return built


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


def twin_classes_only(g, classes) -> bool:
    """True when every class of `classes` is a twin class of g, by the
    definition: its vertices pairwise non-adjacent with equal neighbor sets,
    or pairwise adjacent with equal closed neighbor sets."""
    members = {}
    for v in g.vertices:
        members.setdefault(classes[v], []).append(v)
    for cell in members.values():
        pairs = list(itertools.combinations(cell, 2))
        open_twins = all(
            u not in g.neighbors(v) and g.neighbors(u) == g.neighbors(v) for u, v in pairs
        )
        closed_twins = all(
            u in g.neighbors(v) and g.neighbors(u) | {u} == g.neighbors(v) | {v} for u, v in pairs
        )
        if not (open_twins or closed_twins):
            return False
    return True


# the Petersen graph, labeled by its own minimum encoding: it has no twins and
# no separating 1- or 2-sequence, so it takes the fallback, which labels it by
# the identity
PETERSEN = ColoredGraph(10, [(1, 8), (1, 9), (1, 10), (2, 6), (2, 7), (2, 10), (3, 5), (3, 7),
                             (3, 9), (4, 5), (4, 6), (4, 8), (5, 10), (6, 9), (7, 8)])

# small gadgets with no twins, as (order, edges, the vertices joined to a hub):
# P4 joined at its middle, its ends or all of it, P5 at its middle or its ends,
# C5 at one vertex or all of it, and a spider with two legs of length 2 at its
# center. With the hub's pattern color each is symmetric and still has no
# twin class, so below the hub it is ranked by a separator search of its own
P4, P5 = [(1, 2), (2, 3), (3, 4)], [(1, 2), (2, 3), (3, 4), (4, 5)]
C5, SPIDER = P5 + [(1, 5)], [(1, 2), (2, 3), (1, 4), (4, 5)]
GADGETS = ((4, P4, (2, 3)), (4, P4, (1, 4)), (4, P4, (1, 2, 3, 4)), (5, P5, (3,)),
           (5, P5, (1, 5)), (5, C5, (1,)), (5, C5, (1, 2, 3, 4, 5)), (5, SPIDER, (1,)))


def hub_graph(*gadgets):
    """Vertex 1, the hub, joined to one copy of each gadget (see GADGETS)."""
    edges, offset = [], 1
    for order, inner, joined in gadgets:
        edges += [(offset + u, offset + v) for u, v in inner]
        edges += [(1, offset + v) for v in joined]
        offset += order
    return ColoredGraph(offset, edges)


# a hub over two gadgets, of at most 10 vertices, within the bf cap
HUB_GRAPHS = [hub_graph(a, b) for a, b in itertools.combinations_with_replacement(GADGETS, 2)
              if a[0] + b[0] < 10]


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
        run = SeparatorRun(1, BF)
        flaps = decompose_flaps(p3, (2,), 1, run)
        assert len(flaps) == 2
        for flap in flaps:
            assert flap.with_extra_colors({}).n == 1
            assert flap.with_extra_colors({}).color_set(1) == frozenset({3})
        assert flaps[0].vertices == [1]
        assert flaps[1].vertices == [3]

    def test_pattern_color_range_r2(self):
        # r=2 gives block width 6: vertex adjacent to neither separator vertex
        # gets color 3, adjacent to both gets 6
        g = ColoredGraph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        run = SeparatorRun(2, BF)
        (flap,) = decompose_flaps(g, (1, 2), 1, run)
        assert flap.vertices == [3, 4]
        assert flap.with_extra_colors({}).color_set(1) == frozenset({6})  # adjacent to both
        assert flap.with_extra_colors({}).color_set(2) == frozenset({3})  # adjacent to neither

    def test_star_center_gives_four_flaps(self):
        star = gen_family("star", n=5)
        run = SeparatorRun(1, BF)
        flaps = decompose_flaps(star, (1,), 1, run)
        assert len(flaps) == 4
        assert all(flap.with_extra_colors({}).n == 1 for flap in flaps)

    def test_rejects_non_separator(self, p3):
        run = SeparatorRun(1, BF)
        with pytest.raises(ContractViolationError):
            decompose_flaps(p3, (1,), 1, run)

    def test_rejects_repeated_vertices(self, p3):
        run = SeparatorRun(2, BF)
        with pytest.raises(ContractViolationError):
            decompose_flaps(p3, (2, 2), 1, run)

    def test_rejects_foreign_vertices(self, p3):
        run = SeparatorRun(1, BF)
        with pytest.raises(ContractViolationError):
            decompose_flaps(p3, (9,), 1, run)

    def test_one_component_walk(self, monkeypatch):
        walks, tests = count_separator_work(monkeypatch)
        star = gen_family("star", n=5)
        decompose_flaps(star, (1,), 1, SeparatorRun(1, BF))
        assert (len(walks), len(tests)) == (1, 0)

    def test_pattern_colors_disjoint_across_depths(self):
        # depth-d pattern colors live in ((d-1)W + r, dW], so depths never collide
        g = gen_family("k_tree", n=12, k=2, seed=8)
        run = SeparatorRun(3, BF)
        seq = mark_separating_sequences(g, 3)[0]
        inherited = {v: frozenset() for v in g.vertices}
        for depth in (1, 2, 3):
            low, high = (depth - 1) * 11 + 3, depth * 11
            flaps = decompose_flaps(g, seq, depth, run)
            for flap in flaps:
                graph = flap.with_extra_colors({})
                for v in graph.vertices:
                    fresh = graph.color_set(v) - inherited[flap.vertices[v - 1]]
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
                run = SeparatorRun(r, BF)
                for seq in itertools.permutations(xs):
                    for depth in (1, 2):
                        flaps = decompose_flaps(g, seq, depth, run)
                        expected = flaps_by_two_step_induction(g, seq, depth, run)
                        built = [(f.with_extra_colors({}), dict(enumerate(f.vertices, 1)))
                                 for f in flaps]
                        assert built == expected

    def test_decompose_flaps_builds_no_graph(self, monkeypatch):
        # the flaps are views of the root; neither the separator search nor
        # the decomposition builds a graph
        g = gen_family("partial_k_tree", n=9, k=2, seed=4)
        run = SeparatorRun(2, BF)
        built = count_graph_builds(monkeypatch)
        sequences = mark_separating_sequences(g, 2)
        assert sequences and not built
        flaps = decompose_flaps(g, sequences[0], 1, run)
        assert flaps and not built

    def test_each_flap_colored_once(self):
        # each flap vertex keeps its scope's colors and gains exactly one
        # pattern color, c + the sum of 2^(i-1) over the sequence positions i
        # it is adjacent to, with c = b + (d-1)W + r + 1; at depth 2 the
        # scope is itself a flap
        g = colored_copy(gen_family("partial_k_tree", n=9, k=2, seed=4), 9)
        run = SeparatorRun(2, BF, g.top_color())
        checked = {1: 0, 2: 0}
        scopes = [(g, 1)]
        for scope, depth in scopes:
            seqs = mark_separating_sequences(scope, 2)
            seq = next((s for s in seqs if len(scope.components(s)) >= 2), None)
            if seq is None:
                continue
            c = run.color_base + (depth - 1) * run.block_width + run.r + 1
            for flap in decompose_flaps(scope, seq, depth, run):
                for v in flap.vertices:
                    bits = sum(1 << i for i, s in enumerate(seq) if v in scope.neighbors(s))
                    assert flap.color_set(v) == scope.color_set(v) | {c + bits}
                    assert len(flap.color_set(v)) == len(scope.color_set(v)) + 1
                    checked[depth] += 1
                if depth == 1 and flap.n > 2:
                    scopes.append((flap, 2))
        assert checked[1] == g.n - 2 and checked[2] > 0

    def test_flap_partition_property(self):
        g = gen_family("partial_k_tree", n=9, k=2, seed=4)
        run = SeparatorRun(3, BF)
        for seq in mark_separating_sequences(g, 3)[:20]:
            flaps = decompose_flaps(g, seq, 1, run)
            covered = set(seq)
            for flap in flaps:
                originals = set(flap.vertices)
                assert not originals & covered
                covered |= originals
            assert covered == set(g.vertices)


def cube_edges(offset):
    """The cube Q3 on offset+1..offset+8."""
    return [(offset + a + 1, offset + b + 1)
            for a, b in itertools.combinations(range(8), 2) if bin(a ^ b).count("1") == 1]


def wagner_edges(offset):
    """The Wagner graph V8 (an 8-cycle and its four long chords) on
    offset+1..offset+8."""
    return [(offset + i + 1, offset + (i + 1) % 8 + 1) for i in range(8)] + [
        (offset + i + 1, offset + i + 5) for i in range(4)
    ]


# Graphs whose wl1 ties no automorphism explains: each joins 3-regular pieces
# that wl1 cannot tell apart although they are not isomorphic (K3,3 and the
# triangular prism; the cube and the Wagner graph) under hubs. At r = 1 the
# first gives tied flaps under one apex, the second tied flaps under one hub,
# and the third two tied candidate hubs, one over each piece.
K33_EDGES = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]
PRISM_EDGES = [(7, 8), (8, 9), (7, 9), (10, 11), (11, 12), (10, 12), (7, 10), (8, 11), (9, 12)]
WL1_TIE_CASES = {
    "k33-prism-apex": ColoredGraph(13, K33_EDGES + PRISM_EDGES + [(13, v) for v in range(1, 13)]),
    "cube-wagner-hub": ColoredGraph(
        17, cube_edges(0) + wagner_edges(8) + [(17, v) for v in range(1, 17)]
    ),
    "cube-wagner-two-hubs": ColoredGraph(
        18,
        cube_edges(0) + wagner_edges(8) + [(17, v) for v in range(1, 9)]
        + [(18, v) for v in range(9, 17)] + [(17, 18)],
    ),
}


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
        stats = RunStats()
        assert canon_separator(PETERSEN, 1, BF, stats=stats) == Labeling.identity(10)
        assert stats.had_fallback
        message = "no separating 1-sequence at depth 1; minimum-encoding fallback"
        assert stats.diagnostics == [Diagnostic(FALLBACK, 1, 10, message)]
        # K5 is one class of twins, a leaf: it takes no fallback
        stats = RunStats()
        assert canon_separator(complete_graph(5), 1, BF, stats=stats) == Labeling.identity(5)
        assert not stats.had_fallback and stats.diagnostics == []

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

    @pytest.mark.parametrize("name", list(WL1_TIE_CASES))
    def test_wl1_ties_settled_by_certificates(self, name, tmp_path):
        # wl1 gives the pieces equal codes although they are not isomorphic,
        # so only certificates keep the form from depending on the labels
        g = WL1_TIE_CASES[name]
        copies = [apply_permutation(g, lab) for lab in relabelings(g.n, 30, seed=9)]
        forms = {encode(apply_permutation(h, canon_separator(h, 1, WL1))) for h in copies}
        assert len(forms) == 1
        assert all(find_isomorphism(g, h, 1, WL1) is not None for h in copies)
        # on each case, breaking ties by labels called this first copy
        # non-isomorphic to the graph
        a, b = tmp_path / "a.cg", tmp_path / "b.cg"
        a.write_text(cg_dumps(g))
        b.write_text(cg_dumps(copies[0]))
        assert run_cli("iso", str(a), str(b), "--invariant", "wl1", "--r", "1").returncode == 0

    def test_diagnostics_are_the_kept_candidates_only(self):
        # the two hubs tie as candidates; each one's recursion falls back
        # on its two flaps, one 3-regular piece (8 vertices) and the other
        # piece with its hub (9), and only the kept candidate's two
        # fallbacks are reported
        stats = RunStats()
        canon_separator(WL1_TIE_CASES["cube-wagner-two-hubs"], 1, WL1, stats=stats)
        assert sorted((d.kind, d.depth, d.n) for d in stats.diagnostics) == [
            (FALLBACK, 2, 8), (FALLBACK, 2, 9)
        ]

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


def test_fallback_counts_auto_limit_hits(monkeypatch):
    # the fallback hands its stats to minimum_encoding, which counts the
    # automorphisms it drops once its store is full. Every labeling of K10
    # ties, which fills the store of 64; but K10 is now a leaf, and no input
    # within the cap that falls back fills it (the Petersen graph, the crown
    # graph and K5 x K2 drop none), so the Petersen graph's fallback runs
    # with a store of 8
    stats = RunStats()
    mincode.minimum_encoding(complete_graph(10), stats=stats)
    assert stats.auto_limit_hits > 0
    stats = RunStats()
    canon_separator(complete_graph(10), 1, WL1, stats=stats)
    assert not stats.had_fallback and stats.auto_limit_hits == 0
    monkeypatch.setattr(mincode, "_AUTO_LIMIT", 8)
    stats = RunStats()
    canon_separator(PETERSEN, 1, WL1, stats=stats)
    assert stats.had_fallback and stats.auto_limit_hits > 0


def test_no_separator_above_oracle_cap_refuses():
    # C11 has no twins and no separating vertex
    with pytest.raises(OracleCapacityError):
        canon_separator(gen_family("cycle", n=11), 1, WL1)
    # K11 is one class of twins, a leaf at any size
    stats = RunStats()
    assert canon_separator(complete_graph(11), 1, WL1, stats=stats) == Labeling.identity(11)
    assert not stats.had_fallback


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
    # colors up to 2W+1 (W = 2^r + r) reach into the first two depth blocks
    n = data.draw(st.integers(min_value=1, max_value=6))
    r = data.draw(st.sampled_from([1, 2, 3]))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    palette = st.sets(st.integers(min_value=0, max_value=2 * (2**r + r) + 1), max_size=2)
    colors = {v: data.draw(palette) for v in range(1, n + 1)}
    g = ColoredGraph(n, [e for e, keep in zip(pairs, mask) if keep], colors)
    h = apply_permutation(g, Labeling(data.draw(permutations_of(n))))
    fg = encode(apply_permutation(g, canon_separator(g, r, BF)))
    fh = encode(apply_permutation(h, canon_separator(h, r, BF)))
    assert fg == fh


def reference_root_choice(graph, r, backend):
    """The root scope's separator, by the rule written out: the separating
    r-sequences (every ordering of the vertices of a root with at most r),
    narrowed to those of minimal key (the tuple of their stable wl1 classes),
    then the first code-minimal one, coded with individualization colors
    b+1, b+2, ... as recolorings of the scope."""
    if graph.n <= r:
        seqs = list(itertools.permutations(graph.vertices))
    else:
        seqs = mark_separating_sequences(graph, r)
    classes, _ = wl1_refine(graph)
    keys = [tuple(classes[v] for v in s) for s in seqs]
    seqs = [s for s, k in zip(seqs, keys) if k == min(keys)]
    b = graph.top_color()
    marks = [{v: [b + i + 1] for i, v in enumerate(s)} for s in seqs]
    codes = list(backend.codes(graph, marks, classes))
    return seqs[codes.index(min(codes))]


@pytest.mark.parametrize("backend", [BF, WL1], ids=["bf", "wl1"])
def test_separator_choice_equals_reference_rule(backend):
    # a root of more than r vertices whose stable wl1 partition is discrete
    # is a leaf, labeled in class order, and so is one whose every class is
    # a twin class, labeled in (class, vertex) order; any other root with a
    # separating r-sequence labels the reference rule's choice first
    checked = discrete = twins = 0
    for seed in range(40):
        n = 6 + seed % 4
        for g, r in (
            (gen_family("tree", n=n, seed=seed), 1),
            (gen_family("partial_k_tree", n=n, k=2, seed=seed), 2),
            (gen_family("random_gnp", n=n, p=0.35, seed=seed), 2),
            (gen_family("k_tree", n=n, k=2, seed=seed), 3),
        ):
            lab = canon_separator(g, r, backend)
            classes, _ = wl1_refine(g)
            if len(set(classes.values())) == g.n:
                assert lab == Labeling(classes[v] for v in g.vertices), (seed, r)
                discrete += 1
                continue
            if twin_classes_only(g, classes):
                order = sorted(g.vertices, key=lambda v: (classes[v], v))
                assert lab == Labeling.from_position_order(order), (seed, r)
                twins += 1
                continue
            if not mark_separating_sequences(g, r):
                continue
            chosen = reference_root_choice(g, r, backend)
            assert [lab[v] for v in chosen] == list(range(1, r + 1)), (seed, r)
            checked += 1
    assert checked >= 40 and discrete >= 10 and twins >= 10
    # roots of at most r vertices, plain and precolored: the chosen ordering
    # is the whole labeling
    small = 0
    for g in every_labeled_graph(3):
        for h in (g, colored_copy(g, g.n + len(g.edges))):
            for r in range(max(1, h.n), 4):
                chosen = reference_root_choice(h, r, backend)
                assert canon_separator(h, r, backend) == Labeling.from_position_order(chosen)
                small += 1
    assert small == 36


def tied_classes(g, seed):
    """A seeded class map of g with many ties: three classes at most."""
    rng = Lcg64(seed)
    return {v: rng.randrange(3) for v in g.vertices}


def assert_minimal_key_search(g, r, seed):
    """With no classes, the search returns every separating sequence; under
    the stable wl1 classes and under a seeded tied class map, those of
    minimal key."""
    every = separating_sequences_by_definition(g, r)
    assert mark_separating_sequences(g, r) == every
    for classes in (wl1_refine(g)[0], tied_classes(g, seed)):
        keys = [tuple(classes[v] for v in s) for s in every]
        least = min(keys, default=None)
        minimal = [s for s, key in zip(every, keys) if key == least]
        assert mark_separating_sequences(g, r, classes) == minimal, (g, r, classes)


def test_separating_sequences_equal_definition_on_every_small_graph():
    graphs = 0
    for g in every_labeled_graph(5):
        for r in range(1, g.n + 2):
            assert_minimal_key_search(g, r, graphs)
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
            assert_minimal_key_search(g, r, seed)
    assert disconnected >= 50 and isolated >= 50


def test_minimal_key_sequences_equal_definition_on_seeded_partial_k_trees():
    disconnected = 0
    for seed in range(60):
        g = gen_family("partial_k_tree", n=6 + seed % 9, k=2 + seed % 2, p=0.4, seed=seed)
        disconnected += not g.is_connected()
        for r in (1, 2, 3):
            assert_minimal_key_search(g, r, seed)
    assert disconnected >= 10


BENCH_SCOPES = (
    (lambda: gen_family("tree", n=200, seed=1), 1),
    (lambda: gen_family("k_tree", n=40, k=2, seed=1), 3),
)


@pytest.mark.parametrize("make,r", BENCH_SCOPES, ids=["tree200-r1", "2tree40-r3"])
def test_separating_sequences_equal_definition_on_large_scopes(make, r):
    g = make()
    assert mark_separating_sequences(g, r)
    assert_minimal_key_search(g, r, 1)


@pytest.mark.parametrize("make,r", BENCH_SCOPES, ids=["tree200-r1", "2tree40-r3"])
def test_separating_sequences_walk_no_component_per_set(monkeypatch, make, r):
    # one component walk per r-set would be 200 and 9,880 calls here
    g = make()
    walks, tests = count_separator_work(monkeypatch)
    assert mark_separating_sequences(g, r)
    assert walks == [] and tests == []


def count_dfs_passes(monkeypatch) -> list:
    """Record the removed set of every largest_components_without call."""
    passes = []
    real = ColoredGraph.largest_components_without

    def counting(self, removed=()):
        passes.append(removed)
        return real(self, removed)

    monkeypatch.setattr(ColoredGraph, "largest_components_without", counting)
    return passes


def test_minimal_key_search_stops_after_the_least_prefix(monkeypatch):
    # every (r-1)-set head of the 2-tree would be C(39, 2) = 741 passes
    g = gen_family("k_tree", n=40, k=2, seed=1)
    classes, _ = wl1_refine(g)
    passes = count_dfs_passes(monkeypatch)
    assert mark_separating_sequences(g, 3, classes)
    assert len(passes) <= math.comb(39, 2) // 10


def test_search_without_a_separator_runs_one_pass_per_head_at_most(monkeypatch):
    # a head holding the last-ranked vertex has no vertex ranked after it
    passes = count_dfs_passes(monkeypatch)
    for g, r in ((complete_graph(5), 2), (complete_graph(7), 3)):
        for classes in (None, wl1_refine(g)[0], tied_classes(g, g.n)):
            passes.clear()
            assert mark_separating_sequences(g, r, classes) == []
            assert len(passes) <= math.comb(g.n - 1, r - 1)


@pytest.mark.parametrize("backend", [WL1, BF, WLK2], ids=["wl1", "bf", "wlk2"])
def test_each_scope_refined_from_scratch_at_most_once(monkeypatch, backend):
    # only the root refines from scratch, under every backend: each flap's
    # partition comes from its parent's restart, and its own search, keys
    # and candidate codes restart from it, scopes of 2 and 3 vertices too,
    # which are ranked by their least record without a graph of their own
    scopes = []  # the order of each scope ranked, and of each least record
    real, real_leaf = separator._rank_scope, separator._least_record

    def recording(scope, *args):
        scopes.append(scope.n)
        return real(scope, *args)

    def recording_leaf(classes, *args):
        scopes.append(len(classes))
        return real_leaf(classes, *args)

    monkeypatch.setattr(separator, "_rank_scope", recording)
    monkeypatch.setattr(separator, "_least_record", recording_leaf)
    scratch = count_scratch_refinements(monkeypatch)
    cases = [(path_graph(7), 1), (gen_family("tree", n=10, seed=3), 1),
             (gen_family("partial_k_tree", n=10, k=2, seed=18), 3),
             (gen_family("tree", n=9, seed=1), 2),
             (gen_family("partial_k_tree", n=9, k=2, seed=25), 3)]
    if backend is WL1:  # above the bf cap
        cases.append((gen_family("tree", n=200, seed=1), 1))
    sizes = set()
    for g, r in cases:
        scopes.clear()
        scratch.clear()
        canon_separator(g, r, backend)
        sizes.update(n for n in scopes if n <= r)
        assert len(scopes) > 1
        assert scratch == [g]
    assert {1, 2, 3} <= sizes


def test_separator_recursion_never_calls_key_groups(monkeypatch):
    # a leaf of at most r vertices lists its orderings of least key itself,
    # so only rigidity draws key groups; leaves of several vertices occur in
    # the hub graphs
    sizes, leaves = [], []
    real, real_leaf = invariant.key_groups, separator._least_record

    def recording(partition, r):
        sizes.append(len(partition))
        return real(partition, r)

    def recording_leaf(classes, *args):
        leaves.append(len(classes))
        return real_leaf(classes, *args)

    monkeypatch.setattr(invariant, "key_groups", recording)
    monkeypatch.setattr(separator, "_least_record", recording_leaf)
    for make, r in BENCH_SCOPES:
        canon_separator(make(), r, WL1)
    for g in HUB_GRAPHS:
        for r in (2, 3):
            canon_separator(g, r, WL1)
    assert sizes == [] and max(leaves) > 1


def test_wl1_ranks_every_flap_as_a_view_and_builds_no_graph(monkeypatch):
    # the recursion reads each flap through the root, and iso checks its
    # mapping on the two graphs it was given. Balanced trees stay
    # non-discrete down to their leaves, so the recursion runs deep
    graphs = [(gen_family("balanced_tree", k=2, depth=7), 1),
              (gen_family("balanced_tree", k=3, depth=4), 1),
              (gen_family("balanced_tree", k=3, depth=4), 2)]
    g = gen_family("partial_k_tree", n=30, k=2, seed=2)
    image = apply_permutation(g, relabelings(g.n, 1, seed=3)[0])
    built = count_graph_builds(monkeypatch)
    for h, r in graphs:
        stats = RunStats()
        canon_separator(h, r, WL1, stats=stats)
        assert stats.max_depth > 3
    assert find_isomorphism(g, image, 3, WL1) is not None
    assert built == []


@pytest.mark.parametrize("backend", [BF, WLK2], ids=["bf", "wlk2"])
def test_a_view_builds_its_graph_at_most_once(monkeypatch, backend):
    # a backend other than wl1 codes a view as a graph, built on demand and
    # kept: at most one per scope below the root. The P4 joined at its
    # middle codes its two tied candidates, and the C5 falls back
    views = []
    real = separator._rank_scope

    def recording(scope, *args):
        views.append(scope)
        return real(scope, *args)

    monkeypatch.setattr(separator, "_rank_scope", recording)
    built = count_graph_builds(monkeypatch)
    for g, r in ((hub_graph(GADGETS[0], GADGETS[0]), 1),
                 (hub_graph(GADGETS[0], GADGETS[5]), 1)):
        views.clear()
        built.clear()
        canon_separator(g, r, backend)
        assert views[0] is g and len(views) > 1
        assert 0 < len(built) <= len(views) - 1


def colored_copy(g, seed):
    """g with a color from 1..3 on each vertex with chance 0.4."""
    rng = Lcg64(seed)
    colors = {v: {1 + rng.randrange(3)} for v in g.vertices if rng.chance(0.4)}
    return ColoredGraph(g.n, g.edges, colors)


def flap_graph(scope, sequence, comp, base):
    """The flap on `comp`, a component of the scope (a graph or a view) minus
    the sequence, as a graph of its own, renumbered in vertex order: the
    scope's colors plus the pattern color base + the sum of 2^(i-1) over the
    sequence positions i it is adjacent to. Also the map back to the scope."""
    kept = sorted(comp)
    index = {v: i for i, v in enumerate(kept, 1)}
    edges = [(index[u], index[v]) for u in kept for v in scope.neighbors(u) if v in index]
    colors = {}
    for v in kept:
        bits = sum(1 << i for i, s in enumerate(sequence) if v in scope.neighbors(s))
        colors[index[v]] = scope.color_set(v) | {base + bits}
    return ColoredGraph(len(kept), edges, colors), dict(enumerate(kept, 1))


@pytest.mark.parametrize("backend,least", [(WL1, 300), (BF, 200)], ids=["wl1", "bf"])
def test_handed_down_flap_partitions_equal_their_own_refinement(monkeypatch, backend, least):
    # the restart of a recolored scope, limited to one flap, is the flap's
    # own stable partition; and two flaps of a scope get equal codes exactly
    # when their own refinements do. bf graphs stay within its cap
    seen = []
    real = separator._code_flaps

    def recording(scope, coloring, partition, comps, stats):
        coded = real(scope, coloring, partition, comps, stats)
        # the sequence vertices are colored base+1.., and the pattern colors
        # start at base + r + 1
        seq = sorted(coloring, key=coloring.get)
        base = coloring[seq[0]][0] + len(seq)
        seen.append(([flap_graph(scope, seq, comp, base) for comp in comps], coded))
        return coded

    def size(n):
        return n if backend is WL1 else min(n, 10)

    monkeypatch.setattr(separator, "_code_flaps", recording)
    # a leaf, discrete or of twin classes, codes no flaps, so the inputs are
    # balanced trees, cycles and hub graphs, which have scopes that are not
    # leaves, and more seeds
    cases = [(gen_family("balanced_tree", k=b, depth=d), r)
             for b, d, r in ((2, 2, 1), (3, 1, 1), (2, 3, 1), (3, 2, 1), (3, 2, 2))]
    cases += [(gen_family("cycle", n=n), 2) for n in (6, 9, 10, 16)]
    cases += [(g, r) for g in HUB_GRAPHS for r in (1, 2, 3)]
    for g, r in cases:
        if g.n == size(g.n):  # within the bf cap
            for h in (g, colored_copy(g, g.n)):
                canon_separator(h, r, backend)
    for seed in range(12):
        for g, r in ((gen_family("tree", n=size(20), seed=seed), 1),
                     (gen_family("k_tree", n=size(14), k=2, seed=seed), 3),
                     (gen_family("partial_k_tree", n=size(14), k=2, seed=seed), 3),
                     (gen_family("random_gnp", n=size(12), p=0.3, seed=seed), 2)):
            for h in (g, colored_copy(g, seed)):
                try:
                    canon_separator(h, r, backend)
                except OracleCapacityError:
                    pass  # a no-separator scope above the cap; earlier flaps count
    checked = 0
    for flaps, coded in seen:
        own = [wl1_refine(graph) for graph, _ in flaps]
        for (_, origin), (classes, _), (_, partition) in zip(flaps, own, coded):
            assert partition_of(partition) == partition_of(
                {origin[u]: c for u, c in classes.items()}
            )
            checked += 1
        for (a, (ca, _)), (b, (cb, _)) in itertools.combinations(zip(own, coded), 2):
            assert (a[1] == b[1]) == (ca == cb)
    assert checked > least


@pytest.mark.parametrize("backend,least", [(WL1, 80), (BF, 20), (WLK2, 20)],
                         ids=["wl1", "bf", "wlk2"])
def test_flaps_of_every_ranked_scope_match_two_step_induction(monkeypatch, backend, least):
    # every scope the recursion decomposes, the root and its views: each
    # flap, built, equals the reference flap of the scope's own graph, and
    # a flap of at most r vertices gets from _rank_scope what the rule that
    # ranked it inside its parent gives, its least record under the
    # parent's colors plus its pattern color
    decomposed, ranked = [], {}
    real, real_rank = separator.decompose_flaps, separator._rank_scope

    def recording(scope, sequence, depth, run):
        flaps = real(scope, sequence, depth, run)
        decomposed.append((scope, sequence, depth, run, flaps))
        return flaps

    def recording_rank(scope, depth, run, stats, partition):
        ranked[scope] = partition, real_rank(scope, depth, run, stats, partition)
        return ranked[scope][1]

    def size(n):
        return n if backend is WL1 else min(n, 10)

    monkeypatch.setattr(separator, "decompose_flaps", recording)
    monkeypatch.setattr(separator, "_rank_scope", recording_rank)
    cases = [(gen_family("balanced_tree", k=b, depth=d), r)
             for b, d, r in ((2, 2, 1), (3, 1, 1), (2, 3, 2), (3, 2, 3))]
    cases += [(gen_family("cycle", n=n), 2) for n in (6, 9, 10, 16)]
    cases += [(g, r) for g in HUB_GRAPHS for r in (1, 2, 3)]
    for seed in range(12):
        cases += [(gen_family("tree", n=size(20), seed=seed), 1),
                  (gen_family("k_tree", n=size(14), k=2, seed=seed), 3),
                  (gen_family("partial_k_tree", n=size(14), k=2, seed=seed), 2 + seed % 2),
                  (gen_family("random_gnp", n=size(12), p=0.3, seed=seed), 2)]
    for g, r in cases:
        if g.n == size(g.n):  # within the bf cap
            for h in (g, colored_copy(g, g.n + r)):
                try:
                    canon_separator(h, r, backend)
                except OracleCapacityError:
                    pass  # a no-separator scope above the cap; earlier flaps count
    monkeypatch.undo()
    views = small = 0
    for scope, sequence, depth, run, flaps in decomposed:
        graph = scope.with_extra_colors({})
        local = {v: i for i, v in enumerate(scope.vertices, 1)}
        built = [(f.with_extra_colors({}), {i: local[v] for i, v in enumerate(f.vertices, 1)})
                 for f in flaps]
        assert built == flaps_by_two_step_induction(graph, [local[v] for v in sequence], depth, run)
        views += isinstance(scope, View)
        for flap in flaps:
            if flap.n <= run.r:
                c, bits = flap.layers[-1]
                partition, got = ranked[flap]
                assert got == separator._least_record(
                    partition, lambda v: scope.color_set(v) | {c + bits.get(v, 0)}, scope.neighbors
                )
                small += 1
    assert views > least and small > least


def test_least_record_lists_the_first_key_group_in_order():
    # a leaf's orderings are those of the first group of key_groups, in the
    # same order: with every record equal the first is kept, and otherwise
    # the least record is that of key_groups' group
    for g in every_labeled_graph(4):
        colored = colored_copy(g, g.n + len(g.edges))
        for classes in ({v: 1 + v % 2 for v in g.vertices}, wl1_refine(g)[0]):
            first = next(invariant.key_groups(classes, len(classes)))
            blank = separator._least_record(classes, lambda v: frozenset(), lambda v: ())
            assert blank[0] == list(first[0])
            records = [(list(seq), (separator._record(seq, colored.color_set, colored.neighbors),))
                       for seq in first]
            assert separator._least_record(classes, colored.color_set, colored.neighbors) == min(
                records, key=lambda item: item[1])


def test_precolored_wl1_forms_invariant_above_oracle_cap():
    for g, r in ((gen_family("tree", n=30, seed=5), 1),
                 (gen_family("tree", n=60, seed=6), 1),
                 (gen_family("k_tree", n=25, k=2, seed=7), 3),
                 (gen_family("partial_k_tree", n=20, k=2, seed=8), 3)):
        for h in (g, colored_copy(g, g.n)):
            forms = {
                encode(apply_permutation(x, canon_separator(x, r, WL1)))
                for x in [h] + [apply_permutation(h, lab) for lab in relabelings(h.n, 4, h.n)]
            }
            assert len(forms) == 1


def flaps_from_restart(scope, coloring, partition, comps):
    """_code_flaps by its definition: one full wl1 restart of the recolored
    scope, and per flap its sorted cells and the restart limited to it, cells
    renumbered as ends."""
    classes, _ = wl1_refine(scope, fresh=coloring, partition=partition)
    out = []
    for comp in comps:
        cells = sorted(classes[v] for v in comp)
        ends = {c: i for i, c in enumerate(cells, 1)}
        out.append((tuple(cells), {v: ends[classes[v]] for v in comp}))
    return out


def test_restarts_that_split_nothing_are_skipped_with_equal_results(monkeypatch):
    # when every individualized vertex is alone in its cell, _code_flaps
    # reads the flaps off the scope's partition: no refinement, no invariant
    # call, and the same codes and partitions as the full restart
    calls = []
    real = separator._code_flaps

    def recording(scope, coloring, partition, comps, stats):
        calls.append((scope, coloring, partition, comps))
        return real(scope, coloring, partition, comps, stats)

    monkeypatch.setattr(separator, "_code_flaps", recording)
    for seed in range(8):
        for g, r in ((gen_family("tree", n=30, seed=seed), 1),
                     (gen_family("tree", n=200, seed=seed), 1),
                     (gen_family("k_tree", n=20, k=2, seed=seed), 3),
                     (gen_family("random_gnp", n=12, p=0.3, seed=seed), 2),
                     (gen_family("balanced_tree", k=2 + seed % 2, depth=3), 1 + seed % 3),
                     (gen_family("cycle", n=8 + seed), 2)):
            for h in (g, colored_copy(g, seed)):
                try:
                    canon_separator(h, r, WL1)
                except OracleCapacityError:
                    pass  # a no-separator scope above the cap; earlier calls count
    for g in HUB_GRAPHS:
        for h in (g, colored_copy(g, g.n)):
            for r in (1, 2, 3):
                canon_separator(h, r, WL1)
    monkeypatch.undo()
    refine = invariant.wl1_refine
    skipped = 0
    for scope, coloring, partition, comps in calls:
        cells = list(partition.values())
        alone = all(cells.count(partition[v]) == 1 for v in coloring)
        stats = RunStats()
        refined = []

        def recording_refine(*args, **kwargs):
            refined.append(1)
            return refine(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(invariant, "wl1_refine", recording_refine)
            coded = real(scope, coloring, partition, comps, stats)
        assert coded == flaps_from_restart(scope, coloring, partition, comps)
        assert stats.invariant_calls == len(refined) == (0 if alone else 1)
        skipped += alone
    assert skipped >= 100 and len(calls) - skipped >= 100


def assert_relabeled_copy_gets_the_form(g, r, seed):
    """A relabeled copy of g gets g's form, and find_isomorphism maps g onto it."""
    h = apply_permutation(g, relabelings(g.n, 1, seed)[0])
    forms = {cg_dumps(apply_permutation(x, canon_separator(x, r, WL1))) for x in (g, h)}
    assert len(forms) == 1
    assert apply_permutation(g, find_isomorphism(g, h, r, WL1)) == h


def test_discrete_roots_above_the_oracle_cap_are_not_refused():
    # a root whose stable wl1 partition is discrete is a leaf, ordered by
    # its classes, so no separator search reaches a fallback above the cap
    discrete = 0
    for n, p, r in ((14, 0.25, 2), (20, 0.3, 3)):
        for seed in range(1, 41):
            g = gen_family("random_gnp", n=n, p=p, seed=seed)
            classes, _ = wl1_refine(g)
            if len(set(classes.values())) < g.n:
                continue
            stats = RunStats()
            canon_separator(g, r, WL1, stats=stats)
            assert not stats.had_fallback
            assert_relabeled_copy_gets_the_form(g, r, seed)
            discrete += 1
    assert discrete >= 70


def subdivided(g):
    """g with every edge {u, v} replaced by a path u, w, v through a new vertex
    w, numbered after g's vertices in edge order."""
    edges = []
    for w, (u, v) in enumerate(sorted(g.edges), g.n + 1):
        edges += [(u, w), (w, v)]
    return ColoredGraph(g.n + len(g.edges), edges)


def joined_copies(g):
    """Two disjoint copies of g, the second shifted by n, and the edge {1, n + 1}."""
    shifted = [(u + g.n, v + g.n) for u, v in g.edges]
    return ColoredGraph(2 * g.n, [*g.edges, *shifted, (1, g.n + 1)])


def test_bounded_treewidth_classes_canonize_at_logarithmic_depth():
    # the paper's classes at r = k + 1: trees, 2-trees, 3-trees and partial
    # 2- and 3-trees. Twin-class leaves stop most k-trees at the root, so
    # subdivided 2-trees and pairs of k-trees joined by one edge, whose
    # treewidth is still k, check the bound on inputs that recurse
    start = time.perf_counter()
    cases = [(gen_family(family, n=n, k=k, seed=seed), r, seed)
             for family, n, k, r in (("tree", 500, None, 1), ("k_tree", 120, 2, 3),
                                     ("k_tree", 60, 3, 4), ("partial_k_tree", 120, 2, 3),
                                     ("partial_k_tree", 60, 3, 4))
             for seed in (1, 2, 3)]
    for seed in (1, 2, 3):
        cases += [(subdivided(gen_family("k_tree", n=40, k=2, seed=seed)), 3, seed),
                  (joined_copies(gen_family("k_tree", n=60, k=2, seed=seed)), 3, seed),
                  (joined_copies(gen_family("k_tree", n=30, k=3, seed=seed)), 4, seed)]
    deep = 0
    for g, r, seed in cases:
        stats = RunStats()
        canon_separator(g, r, WL1, stats=stats)
        assert not stats.had_fallback
        assert stats.max_depth <= math.ceil(math.log2(g.n / r)) + 1
        deep += stats.max_depth > 1
        assert_relabeled_copy_gets_the_form(g, r, seed)
    assert deep >= 12  # the trees and every subdivided or joined input
    assert time.perf_counter() - start < 10


def test_every_graph_up_to_five_vertices_gets_one_form_per_class():
    # the number of distinct forms of the labeled graphs on n vertices is the
    # number of their isomorphism classes, under wl1 and bf at r = 1, 2, 3
    for backend in (WL1, BF):
        for r in (1, 2, 3):
            forms = {}
            for g in every_labeled_graph(5):
                forms.setdefault(g.n, set()).add(
                    encode(apply_permutation(g, canon_separator(g, r, backend))))
            assert [len(forms[n]) for n in range(6)] == [1, 1, 2, 4, 11, 34], (backend, r)


def complete_multipartite(*parts):
    """The complete multipartite graph with parts of the given orders."""
    ends = list(itertools.accumulate(parts))
    part = {v: sum(v > end for end in ends) for v in range(1, ends[-1] + 1)}
    return ColoredGraph(ends[-1], [(u, v) for u, v in itertools.combinations(part, 2)
                                   if part[u] != part[v]])


def with_twins(g, seed):
    """g with a twin copy added for about a third of its vertices: a copy with
    the same neighbors, or, by a coin, with the same closed neighbors."""
    rng = Lcg64(seed)
    edges, n = list(g.edges), g.n
    for v in g.vertices:
        if rng.chance(1 / 3):
            n += 1
            edges += [(u, n) for u in g.neighbors(v)]
            if rng.chance(0.5):
                edges.append((v, n))
    return ColoredGraph(n, edges)


def test_twin_rich_graphs_above_the_oracle_cap_get_one_form():
    # complete multipartite graphs with parts of distinct orders are one
    # leaf; G(n, p) with twin copies added has leaves of twin classes below
    # the root. Each relabeled copy gets the graph's form, and
    # find_isomorphism maps the graph onto it
    graphs = [complete_multipartite(*parts) for parts in ((2, 3, 4, 5), (1, 4, 7), (3, 9))]
    graphs += [complete_multipartite(5, 7), complete_multipartite(1, 11)]  # K_{a,b}
    for seed in range(1, 9):
        g = with_twins(gen_family("random_gnp", n=10 + seed, p=0.25, seed=seed), seed)
        graphs += [g, colored_copy(g, seed)]
    checked = 0
    for g in graphs:
        assert g.n > 10
        for r in (1, 2, 3):
            try:
                assert_relabeled_copy_gets_the_form(g, r, g.n + r)
            except OracleCapacityError:
                continue  # a scope with a cell of non-twins and no separator
            checked += 1
    assert checked >= 40
    k33 = ColoredGraph(6, K33_EDGES)
    prism = ColoredGraph(6, [(u - 6, v - 6) for u, v in PRISM_EDGES])
    for r in (1, 2, 3):
        assert find_isomorphism(k33, prism, r, WL1) is None


def test_flaps_of_equal_code_are_both_leaves_of_twin_classes_or_neither(monkeypatch):
    # flaps of equal codes fill the same cells of one equitable partition,
    # so one has only twin classes exactly when the other does: leaf and
    # branch certificates are never compared
    decomposed, coded = [], []
    real_flaps, real_code = separator.decompose_flaps, separator._code_flaps

    def recording_flaps(scope, sequence, depth, run):
        flaps = real_flaps(scope, sequence, depth, run)
        decomposed.append((flaps, run.r))
        return flaps

    def recording_code(*args):
        coded.append(real_code(*args))
        return coded[-1]

    monkeypatch.setattr(separator, "decompose_flaps", recording_flaps)
    monkeypatch.setattr(separator, "_code_flaps", recording_code)
    graphs = [(g, r) for g in HUB_GRAPHS for r in (1, 2)]
    graphs += [(hub_graph(gadget, gadget, gadget), 1) for gadget in GADGETS]
    graphs += [(gen_family("balanced_tree", k=b, depth=d), r)
               for b, d in ((2, 5), (3, 4)) for r in (1, 2)]
    for seed in range(1, 9):
        graphs += [(with_twins(gen_family("tree", n=30, seed=seed), seed), 1),
                   (with_twins(gen_family("k_tree", n=16, k=2, seed=seed), seed), 3)]
    for g, r in graphs:
        for h in (g, colored_copy(g, g.n)):
            try:
                canon_separator(h, r, WL1)
            except OracleCapacityError:
                pass  # a no-separator scope above the cap; earlier flaps count
    monkeypatch.undo()
    assert len(decomposed) == len(coded)
    kinds = Counter()  # pairs of flaps above r, by whether they are leaves
    for (flaps, r), codes in zip(decomposed, coded):
        for (a, (code_a, classes_a)), (b, (code_b, classes_b)) in itertools.combinations(
            zip(flaps, codes), 2
        ):
            if code_a == code_b:
                leaf_a = separator._class_leaf(classes_a, a.color_set, a.neighbors) is not None
                leaf_b = separator._class_leaf(classes_b, b.color_set, b.neighbors) is not None
                assert leaf_a == leaf_b
                if a.n > r:
                    kinds[leaf_a] += 1
    assert kinds[True] >= 50 and kinds[False] >= 50


def test_a_scope_with_one_cell_of_non_twins_branches():
    # a hub over three twin leaves is one leaf; with a P4 joined at its
    # middle added, the P4's middles form a cell that is not a twin class,
    # so the root searches for a separator and its flaps recurse
    star = hub_graph(*[(1, [], (1,))] * 3)
    both = hub_graph(*[(1, [], (1,))] * 3, GADGETS[0], GADGETS[0])
    for g, leaf in ((star, True), (both, False)):
        classes, _ = wl1_refine(g)
        assert (separator._class_leaf(classes, g.color_set, g.neighbors) is not None) == leaf
        assert twin_classes_only(g, classes) == leaf
        stats = RunStats()
        canon_separator(g, 1, WL1, stats=stats)
        assert (stats.max_depth == 1) == leaf


def eager_rank(scope, depth, run, partition):
    """A scope's order, its certificate and the certificates the separator
    defers in it, by the separator rule with every certificate built where it
    is made: flaps sorted by (code, certificate) and the first least
    certificate of the tie class kept. A twin-class leaf defers its own
    certificate, and a branch that of each tied candidate, in tie-class
    order. A reference for the deferred certificates."""
    if scope.n <= run.r:
        return (*separator._least_record(partition, scope.color_set, scope.neighbors), [])
    if twin_classes_only(scope, partition):
        order = sorted(scope.vertices, key=lambda v: (partition[v], v))
        at = {v: i for i, v in enumerate(order)}
        edges = sorted((at[u], at[v]) for u in order for v in scope.neighbors(u) if at[u] < at[v])
        cert = tuple(tuple(sorted(scope.color_set(v))) for v in order), tuple(edges)
        return order, cert, [cert]
    base = run.color_base + (depth - 1) * run.block_width
    sequences = mark_separating_sequences(scope, run.r, partition)
    if not sequences:
        code, labeling = mincode.minimum_encoding(scope.with_extra_colors({}))
        return [scope.vertices[u - 1] for u in labeling.inverse()], ((), code), []
    stats, candidates = RunStats(), []
    for chosen in next(run.backend.order(scope, [sequences], base, partition, stats)):
        flaps = decompose_flaps(scope, chosen, depth, run)
        coded = separator._code_flaps(scope, _individualized(chosen, base), partition,
                                      [flap.vertices for flap in flaps], stats)
        ranked = []
        for flap, (code, classes) in zip(flaps, coded):
            order, cert, _ = eager_rank(flap, depth + 1, run, classes)
            ranked.append(((code, cert), order))
        ranked.sort(key=lambda item: item[0])
        cert = (separator._record(chosen, scope.color_set, scope.neighbors),
                *(key for key, _ in ranked))
        candidates.append(([*chosen, *(v for _, order in ranked for v in order)], cert))
    order, cert = min(candidates, key=lambda item: item[1])
    return order, cert, [cert for _, cert in candidates]


def test_certificates_are_built_only_where_two_are_compared(monkeypatch):
    # twin-class leaves and branches defer their certificates: a discrete
    # root builds none, a tree builds fewer than it has leaves of twin
    # classes, and iso builds both roots'. Each scope ranked is counted in
    # scopes_ranked, each certificate built in certificates_built, and every
    # certificate built and every order equals the eager reference's
    ranking, ranked, built, leaves = [], [], [], []
    real_rank, real_deferred, real_leaf = (separator._rank_scope, separator._deferred,
                                           separator._class_leaf)

    def recording_rank(scope, depth, run, stats, partition):
        ranking.append(((scope, depth, run, partition), itertools.count()))
        order, cert = real_rank(scope, depth, run, stats, partition)
        ranking.pop()
        ranked.append((scope, depth, run, partition, order))
        return order, cert

    def recording_deferred(build, stats):
        # the scope being ranked, and the index of this certificate in it
        key, index = ranking[-1]
        key = (*key, next(index))

        def logged():
            built.append((*key, build()))
            return built[-1][-1]

        return real_deferred(logged, stats)

    def recording_leaf(*args):
        leaf = real_leaf(*args)
        leaves.append(leaf is not None)
        return leaf

    monkeypatch.setattr(separator, "_rank_scope", recording_rank)
    monkeypatch.setattr(separator, "_deferred", recording_deferred)
    monkeypatch.setattr(separator, "_class_leaf", recording_leaf)

    def check(stats):
        # every certificate built, and every order, against the reference
        assert stats.scopes_ranked == len(ranked)
        assert stats.certificates_built == len(built)
        assert len({(id(scope), index) for scope, *_, index, _ in built}) == len(built)
        reference = {}
        for scope, depth, run, partition, *_ in ranked:
            reference[scope] = eager_rank(scope, depth, run, partition)
        for scope, *_, index, cert in built:
            assert cert == reference[scope][2][index]
        for scope, *_, order in ranked:
            assert order == reference[scope][0]

    def canon(g, r):
        ranked.clear()
        built.clear()
        leaves.clear()
        stats = RunStats()
        canon_separator(g, r, WL1, stats=stats)
        check(stats)
        return stats

    discrete = stacked_triangulation(60, 1)
    assert len(set(wl1_refine(discrete)[0].values())) == discrete.n
    assert canon(discrete, 4).certificates_built == 0
    tree = gen_family("tree", n=200, seed=1)
    assert 0 < canon(tree, 1).certificates_built < sum(leaves)
    checked = 0
    for g, r in ((prism(6), 4), (antiprism(6), 4), *((h, r) for h in HUB_GRAPHS for r in (1, 2))):
        canon(g, r)
        checked += len(built)
    assert checked > 100

    for g, r in ((tree, 1), (prism(6), 4)):
        h = apply_permutation(g, relabelings(g.n, 1, seed=g.n)[0])
        ranked.clear()
        built.clear()
        stats = RunStats()
        assert apply_permutation(g, find_isomorphism(g, h, r, WL1, stats=stats)) == h
        check(stats)
        roots = [scope for scope, depth, *_ in built if depth == 1]
        assert g in roots and h in roots


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
        # regular pairs of one order and degree: wl1 gives both roots one
        # code, so the root certificates decide; a relabeled copy of each
        # graph still gets a verified mapping
        ring = [(i, i % 8 + 1) for i in range(1, 9)]
        pairs = [
            (c6, two_triangles),
            (
                ColoredGraph(8, ring),
                ColoredGraph(8, [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (7, 8), (5, 8)]),
            ),
            (
                ColoredGraph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]),
                ColoredGraph(6, [*two_triangles.edges, (1, 4), (2, 5), (3, 6)]),
            ),
            (
                gen_family("platonic", name="cube"),
                ColoredGraph(8, ring + [(i, i + 4) for i in range(1, 5)]),
            ),
        ]
        for g, h in pairs:
            assert wl1_refine(g)[1] == wl1_refine(h)[1]
            for backend, r in itertools.product((WL1, BF), (1, 2)):
                stats = RunStats()
                assert find_isomorphism(g, h, r, backend, stats=stats) is None
                assert stats.invariant_calls > 0
                assert INVARIANT_FAILURE not in [d.kind for d in stats.diagnostics]
                for x in (g, h):
                    image = apply_permutation(x, relabelings(x.n, 1, seed=x.n)[0])
                    mapping = find_isomorphism(x, image, r, backend)
                    assert apply_permutation(x, mapping) == image

    def test_bad_r_refused_before_any_early_answer(self, p3, k3, k4):
        # P3 and K3 differ in their root wl1 codes, and P3 and K4 in their
        # orders, but r = 0 is refused first
        for backend in (WL1, BF):
            for other in (k3, k4):
                with pytest.raises(ContractViolationError):
                    find_isomorphism(p3, other, 0, backend)
            assert find_isomorphism(p3, k4, 1, backend) is None

    @pytest.mark.parametrize("backend", [WL1, BF], ids=["wl1", "bf"])
    def test_wl1_reject_answers_above_the_oracle_cap(self, backend, monkeypatch, tmp_path):
        # C11 has no twins and no separating 1-sequence and is above the cap,
        # so ranking it would raise OracleCapacityError; its root wl1 code
        # differs from C11 minus an edge, which decides the pair before any
        # scope is ranked
        c11 = gen_family("cycle", n=11)
        minus = ColoredGraph(11, [e for e in c11.edges if e != (1, 2)])

        def refuse(*args):
            raise AssertionError("a scope was ranked")

        with monkeypatch.context() as patch:
            patch.setattr(separator, "_rank_scope", refuse)
            stats = RunStats()
            assert find_isomorphism(c11, minus, 1, backend, stats=stats) is None
        assert (stats.invariant_calls, stats.diagnostics, stats.max_depth) == (0, [], 0)
        with pytest.raises(OracleCapacityError):
            find_isomorphism(c11, c11, 1, backend)
        a, b = tmp_path / "c11.cg", tmp_path / "minus.cg"
        a.write_text(cg_dumps(c11))
        b.write_text(cg_dumps(minus))
        name = "wl1" if backend is WL1 else "bf"
        proc = run_cli("iso", str(a), str(b), "--invariant", name, "--r", "1")
        assert proc.returncode == 1
        assert proc.stdout == b"non-isomorphic\n"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_polyhedral_graphs_above_the_oracle_cap(self, seed):
        # the paper's embedded class at r = 4: a relabeled prism, antiprism
        # and stacked triangulation get a verified mapping, and the prism
        # against a Moebius ladder gets None. Both are 3-regular on 12
        # vertices, so wl1 gives them one code and the root certificates
        # decide. The prisms have tied candidates and flaps of equal code
        for g in (prism(6), antiprism(6), stacked_triangulation(60, seed)):
            h = apply_permutation(g, relabelings(g.n, 1, seed)[0])
            assert apply_permutation(g, find_isomorphism(g, h, 4, WL1)) == h
        ladder = apply_permutation(mobius_ladder(6), relabelings(12, 1, seed)[0])
        assert wl1_refine(prism(6))[1] == wl1_refine(ladder)[1]
        stats = RunStats()
        assert find_isomorphism(prism(6), ladder, 4, WL1, stats=stats) is None
        assert stats.certificates_built >= 2 and not stats.diagnostics

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


@pytest.mark.parametrize("backend,largest", [(WL1, 9), (BF, 9), (WLK2, 7)],
                         ids=["wl1", "bf", "wlk2"])
def test_forms_canonical_on_seeded_small_graphs(backend, largest):
    # seeded partial k-trees and G(n, p) with n <= 9 (n <= 7 under the
    # slower wlk:2): one form over four relabelings, and equal forms exactly
    # where the oracle finds an isomorphism
    graphs = [
        gen_family("partial_k_tree", n=5 + s % 5, k=1 + s % 3, seed=1600 + s) for s in range(20)
    ] + [
        gen_family("random_gnp", n=5 + s % 5, p=0.2 + 0.1 * (s % 4), seed=1700 + s)
        for s in range(20)
    ]
    graphs = [g for g in graphs if g.n <= largest]
    for r in (1, 2, 3):
        forms = []
        for i, g in enumerate(graphs):
            copies = [apply_permutation(g, lab) for lab in relabelings(g.n, 4, seed=i)]
            seen = {encode(apply_permutation(h, canon_separator(h, r, backend))) for h in copies}
            assert len(seen) == 1
            forms.append(seen.pop())
        for (g, a), (h, b) in itertools.combinations(zip(graphs, forms), 2):
            assert (a == b) == (are_isomorphic_bf(g, h) is not None)


def test_graphs_of_at_most_r_vertices_get_one_form_under_every_backend():
    # such a graph is one scope, its own separator: it takes the least record
    # over its orderings of least key, and no backend is asked, so every
    # labeled graph with n <= 5 gets one form at r = 5, as does a relabeled copy
    graphs = 0
    for g in every_labeled_graph(5):
        h = apply_permutation(g, relabelings(g.n, 1, seed=graphs)[0])
        forms = {
            encode(apply_permutation(x, canon_separator(x, 5, backend)))
            for x in (g, h)
            for backend in (WL1, WLK2, BF)
        }
        assert len(forms) == 1, g.edges
        graphs += 1
    assert graphs == 1 + 1 + 2 + 8 + 64 + 1024


@pytest.mark.parametrize("base", [Wl1Backend, BruteForceBackend], ids=["wl1", "bf"])
def test_backend_ranks_only_scopes_above_r(monkeypatch, base):
    # leaves are reached, and the backend is asked only for larger scopes
    asked, leaves = [], []

    class Recording(base):
        def order(self, scope, *args):
            asked.append(scope.n)
            return super().order(scope, *args)

    real = separator._least_record

    def recording(classes, *args):
        leaves.append(len(classes))
        return real(classes, *args)

    monkeypatch.setattr(separator, "_least_record", recording)
    # inputs with no twin class, so their scopes above r are not leaves,
    # and whose flaps of at most r vertices take their least record
    cases = [(hub_graph(GADGETS[0], GADGETS[0]), 1)]
    cases += [(g, r) for g in HUB_GRAPHS for r in (2, 3)]
    cases += [(gen_family("cycle", n=n), 3) for n in range(5, 11)]
    cases += [(gen_family("cycle", n=n), 2) for n in (5, 6, 7)]
    for g, r in cases:
        asked.clear()
        leaves.clear()
        canon_separator(g, r, Recording())
        assert asked and leaves
        assert min(asked) > r >= max(leaves)


def test_capped_bf_ranks_a_graph_of_at_most_r_vertices():
    c4 = gen_family("cycle", n=4)
    capped = BruteForceBackend(cap=3)
    assert canon_separator(c4, 4, capped) == canon_separator(c4, 4, BF)
    with pytest.raises(OracleCapacityError):
        canon_separator(c4, 2, capped)
