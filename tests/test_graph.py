import itertools
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcanon import (
    ColoredGraph,
    InvalidGraphError,
    InvalidLabelingError,
    Labeling,
    Lcg64,
    OracleCapacityError,
    apply_permutation,
    are_isomorphic_bf,
    encode,
    gen_family,
    parallel_map,
)
from graphcanon.graph import View

from .conftest import complete_graph, path_graph


def small_colored_graphs(max_n=6):
    """Strategy for random colored graphs with up to max_n vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, keep in zip(pairs, mask) if keep]
        colors = draw(
            st.dictionaries(
                st.integers(min_value=1, max_value=n),
                st.sets(st.integers(min_value=0, max_value=9), max_size=3),
                max_size=n,
            )
        )
        return ColoredGraph(n, edges, colors)

    return build()


def permutations_of(n):
    return st.permutations(list(range(1, n + 1)))


def seeded_small_graphs():
    """32 seeded graphs with n <= 8: trees, partial 2-trees and G(n, 0.35),
    plus precolored copies of the first eight."""
    graphs = []
    for seed in range(8):
        n = 3 + seed % 6
        graphs.append(gen_family("tree", n=n, seed=seed))
        graphs.append(gen_family("partial_k_tree", n=max(n, 4), k=2, seed=seed))
        graphs.append(gen_family("random_gnp", n=n, p=0.35, seed=seed))
    for g in graphs[:8]:
        colors = {v: {v % 3, 7} if v % 2 else {v % 3} for v in g.vertices if v != 2}
        graphs.append(ColoredGraph(g.n, g.edges, colors))
    return graphs


def small_vertex_sets(graph, max_size=2):
    """Every set of at most max_size vertices, as sorted tuples."""
    for k in range(max_size + 1):
        yield from itertools.combinations(graph.vertices, k)


def components_by_induction(graph, removed):
    """Components of graph minus `removed`, found on the induced subgraph of the
    rest and mapped back to the graph's vertices."""
    sub, origin = graph.induced_subgraph(v for v in graph.vertices if v not in removed)
    return sorted(
        (frozenset(origin[v] for v in comp) for comp in sub.components()), key=min
    )


class TestConstruction:
    def test_rejects_loop(self):
        with pytest.raises(InvalidGraphError):
            ColoredGraph(2, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InvalidGraphError):
            ColoredGraph(2, [(1, 3)])

    def test_rejects_negative_color(self):
        with pytest.raises(InvalidGraphError):
            ColoredGraph(1, [], {1: {-1}})

    def test_adjacency_is_symmetric(self):
        g = ColoredGraph(3, [(2, 1), (2, 3)])
        assert g.neighbors(1) == frozenset({2})
        assert g.neighbors(2) == frozenset({1, 3})
        assert g.has_edge(1, 2) and g.has_edge(2, 1)

    def test_large_colors_allowed(self):
        g = ColoredGraph(2, [(1, 2)], {1: {10**6}})
        assert g.color_set(1) == frozenset({10**6})


class TestApplyPermutation:
    def test_identity_on_single_vertex(self):
        g = ColoredGraph(1)
        assert apply_permutation(g, Labeling.identity(1)) == g

    def test_p3_reversal_is_automorphism(self, p3):
        rev = Labeling([3, 2, 1])
        assert apply_permutation(p3, rev) == p3

    def test_colored_p3_reversal_moves_color(self):
        g = ColoredGraph(3, [(1, 2), (2, 3)], {1: {5}})
        h = apply_permutation(g, Labeling([3, 2, 1]))
        assert h == ColoredGraph(3, [(1, 2), (2, 3)], {3: {5}})

    def test_rejects_non_bijection(self, p3):
        with pytest.raises(InvalidLabelingError):
            Labeling([1, 1, 3])
        with pytest.raises(InvalidLabelingError):
            apply_permutation(p3, Labeling.identity(2))

    @settings(max_examples=150)
    @given(data=st.data(), g=small_colored_graphs())
    def test_round_trip(self, data, g):
        perm = data.draw(permutations_of(g.n))
        sigma = Labeling(perm)
        assert apply_permutation(apply_permutation(g, sigma), sigma.inverse()) == g

    def test_image_equals_the_checked_construction(self):
        # the image is built from parts, unchecked; every part equals the one
        # ColoredGraph builds from the mapped edges and colors, n = 0 and 1 too
        graphs = [ColoredGraph(0), ColoredGraph(1), ColoredGraph(1, [], {1: {0, 4}})]
        graphs += seeded_small_graphs() + [gen_family("tree", n=60, seed=2)]
        for i, g in enumerate(graphs):
            perm = list(range(1, g.n + 1))
            Lcg64(i).shuffle(perm)
            m = (0, *perm)
            checked = ColoredGraph(g.n, [(m[u], m[v]) for u, v in g.edges],
                                   {m[v]: cs for v, cs in g.colors.items()})
            image = apply_permutation(g, Labeling(perm))
            assert image == checked and hash(image) == hash(checked)
            assert (image.edges, image.colors) == (checked.edges, checked.colors)
            assert list(image._adj.items()) == list(checked._adj.items())


class TestBruteForceIsomorphism:
    def test_k3_self_identity(self, k3):
        assert are_isomorphic_bf(k3, k3) == Labeling.identity(3)

    def test_p3_vs_k3(self, p3, k3):
        assert are_isomorphic_bf(p3, k3) is None

    def test_colored_endpoint_vs_midpoint(self):
        endpoint = ColoredGraph(3, [(1, 2), (2, 3)], {1: {1}})
        midpoint = ColoredGraph(3, [(1, 2), (2, 3)], {2: {1}})
        # independent oracle: exhaust all six bijections by hand
        found = []
        for perm in itertools.permutations([1, 2, 3]):
            sigma = Labeling(perm)
            if apply_permutation(endpoint, sigma) == midpoint:
                found.append(perm)
        assert not found
        assert are_isomorphic_bf(endpoint, midpoint) is None

    def test_cap_enforced(self):
        g = ColoredGraph(11)
        with pytest.raises(OracleCapacityError):
            are_isomorphic_bf(g, g)

    def test_size_mismatch_immediate(self):
        assert are_isomorphic_bf(ColoredGraph(12), ColoredGraph(13)) is None

    @settings(max_examples=100)
    @given(data=st.data(), g=small_colored_graphs(max_n=5))
    def test_self_isomorphism_closure(self, data, g):
        perm = data.draw(permutations_of(g.n))
        h = apply_permutation(g, Labeling(perm))
        found = are_isomorphic_bf(g, h)
        assert found is not None
        assert encode(apply_permutation(g, found)) == encode(h)


class TestEncode:
    def test_color_changes_code(self):
        bare = ColoredGraph(1)
        colored = ColoredGraph(1, [], {1: {0}})
        assert encode(bare) != encode(colored)

    def test_identity_image_equal(self, k4):
        assert encode(k4) == encode(apply_permutation(k4, Labeling.identity(4)))

    def test_p3_reversal_same_labeled_object(self, p3):
        assert encode(apply_permutation(p3, Labeling([3, 2, 1]))) == encode(p3)

    def test_injective_on_generated_corpus(self):
        # every labeled graph on 3 vertices, with and without a color decoration
        corpus = []
        for mask in range(8):
            pairs = [(1, 2), (1, 3), (2, 3)]
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            corpus.append(ColoredGraph(3, edges))
            corpus.append(ColoredGraph(3, edges, {1: {2}}))
            corpus.append(ColoredGraph(3, edges, {2: {2}}))
            corpus.append(ColoredGraph(3, edges, {2: {2, 7}}))
        codes = [encode(g) for g in corpus]
        assert len(set(codes)) == len(set(corpus))

    @settings(max_examples=100)
    @given(g=small_colored_graphs(), h=small_colored_graphs())
    def test_injective_pairwise(self, g, h):
        assert (encode(g) == encode(h)) == (g == h)

    def test_injective_exhaustive_n_up_to_5(self):
        from graphcanon import gen_family

        corpus = set()
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for mask in range(2 ** len(pairs)):
                edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
                corpus.add(ColoredGraph(n, edges))
                corpus.add(ColoredGraph(n, edges, {1: {3}}))
        for seed in range(40):
            corpus.add(gen_family("random_gnp", n=5, p=0.5, seed=seed))
            corpus.add(
                gen_family("random_gnp", n=5, p=0.5, seed=seed).with_extra_colors(
                    {1 + seed % 5: [seed % 3]}
                )
            )
        corpus = list(corpus)
        codes = [encode(g) for g in corpus]
        assert len(set(codes)) == len(corpus)


class TestCanonicalCodeOrder:
    def test_length_first(self):
        from graphcanon import CanonicalCode

        assert CanonicalCode(b"zz") < CanonicalCode(b"aaa")
        assert CanonicalCode(b"ab") < CanonicalCode(b"ac")
        assert CanonicalCode(b"ab") == CanonicalCode(b"ab")

    def test_sortable_and_hashable(self):
        from graphcanon import CanonicalCode

        codes = [CanonicalCode(b"b"), CanonicalCode(b"aa"), CanonicalCode(b"a")]
        assert sorted(codes) == [CanonicalCode(b"a"), CanonicalCode(b"b"), CanonicalCode(b"aa")]
        assert len({CanonicalCode(b"x"), CanonicalCode(b"x")}) == 1


class TestLabeling:
    def test_compose_and_inverse(self):
        a = Labeling([2, 3, 1])
        b = Labeling([3, 1, 2])
        assert a.compose(b) == Labeling([a[b[v]] for v in (1, 2, 3)])
        assert a.compose(a.inverse()) == Labeling.identity(3)

    def test_from_position_order(self):
        lab = Labeling.from_position_order([2, 1, 3])
        assert lab[2] == 1 and lab[1] == 2 and lab[3] == 3


class TestSubgraph:
    def test_induced_subgraph_renumbers_and_records_origin(self):
        g = ColoredGraph(5, [(1, 3), (3, 5), (2, 4)], {3: {9}})
        sub, origin = g.induced_subgraph([1, 3, 5])
        assert sub == ColoredGraph(3, [(1, 2), (2, 3)], {2: {9}})
        assert origin == {1: 1, 2: 3, 3: 5}

    def test_induced_subgraph_rejects_foreign_vertices(self):
        g = ColoredGraph(3, [(1, 2), (2, 3)])
        for vertices in ([1, 99], [0, 2, 3], [-1]):
            with pytest.raises(InvalidGraphError):
                g.induced_subgraph(vertices)
        assert g.induced_subgraph([])[0] == ColoredGraph(0)

    def test_induced_subgraph_with_extra_colors_equals_recolor_then_induce(self):
        for g in seeded_small_graphs():
            extra = {v: [v % 3, 7] for v in g.vertices if v % 2}
            for removed in small_vertex_sets(g):
                kept = [v for v in g.vertices if v not in removed]
                expected = g.with_extra_colors(extra).induced_subgraph(kept)
                assert g.induced_subgraph(kept, extra) == expected

    def test_induced_subgraph_rejects_negative_extra_color(self, p3):
        with pytest.raises(InvalidGraphError):
            p3.induced_subgraph([1, 2], {2: [-1]})
        assert p3.induced_subgraph([1], {2: [-1]})[0] == ColoredGraph(1)  # not kept

    def test_components(self, two_triangles):
        comps = two_triangles.components()
        assert comps == [frozenset({1, 2, 3}), frozenset({4, 5, 6})]
        assert not two_triangles.is_connected()
        assert complete_graph(4).is_connected()
        assert path_graph(1).is_connected()

    def test_components_minus_removed_match_induced_subgraph(self):
        for g in seeded_small_graphs():
            for removed in small_vertex_sets(g):
                assert g.components(removed) == components_by_induction(g, removed)

    def test_largest_components_without_matches_component_walks(self):
        graphs = seeded_small_graphs() + [ColoredGraph(0), ColoredGraph(3, [(1, 2)])]
        for g in graphs:
            for removed in small_vertex_sets(g):
                largest = g.largest_components_without(removed)
                assert len(largest) == g.n + 1
                for v in g.vertices:
                    walked = g.components(set(removed) | {v})
                    assert largest[v] == max(map(len, walked), default=0)


class TestRecoloring:
    def test_shares_edges_and_adjacency(self):
        for g in seeded_small_graphs():
            h = g.with_extra_colors({1: [40], g.n: [41, 42]})
            assert h.edges is g.edges
            assert all(h.neighbors(v) is g.neighbors(v) for v in g.vertices)

    def test_equals_and_hashes_as_the_rebuilt_graph(self):
        for g in seeded_small_graphs():
            extra = {v: {v % 4, 9} for v in g.vertices if v % 3 != 1}
            merged = {v: g.color_set(v) | extra.get(v, set()) for v in g.vertices}
            rebuilt = ColoredGraph(g.n, g.edges, merged)
            h = g.with_extra_colors(extra)
            assert h == rebuilt and hash(h) == hash(rebuilt)
            assert encode(h) == encode(rebuilt)

    def test_empty_extra_colors_change_nothing(self):
        g = ColoredGraph(3, [(1, 2)], {2: {5}})
        assert g.with_extra_colors({3: []}) == g

    def test_rejects_negative_color(self, p3):
        with pytest.raises(InvalidGraphError):
            p3.with_extra_colors({2: [-1]})

    def test_rejects_vertex_outside_range(self, p3):
        for v in (0, 4, 9):
            with pytest.raises(InvalidGraphError):
                p3.with_extra_colors({v: [1]})


def adjacency_bits(graph, sequence):
    """v -> sum of 2^i over the positions i of the sequence adjacent to v."""
    bits = {}
    for i, s in enumerate(sequence):
        for v in graph.neighbors(s):
            bits[v] = bits.get(v, 0) | 1 << i
    return bits


class TestView:
    def test_reads_as_the_graph_induced_subgraph_builds(self):
        # a view of a view of the root equals the flap built in two steps,
        # and its searches give the built graph's answers in root ids
        checked = 0
        for g in seeded_small_graphs():
            for removed in small_vertex_sets(g, 1):
                bits = adjacency_bits(g, removed)
                for comp in g.components(removed):
                    view = View(g, comp, frozenset(removed), (20, bits))
                    flap, origin = g.induced_subgraph(
                        comp, {v: [20 + bits.get(v, 0)] for v in comp}
                    )
                    inner = (view.vertices[0],)
                    inner_bits = adjacency_bits(view, inner)
                    for part in view.components(inner):
                        deeper = View(view, part, frozenset(inner), (30, inner_bits))
                        local = {v: u for u, v in origin.items()}
                        graph, back = flap.induced_subgraph(
                            [local[v] for v in part],
                            {local[v]: [30 + inner_bits.get(v, 0)] for v in part},
                        )
                        ids = [origin[back[u]] for u in graph.vertices]
                        assert deeper.vertices == ids == sorted(part)
                        assert deeper.with_extra_colors({}) == graph
                        for u, v in enumerate(ids, 1):
                            assert deeper.color_set(v) == graph.color_set(u)
                            assert deeper.neighbors(v) == {ids[w - 1] for w in graph.neighbors(u)}
                        largest = deeper.largest_components_without()
                        assert [largest[v] for v in ids] == graph.largest_components_without()[1:]
                        assert deeper.components() == [
                            frozenset(ids[u - 1] for u in c) for c in graph.components()
                        ]
                        checked += 1
        assert checked > 100

    def test_builds_its_graph_once_and_recolors_by_root_ids(self):
        g = ColoredGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)], {4: {2}})
        view = View(g, {3, 4, 5}, frozenset({2}), (10, {1: 1, 3: 1}))
        first = view.with_extra_colors({5: [40]})
        # 3, 4, 5 are 1, 2, 3; 3 is adjacent to the removed 2
        assert [first.color_set(u) for u in first.vertices] == [{11}, {2, 10}, {10, 40}]
        assert first.edges == frozenset({(1, 2), (2, 3)})
        assert view.with_extra_colors({}).edges is first.edges


class TestParallelMap:
    def test_order_kept_and_calls_run_on_the_calling_thread(self):
        out = parallel_map(lambda x: (x, threading.get_ident()), range(8), workers=4)
        assert [x for x, _ in out] == list(range(8))
        assert {ident for _, ident in out} == {threading.get_ident()}
