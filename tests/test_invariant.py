import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcanon import (
    BackendCapacityError,
    BruteForceBackend,
    ColoredGraph,
    Labeling,
    OracleCapacityError,
    Wl1Backend,
    apply_permutation,
    are_isomorphic_bf,
    backend_from_selector,
    bf_invariant,
    canon_rigidity,
    canon_separator,
    cg_dumps,
    encode,
    encoded_length,
    gen_family,
    minimum_encoding,
    orbits,
    wl1_refine,
    wlk_refine,
)
from graphcanon.invariant import sequence_keys
from graphcanon.parallel import RunStats

from .conftest import complete_graph, path_graph
from .test_graph import permutations_of, small_colored_graphs


def partition_of(coloring):
    classes = {}
    for v, c in coloring.items():
        classes.setdefault(c, set()).add(v)
    return {frozenset(m) for m in classes.values()}


def refines(fine, coarse):
    return all(any(f <= c for c in coarse) for f in fine)


class TestWl1:
    def test_p3_two_classes_match_orbits(self, p3):
        coloring, _ = wl1_refine(p3)
        assert partition_of(coloring) == {frozenset({1, 3}), frozenset({2})}
        assert partition_of(coloring) == set(orbits(p3))

    def test_k3_single_class(self, k3):
        coloring, _ = wl1_refine(k3)
        assert partition_of(coloring) == {frozenset({1, 2, 3})}

    def test_c6_vs_two_triangles_collide(self, c6, two_triangles):
        # both 2-regular with equal initial colors: refinement stabilizes at
        # one class each, so WL-1 cannot tell them apart
        _, a = wl1_refine(c6)
        _, b = wl1_refine(two_triangles)
        assert a == b
        assert are_isomorphic_bf(c6, two_triangles) is None

    def test_initial_colors_enter_round_zero(self):
        a = ColoredGraph(2, [], {1: {0}, 2: {1}})
        b = ColoredGraph(2, [], {1: {0}, 2: {2}})
        _, ca = wl1_refine(a)
        _, cb = wl1_refine(b)
        assert ca != cb

    @settings(max_examples=80)
    @given(data=st.data(), g=small_colored_graphs())
    def test_label_invariance(self, data, g):
        perm = data.draw(permutations_of(g.n))
        h = apply_permutation(g, Labeling(perm))
        assert wl1_refine(g)[1] == wl1_refine(h)[1]

    def test_monotone_refinement(self):
        g = gen_family("tree", n=9, seed=3)
        parts = []
        for cap in range(0, 10):
            coloring, _ = wl1_refine(g, round_cap=cap)
            parts.append(partition_of(coloring))
        for fine, coarse in zip(parts[1:], parts):
            assert refines(fine, coarse)
        assert parts[-1] == parts[-2]

    def test_round_count_at_most_n(self):
        from graphcanon.parallel import RunStats

        g = path_graph(8)
        stats = RunStats()
        wl1_refine(g, stats=stats)
        assert stats.wl_rounds and stats.wl_rounds[0] <= g.n

    def test_orbit_soundness_small_corpus(self):
        # every stable class is a union of automorphism orbits
        graphs = [gen_family("random_gnp", n=6, p=0.4, seed=s) for s in range(6)]
        graphs += [gen_family("random_gnp", n=8, p=0.35, seed=s) for s in range(4)]
        graphs += [gen_family("tree", n=8, seed=s) for s in range(4)]
        for g in graphs:
            coloring, _ = wl1_refine(g)
            for orb in orbits(g):
                classes = {coloring[v] for v in orb}
                assert len(classes) == 1


class TestWlk:
    def test_requires_k_at_least_two(self, p3):
        with pytest.raises(ValueError):
            wlk_refine(p3, 1)

    def test_tuple_cap(self):
        with pytest.raises(BackendCapacityError):
            wlk_refine(complete_graph(8), 2, tuple_cap=10)

    def test_diagonal_refines_wl1(self):
        for seed in range(4):
            g = gen_family("random_gnp", n=6, p=0.5, seed=seed)
            wl1_classes, _ = wl1_refine(g)
            # recompute the 2-tuple stable partition directly
            from graphcanon.invariant import _renumber

            verts = list(g.vertices)
            pairs = [(i, j) for i in range(2) for j in range(i + 1, 2)]
            tuples = list(itertools.product(verts, repeat=2))
            sig = {
                t: (
                    tuple(1 if t[i] == t[j] else 0 for i, j in pairs),
                    tuple(1 if g.has_edge(t[i], t[j]) else 0 for i, j in pairs),
                    tuple(tuple(sorted(g.color_set(x))) for x in t),
                )
                for t in tuples
            }
            coloring, _ = _renumber(sig)
            while True:
                nxt = {
                    t: (
                        coloring[t],
                        tuple(
                            sorted(
                                (coloring[(w, t[1])], coloring[(t[0], w)])
                                for w in verts
                            )
                        ),
                    )
                    for t in tuples
                }
                refined, _ = _renumber(nxt)
                # refinement only splits classes, so equal counts mean stable
                if len(set(refined.values())) == len(set(coloring.values())):
                    break
                coloring = refined
            diag = {v: coloring[(v, v)] for v in verts}
            for u in verts:
                for v in verts:
                    if diag[u] == diag[v]:
                        assert wl1_classes[u] == wl1_classes[v]

    def test_c6_vs_two_triangles_separated(self, c6, two_triangles):
        assert wlk_refine(c6, 2) != wlk_refine(two_triangles, 2)

    def test_colored_p3_variants_separated(self):
        endpoint = ColoredGraph(3, [(1, 2), (2, 3)], {1: {1}})
        midpoint = ColoredGraph(3, [(1, 2), (2, 3)], {2: {1}})
        assert wlk_refine(endpoint, 2) != wlk_refine(midpoint, 2)

    @settings(max_examples=40)
    @given(data=st.data(), g=small_colored_graphs(max_n=4))
    def test_label_invariance(self, data, g):
        perm = data.draw(permutations_of(g.n))
        h = apply_permutation(g, Labeling(perm))
        assert wlk_refine(g, 2) == wlk_refine(h, 2)

    def test_wlk3_complete_on_treewidth2_corpus(self):
        # desk-scale check that dimension treewidth+1 separates every
        # non-isomorphic pair of partial 2-trees we can ground-truth
        graphs = [
            gen_family("partial_k_tree", n=5 + s % 4, k=2, seed=600 + s)
            for s in range(24)
        ]
        codes = [wlk_refine(g, 3) for g in graphs]
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                same = codes[i] == codes[j]
                assert same == (are_isomorphic_bf(graphs[i], graphs[j]) is not None)


class TestBruteForceInvariant:
    def test_single_vertex(self):
        g = ColoredGraph(1)
        assert bf_invariant(g) == encode(g)

    def test_orbit_min_equal(self, k4):
        for perm in ([2, 1, 4, 3], [4, 3, 2, 1]):
            h = apply_permutation(k4, Labeling(perm))
            assert bf_invariant(h) == bf_invariant(k4)

    def test_p3_vs_k3(self, p3, k3):
        assert bf_invariant(p3) != bf_invariant(k3)

    def test_cap(self):
        with pytest.raises(OracleCapacityError):
            bf_invariant(ColoredGraph(11))

    def test_auto_limit_hits_counted(self):
        # every labeling of the empty graph on 10 vertices ties, so more
        # automorphisms turn up than the search keeps
        g = ColoredGraph(10)
        stats = RunStats()
        code, _ = minimum_encoding(g, stats=stats)
        assert stats.auto_limit_hits > 0
        assert code == minimum_encoding(g)[0] == encode(g)
        backend_stats = RunStats()
        BruteForceBackend().code(g, backend_stats)
        assert backend_stats.auto_limit_hits == stats.auto_limit_hits

    def test_auto_limit_not_reached_on_smaller_graph(self):
        stats = RunStats()
        minimum_encoding(ColoredGraph(9), stats=stats)
        assert stats.auto_limit_hits == 0

    def test_minimum_achieved_by_labeling(self):
        g = ColoredGraph(4, [(1, 2), (2, 3), (3, 4)], {2: {5}})
        code, labeling = minimum_encoding(g)
        assert encode(apply_permutation(g, labeling)) == code

    def test_completeness_exhaustive_n4(self):
        # codes equal exactly when brute-force isomorphism succeeds, over all
        # 4-vertex edge sets with a few color decorations each
        pairs = list(itertools.combinations(range(1, 5), 2))
        graphs = []
        for mask in range(2 ** len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            graphs.append(ColoredGraph(4, edges))
            graphs.append(ColoredGraph(4, edges, {1: {0}}))
            graphs.append(ColoredGraph(4, edges, {2: {0}}))
        codes = [bf_invariant(g) for g in graphs]
        for i in range(0, len(graphs), 11):  # thinned pairwise sweep
            for j in range(len(graphs)):
                same = codes[i] == codes[j]
                assert same == (are_isomorphic_bf(graphs[i], graphs[j]) is not None)

    def test_completeness_random_n8_corpus(self):
        graphs = [gen_family("random_gnp", n=8, p=0.35, seed=s) for s in range(25)]
        codes = [bf_invariant(g) for g in graphs]
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                same = codes[i] == codes[j]
                assert same == (are_isomorphic_bf(graphs[i], graphs[j]) is not None)

    @settings(max_examples=60)
    @given(data=st.data(), g=small_colored_graphs())
    def test_label_invariance(self, data, g):
        perm = data.draw(permutations_of(g.n))
        h = apply_permutation(g, Labeling(perm))
        assert bf_invariant(g) == bf_invariant(h)

    @settings(max_examples=60)
    @given(g=small_colored_graphs(max_n=5), h=small_colored_graphs(max_n=5))
    def test_completeness_random(self, g, h):
        same = bf_invariant(g) == bf_invariant(h)
        assert same == (are_isomorphic_bf(g, h) is not None)


class TestBackendSelector:
    def test_grammar(self):
        assert backend_from_selector("wl1").name == "wl1"
        assert backend_from_selector("wlk:3").name == "wlk:3"
        assert backend_from_selector("bf").name == "bf"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            backend_from_selector("nauty")
        with pytest.raises(ValueError):
            backend_from_selector("wlk:x")
        with pytest.raises(ValueError):
            backend_from_selector("wlk:1")

    def test_backends_agree_with_functions(self, p3):
        assert backend_from_selector("wl1").code(p3) == wl1_refine(p3)[1]
        assert backend_from_selector("wlk:2").code(p3) == wlk_refine(p3, 2)
        assert backend_from_selector("bf").code(p3) == bf_invariant(p3)


def first_minimal_index(backend, graphs):
    codes = [backend.code(g) for g in graphs]
    best = min(codes)
    assert codes.count(best) >= 2, "the case must contain a tie"
    return codes.index(best)


class TestArgmin:
    # P4 with one endpoint or one inner vertex marked: the two endpoint
    # markings tie, and so do the two inner ones
    MARKED_P4 = [path_graph(4).with_extra_colors({v: [1]}) for v in (2, 4, 3, 1)]

    def test_wl1_first_index_wins_ties(self):
        backend = Wl1Backend()
        graphs = self.MARKED_P4
        assert backend.argmin(graphs) == first_minimal_index(backend, graphs)
        assert backend.argmin(graphs[::-1]) == first_minimal_index(backend, graphs[::-1])

    def test_bf_bounded_path_first_index_wins_ties(self):
        backend = BruteForceBackend()
        graphs = self.MARKED_P4
        assert len({encoded_length(g) for g in graphs}) == 1
        assert backend.argmin(graphs) == first_minimal_index(backend, graphs)
        assert backend.argmin(graphs[::-1]) == first_minimal_index(backend, graphs[::-1])

    def test_bf_mixed_length_path_first_index_wins_ties(self):
        backend = BruteForceBackend()
        # a two-digit color makes a longer, hence larger, code
        graphs = [
            path_graph(3).with_extra_colors({1: [10]}),
            path_graph(3).with_extra_colors({3: [1]}),
            path_graph(3).with_extra_colors({2: [1]}),
            path_graph(3).with_extra_colors({1: [1]}),
        ]
        assert len({encoded_length(g) for g in graphs}) > 1
        assert backend.argmin(graphs) == first_minimal_index(backend, graphs)
        assert backend.argmin(graphs[::-1]) == first_minimal_index(backend, graphs[::-1])

    def test_single_graph_is_not_coded(self, p3):
        stats = RunStats()
        assert Wl1Backend().argmin([p3], stats) == 0
        assert stats.invariant_calls == 0

    def test_bf_single_graph_above_cap_refused(self):
        # the lone graph is never coded, so only the up-front check refuses it
        with pytest.raises(OracleCapacityError):
            BruteForceBackend().argmin([path_graph(11)])


class TestSequenceKeys:
    def test_keys_are_stable_classes_in_sequence_order(self):
        p4 = path_graph(4)
        classes, _ = wl1_refine(p4)
        assert classes[1] == classes[4] != classes[2] == classes[3]
        keys = sequence_keys(p4, [(1, 2), (2, 1), (4, 3)])
        end, inner = classes[1], classes[2]
        assert keys == [(end, inner), (inner, end), (end, inner)]

    def test_keys_follow_relabeling(self):
        g = gen_family("random_gnp", n=7, p=0.4, seed=3)
        seqs = list(itertools.permutations(g.vertices, 2))
        keys = dict(zip(seqs, sequence_keys(g, seqs)))
        lab = Labeling([3, 5, 1, 7, 2, 4, 6])
        h = apply_permutation(g, lab)
        image = [(lab[a], lab[b]) for a, b in seqs]
        assert sequence_keys(h, image) == [keys[s] for s in seqs]


# Canonical forms of fixed seeded inputs under both canonizers. A refactor must
# keep these bytes; a change that alters them on purpose says so and records
# the new digest.
GOLDEN_CASES = (
    ("separator", "wl1", 1, "tree", dict(n=14, seed=1)),
    ("separator", "bf", 1, "tree", dict(n=10, seed=2)),
    ("separator", "wl1", 1, "star", dict(n=7)),
    ("separator", "bf", 1, "complete", dict(n=5)),
    ("separator", "wl1", 2, "partial_k_tree", dict(n=9, k=2, seed=3)),
    ("separator", "bf", 2, "partial_k_tree", dict(n=8, k=2, seed=4)),
    ("separator", "wl1", 2, "random_gnp", dict(n=7, p=0.4, seed=7)),
    ("separator", "bf", 2, "random_gnp", dict(n=6, p=0.5, seed=8)),
    ("separator", "bf", 2, "cycle", dict(n=6)),
    ("separator", "wl1", 3, "k_tree", dict(n=12, k=2, seed=5)),
    ("separator", "bf", 3, "partial_k_tree", dict(n=9, k=2, seed=6)),
    ("separator", "wl1", 3, "random_gnp", dict(n=8, p=0.3, seed=9)),
    ("rigidity", "wl1", 1, "random_gnp", dict(n=7, p=0.4, seed=10)),
    ("rigidity", "bf", 1, "random_gnp", dict(n=6, p=0.5, seed=11)),
    ("rigidity", "wl1", 1, "complete", dict(n=3)),
    ("rigidity", "wl1", 2, "random_gnp", dict(n=7, p=0.35, seed=12)),
    ("rigidity", "bf", 2, "tree", dict(n=6, seed=13)),
    ("rigidity", "wl1", 2, "cycle", dict(n=6)),
    ("rigidity", "bf", 2, "cycle", dict(n=5)),
    ("rigidity", "wl1", 3, "random_gnp", dict(n=6, p=0.5, seed=14)),
    ("rigidity", "bf", 3, "partial_k_tree", dict(n=5, k=2, seed=15)),
)
GOLDEN_DIGEST = "3ced435bd58391e64a45b7776d36112798e0709b1b7c569638c94819758c901d"


def golden_forms_digest():
    digest = hashlib.sha256()
    for canonizer, selector, r, family, params in GOLDEN_CASES:
        g = gen_family(family, **params)
        backend = backend_from_selector(selector)
        if canonizer == "separator":
            labeling = canon_separator(g, r, backend)
        else:
            labeling = canon_rigidity(g, r, backend)
        digest.update(cg_dumps(apply_permutation(g, labeling)).encode("ascii"))
    return digest.hexdigest()


def test_golden_canonical_forms():
    assert golden_forms_digest() == GOLDEN_DIGEST
