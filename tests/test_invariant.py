import hashlib
import itertools
from collections import Counter

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
    WlkBackend,
    apply_permutation,
    are_isomorphic_bf,
    backend_from_selector,
    bf_invariant,
    canon_rigidity,
    canon_separator,
    cg_dumps,
    encode,
    gen_family,
    minimum_encoding,
    orbits,
    wl1_refine,
    wlk_refine,
)
from graphcanon.invariant import sequence_keys
from graphcanon.parallel import RunStats

from .conftest import (
    complete_graph,
    count_scratch_refinements,
    every_labeled_graph,
    path_graph,
)
from .test_graph import permutations_of, small_colored_graphs


def partition_of(coloring):
    classes = {}
    for v, c in coloring.items():
        classes.setdefault(c, set()).add(v)
    return {frozenset(m) for m in classes.values()}


def refines(fine, coarse):
    return all(any(f <= c for c in coarse) for f in fine)


def renumber(signatures):
    """Class ids by sorted signature, and the (signature, count) table."""
    uniq = sorted(set(signatures.values()))
    ids = {sig: i for i, sig in enumerate(uniq)}
    counts = Counter(signatures.values())
    return {x: ids[sig] for x, sig in signatures.items()}, tuple(
        (sig, counts[sig]) for sig in uniq
    )


def reference_wl1(graph):
    """Round-based color refinement, the reference for wl1_refine: round 0
    classes are the color sets, each later round refines by (own class,
    sorted neighbor classes), and the code is every round's signature table.
    Returns the stable coloring and the code."""
    verts = list(graph.vertices)
    coloring, table = renumber({v: tuple(sorted(graph.color_set(v))) for v in verts})
    tables = [table]
    while True:
        coloring, table = renumber(
            {
                v: (coloring[v], tuple(sorted(coloring[u] for u in graph.neighbors(v))))
                for v in verts
            }
        )
        tables.append(table)
        if len(table) == len(tables[-2]):
            return coloring, repr(tuple(tables))


def assert_same_equivalence(codes, reference):
    """codes[i] == codes[j] exactly when reference[i] == reference[j]."""
    forward, backward = {}, {}
    for code, ref in zip(codes, reference):
        assert forward.setdefault(code, ref) == ref
        assert backward.setdefault(ref, code) == code


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
        # an added color only splits stable classes, so the stable partition
        # of every individualized copy refines the graph's own, and a restart
        # with no fresh color keeps the stable partition as it is
        g = gen_family("tree", n=9, seed=3)
        coloring, _ = wl1_refine(g)
        coarse = partition_of(coloring)
        assert partition_of(wl1_refine(g, fresh={}, partition=coloring)[0]) == coarse
        for v in g.vertices:
            fine = partition_of(wl1_refine(g.with_extra_colors({v: [1]}))[0])
            assert refines(fine, coarse) and frozenset({v}) in fine

    def test_round_count_at_most_n(self):
        # wl1 works from a worklist and notes no rounds; wlk still counts its
        # rounds, which stay within n on P8
        g = path_graph(8)
        stats = RunStats()
        Wl1Backend().code(g, stats)
        assert stats.wl_rounds == []
        WlkBackend(2).code(g, stats)
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


def seeded_graphs(sizes, seeds):
    for n in sizes:
        for seed in seeds:
            yield gen_family("tree", n=n, seed=seed)
            yield gen_family("random_gnp", n=n, p=min(0.5, 3.0 / n), seed=seed)
            yield gen_family("partial_k_tree", n=n, k=2, seed=seed)


class TestWl1Reference:
    """The worklist engine against the round-based reference_wl1."""

    def check(self, graphs):
        codes, reference = [], []
        for g in graphs:
            coloring, code = wl1_refine(g)
            ref_coloring, ref_code = reference_wl1(g)
            assert partition_of(coloring) == partition_of(ref_coloring)
            codes.append(code)
            reference.append(ref_code)
        assert_same_equivalence(codes, reference)
        return len(set(reference))

    def test_every_small_graph_and_precolored_copies(self):
        graphs = []
        for g in every_labeled_graph(5):
            graphs.append(g)
            if g.n:
                graphs.append(g.with_extra_colors({1: [0]}))
                graphs.append(g.with_extra_colors({v: [v % 3, 7] for v in g.vertices}))
        assert len(graphs) == 1 + 3 * 1099
        # many labeled graphs share a code, so equal codes are checked too
        assert self.check(graphs) < len(graphs) // 5

    def test_seeded_graphs_up_to_40_and_relabelings(self):
        graphs = []
        for i, g in enumerate(seeded_graphs((6, 10, 17, 25, 40), range(6))):
            perm = list(range(1, g.n + 1))
            perm = perm[i % g.n:] + perm[:i % g.n]
            graphs += [g, apply_permutation(g, Labeling(perm[::-1]))]
        assert self.check(graphs) <= len(graphs) // 2

    def test_restart_matches_individualized_reference(self):
        # every coloring the canonizers restart from: sequences with r <= 2,
        # alone and with one more color on each vertex (in the sequence too)
        graphs = list(every_labeled_graph(4))
        graphs += list(seeded_graphs((5, 6, 7), range(4)))
        graphs += [g.with_extra_colors({1: [0], 2: [0]}) for g in graphs if g.n >= 2]
        checked = 0
        for g in graphs:
            classes, _ = wl1_refine(g)
            b = g.top_color() + 1
            colorings = []
            for r in (1, 2):
                for seq in itertools.permutations(g.vertices, r):
                    marks = {v: [b + i] for i, v in enumerate(seq)}
                    colorings.append(marks)
                    colorings += [
                        {**marks, v: marks.get(v, []) + [b + r]} for v in g.vertices
                    ]
            codes, reference = [], []
            for marks in colorings:
                coloring, code = wl1_refine(g, fresh=marks, partition=classes)
                recolored = g.with_extra_colors(marks)
                ref_coloring, ref_code = reference_wl1(recolored)
                assert partition_of(coloring) == partition_of(wl1_refine(recolored)[0])
                assert partition_of(coloring) == partition_of(ref_coloring)
                codes.append(code)
                reference.append(ref_code)
            assert_same_equivalence(codes, reference)
            checked += len(colorings)
        assert checked > 10_000

    def test_restart_codes_are_label_independent(self):
        g = gen_family("random_gnp", n=8, p=0.35, seed=4)
        lab = Labeling([4, 7, 1, 8, 2, 6, 3, 5])
        h = apply_permutation(g, lab)
        g_classes, h_classes = wl1_refine(g)[0], wl1_refine(h)[0]
        for u, v in itertools.permutations(g.vertices, 2):
            a = wl1_refine(g, fresh={u: [1], v: [2]}, partition=g_classes)
            b = wl1_refine(h, fresh={lab[u]: [1], lab[v]: [2]}, partition=h_classes)
            assert a[1] == b[1]
            assert all(a[0][x] == b[0][lab[x]] for x in g.vertices)

    def test_fresh_colors_need_a_partition(self, p3):
        with pytest.raises(ValueError):
            wl1_refine(p3, fresh={1: [1]})


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
            coloring, _ = renumber(sig)
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
                refined, _ = renumber(nxt)
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


def first_minimal_index(backend, scope, colorings):
    codes = backend.codes(scope, colorings)
    best = min(codes)
    assert codes.count(best) >= 2, "the case must contain a tie"
    return codes.index(best)


class TestArgmin:
    # P4 with one endpoint or one inner vertex marked: the two endpoint
    # markings tie, and so do the two inner ones
    P4 = path_graph(4)
    MARKED_P4 = [{v: [1]} for v in (2, 4, 3, 1)]

    def test_wl1_first_index_wins_ties(self):
        backend = Wl1Backend()
        marks = self.MARKED_P4
        assert backend.argmin(self.P4, marks) == first_minimal_index(backend, self.P4, marks)
        rev = marks[::-1]
        assert backend.argmin(self.P4, rev) == first_minimal_index(backend, self.P4, rev)

    def test_bf_bounded_path_first_index_wins_ties(self):
        backend = BruteForceBackend()
        marks = self.MARKED_P4
        assert backend.argmin(self.P4, marks) == first_minimal_index(backend, self.P4, marks)
        rev = marks[::-1]
        assert backend.argmin(self.P4, rev) == first_minimal_index(backend, self.P4, rev)

    def test_bf_mixed_length_path_first_index_wins_ties(self):
        backend = BruteForceBackend()
        # a two-digit color makes a longer, hence larger, code
        p3 = path_graph(3)
        marks = [{1: [10]}, {3: [1]}, {2: [1]}, {1: [1]}]
        assert backend.argmin(p3, marks) == first_minimal_index(backend, p3, marks)
        rev = marks[::-1]
        assert backend.argmin(p3, rev) == first_minimal_index(backend, p3, rev)

    def test_bf_first_minimal_index_on_every_small_marking(self):
        # every graph on at most 4 vertices, bare and with vertex 1 precolored,
        # each vertex marked by a one-digit or a two-digit fresh color: one
        # digit only and two digits only give equal encoded lengths, both
        # together mixed ones
        backend = BruteForceBackend()
        for g in every_labeled_graph(4):
            scopes = [g] if g.n == 0 else [g, g.with_extra_colors({1: [1]})]
            for scope in scopes:
                short = [{v: [2]} for v in scope.vertices]
                long = [{v: [10]} for v in scope.vertices]
                for marks in (short, long, long + short, short[::-1] + long[::-1]):
                    if not marks:
                        continue
                    codes = [bf_invariant(scope.with_extra_colors(c)) for c in marks]
                    assert backend.argmin(scope, marks) == codes.index(min(codes))

    def test_single_graph_is_not_coded(self, monkeypatch, p3):
        scratch = count_scratch_refinements(monkeypatch)
        stats = RunStats()
        assert Wl1Backend().argmin(p3, [{1: [1]}], stats=stats) == 0
        assert stats.invariant_calls == 0 and scratch == []

    def test_bf_single_graph_above_cap_refused(self):
        # the lone coloring is never coded, so only the up-front check refuses it
        with pytest.raises(OracleCapacityError):
            BruteForceBackend().argmin(path_graph(11), [{1: [1]}])

    def test_wl1_codes_restart_from_the_given_partition(self, monkeypatch):
        g = gen_family("random_gnp", n=9, p=0.3, seed=2)
        classes, _ = wl1_refine(g)
        marks = [{v: [1]} for v in g.vertices]
        scratch = count_scratch_refinements(monkeypatch)
        stats = RunStats()
        given = Wl1Backend().codes(g, marks, classes, stats)
        assert scratch == [] and stats.invariant_calls == g.n
        assert Wl1Backend().codes(g, marks) == given
        assert scratch == [g]


class TestSequenceKeys:
    def test_keys_are_stable_classes_in_sequence_order(self):
        p4 = path_graph(4)
        classes, _ = wl1_refine(p4)
        assert classes[1] == classes[4] != classes[2] == classes[3]
        keys = sequence_keys(classes, [(1, 2), (2, 1), (4, 3)])
        end, inner = classes[1], classes[2]
        assert keys == [(end, inner), (inner, end), (end, inner)]

    def test_keys_follow_relabeling(self):
        g = gen_family("random_gnp", n=7, p=0.4, seed=3)
        seqs = list(itertools.permutations(g.vertices, 2))
        keys = dict(zip(seqs, sequence_keys(wl1_refine(g)[0], seqs)))
        lab = Labeling([3, 5, 1, 7, 2, 4, 6])
        h = apply_permutation(g, lab)
        image = [(lab[a], lab[b]) for a, b in seqs]
        assert sequence_keys(wl1_refine(h)[0], image) == [keys[s] for s in seqs]


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
GOLDEN_DIGEST = "0a049b7df9d29f6b60406d2a994073184aabe69871c2f6337a8420afbc1876fa"


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
