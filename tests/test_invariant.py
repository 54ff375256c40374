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
from graphcanon.invariant import InvariantBackend, key_groups
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


def wl1_bytes_digest(results):
    """The first 16 hex digits of the SHA-256 of (coloring, code) pairs."""
    h = hashlib.sha256()
    for coloring, code in results:
        h.update(repr(sorted(coloring.items())).encode("ascii"))
        h.update(code.data)
    return h.hexdigest()[:16]


def wl1_byte_graphs(precolored: bool):
    for g in seeded_graphs((6, 10, 17, 25), range(3)):
        if precolored:
            g = g.with_extra_colors({v: [v % 3, 5] if v % 4 else [2] for v in g.vertices})
        yield g


def probe_colorings(g):
    """Restart colorings as rigidity probes them: the sequence vertices get
    b+1.. and each vertex in turn one more color, so a sequence vertex
    carries two fresh colors."""
    b = g.top_color()
    for seq in ((1,), (1, 2), (g.n, 1)):
        marks = {v: [b + i] for i, v in enumerate(seq, 1)}
        yield marks
        for v in g.vertices:
            yield {**marks, v: marks.get(v, []) + [b + len(seq) + 1]}


class TestWl1Bytes:
    """wl1 codes and colorings, from scratch and as restarts, pinned by
    digests of their bytes: a change to the engine must keep them."""

    SCRATCH = {False: "2738b9b4225faa6a", True: "c01a0232852f8ee9"}
    RESTART = {False: "f89b3b6a79a834de", True: "cd69f40d3167e233"}

    @pytest.mark.parametrize("precolored", [False, True])
    def test_scratch_digest(self, precolored):
        results = [wl1_refine(g) for g in wl1_byte_graphs(precolored)]
        assert wl1_bytes_digest(results) == self.SCRATCH[precolored]

    @pytest.mark.parametrize("precolored", [False, True])
    def test_restart_digest(self, precolored):
        results = []
        for g in wl1_byte_graphs(precolored):
            classes, _ = wl1_refine(g)
            for marks in probe_colorings(g):
                results.append(wl1_refine(g, fresh=marks, partition=classes))
        assert wl1_bytes_digest(results) == self.RESTART[precolored]

    @pytest.mark.parametrize("precolored", [False, True])
    def test_backend_codes_equal_restart_codes(self, precolored):
        for g in wl1_byte_graphs(precolored):
            classes, _ = wl1_refine(g)
            colorings = list(probe_colorings(g))
            stats = RunStats()
            codes = list(Wl1Backend().codes(g, colorings, classes, stats))
            assert codes == [wl1_refine(g, fresh=c, partition=classes)[1] for c in colorings]
            assert stats.invariant_calls == len(colorings)


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

    def test_minimum_encoding_counts_its_own_call(self):
        g = ColoredGraph(4, [(1, 2), (2, 3), (3, 4)])
        calls = (
            lambda stats: minimum_encoding(g, stats=stats),
            lambda stats: bf_invariant(g, stats=stats),
            lambda stats: BruteForceBackend().code(g, stats),
        )
        for call in calls:
            stats = RunStats()
            call(stats)
            assert stats.invariant_calls == 1

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


def key_grouped(classes, sequences):
    """The sequences in key groups, as key_groups and the separator search
    hand them to `order`: the key of a sequence is the tuple of its
    vertices' classes, groups come in key order, each in position order."""
    groups: dict = {}
    for seq in sequences:
        groups.setdefault(tuple(classes[v] for v in seq), []).append(seq)
    return [groups[key] for key in sorted(groups)]


def order_by_key(backend, scope, sequences, base):
    """backend.order over the sequences in key groups of the scope's stable
    wl1 partition."""
    classes, _ = wl1_refine(scope)
    return backend.order(scope, key_grouped(classes, sequences), base, classes)


def reference_ranks(backend, scope, sequences, base):
    """Per sequence, its (key, code), every one coded. Asserts that some key
    group holds a code tie."""
    classes, _ = wl1_refine(scope)
    marks = [{v: [base + i] for i, v in enumerate(s, 1)} for s in sequences]
    codes = list(backend.codes(scope, marks, classes))
    keys = [tuple(classes[v] for v in s) for s in sequences]
    assert len(set(zip(keys, codes))) < len(sequences), "the case must contain a tie"
    return list(zip(keys, codes))


def reference_order(backend, scope, sequences, base):
    """The sequences sorted by (key, code, position): the order in which
    canon_rigidity probes them."""
    ranks = reference_ranks(backend, scope, sequences, base)
    ranked = sorted(range(len(sequences)), key=lambda i: (ranks[i], i))
    return [sequences[i] for i in ranked]


def reference_classes(backend, scope, sequences, base):
    """The sequences in tie classes of equal (key, code), each in position
    order, in (key, code) order: what InvariantBackend.order yields lazily."""
    tied: dict = {}
    for rank, seq in zip(reference_ranks(backend, scope, sequences, base), sequences):
        tied.setdefault(rank, []).append(seq)
    return [tied[rank] for rank in sorted(tied)]


def cut(backend, classes):
    """The tie classes as `backend.order` yields them: bf keeps only the
    first sequence of each, since its equal codes mean an automorphism."""
    return [c[:1] for c in classes] if backend.name == "bf" else classes


def assert_order(backend, scope, sequences, base):
    """order yields the reference tie classes (cut under bf), and joined they
    are the (key, code, position) order less what the cut drops."""
    tied = list(order_by_key(backend, scope, sequences, base))
    expected = cut(backend, reference_classes(backend, scope, sequences, base))
    assert tied == expected
    joined = list(itertools.chain.from_iterable(tied))
    assert joined == [s for s in reference_order(backend, scope, sequences, base) if s in joined]


class TestArgmin:
    """InvariantBackend.order: its first tie class is the one the separator
    recursion tries, and its classes joined are canon_rigidity's order."""

    # P4 and its ordered pairs: the mirror image of a pair has the same key
    # and ties with it in code
    P4 = path_graph(4)
    PAIRS = list(itertools.permutations(range(1, 5), 2))

    def test_wl1_first_index_wins_ties(self):
        for seqs in (self.PAIRS, self.PAIRS[::-1]):
            assert_order(Wl1Backend(), self.P4, seqs, 0)

    def test_bf_first_index_wins_ties(self):
        for seqs in (self.PAIRS, self.PAIRS[::-1]):
            assert_order(BruteForceBackend(), self.P4, seqs, 0)

    def test_bf_first_minimal_index_on_every_small_marking(self):
        # every graph on 2 to 4 vertices, bare and with vertex 1 precolored;
        # its single vertices and its ordered pairs, forward and reversed,
        # individualized above its largest color; each tie class is cut to
        # its first sequence in position order
        backend = BruteForceBackend()
        for g in every_labeled_graph(4):
            if g.n < 2:
                continue
            for scope in (g, g.with_extra_colors({1: [1]})):
                base = scope.top_color()
                classes, _ = wl1_refine(scope)
                for length in (1, 2):
                    seqs = list(itertools.permutations(scope.vertices, length))
                    codes = {
                        s: bf_invariant(scope.with_extra_colors(
                            {v: [base + i] for i, v in enumerate(s, 1)}
                        ))
                        for s in seqs
                    }
                    def rank(s):
                        return tuple(classes[v] for v in s), codes[s]

                    for marks in (seqs, seqs[::-1]):
                        # sorted() is stable: position orders each tie class
                        expected = sorted(marks, key=rank)
                        groups = key_grouped(classes, marks)
                        tied = list(backend.order(scope, groups, base, classes))
                        full = [list(c) for _, c in itertools.groupby(expected, rank)]
                        assert tied == cut(backend, full)

    def test_single_graph_is_not_coded(self, monkeypatch, p3):
        # a key group of one needs no code, and order refines nothing
        classes, _ = wl1_refine(p3)
        scratch = count_scratch_refinements(monkeypatch)
        stats = RunStats()
        assert list(Wl1Backend().order(p3, [[(1,)]], 0, classes, stats)) == [[(1,)]]
        assert stats.invariant_calls == 0 and scratch == []
        groups = key_grouped(classes, [(1, 2), (2, 1)])
        ordered = Wl1Backend().order(p3, groups, 0, classes, stats)
        assert sorted(ordered) == [[(1, 2)], [(2, 1)]]
        assert stats.invariant_calls == 0 and scratch == []

    def test_later_key_groups_coded_only_when_reached(self):
        classes, _ = wl1_refine(self.P4)
        keys = Counter(tuple(classes[v] for v in s) for s in self.PAIRS)
        stats = RunStats()
        drawn = []  # the key groups taken from key_groups so far
        groups = (drawn.append(g) or g for g in key_groups(classes, 2))
        ordered = Wl1Backend().order(self.P4, groups, 0, classes, stats)
        next(ordered)
        assert stats.invariant_calls == keys[min(keys)] < len(self.PAIRS)
        assert len(drawn) == 1
        list(ordered)
        assert stats.invariant_calls == len(self.PAIRS)
        assert len(drawn) == len(keys)

    def test_bf_single_graph_above_cap_refused(self):
        # the lone sequence is never coded, so only the up-front check refuses
        # it, and the check runs with no group at all too
        g = path_graph(11)
        classes, _ = wl1_refine(g)
        stats = RunStats()
        for groups in ([[(1,)]], []):
            with pytest.raises(OracleCapacityError):
                next(BruteForceBackend().order(g, groups, 0, classes, stats))
        assert stats.invariant_calls == 0

    def test_wl1_codes_restart_from_the_given_partition(self, monkeypatch):
        g = gen_family("random_gnp", n=9, p=0.3, seed=2)
        classes, _ = wl1_refine(g)
        marks = [{v: [1]} for v in g.vertices]
        scratch = count_scratch_refinements(monkeypatch)
        stats = RunStats()
        list(Wl1Backend().codes(g, marks, classes, stats))
        assert scratch == [] and stats.invariant_calls == g.n


class WholeClassBruteForce(BruteForceBackend):
    """bf with every tie class of `order` kept whole, as the cut would not."""

    order = InvariantBackend.order


def test_bf_cut_keeps_labelings_and_diagnostics():
    # one sequence per bf tie class gives the labeling and the diagnostics
    # that trying the whole class gives, under both canonizers
    cases = 0
    for n in range(3, 11):
        for seed in range(2):
            for g in (gen_family("random_gnp", n=n, p=0.4, seed=n * 10 + seed),
                      gen_family("partial_k_tree", n=n, k=2, seed=n * 10 + seed)):
                colored = g.with_extra_colors({v: [1 + v % 2] for v in g.vertices if v % 3 == 0})
                for h, r in itertools.product((g, colored), (1, 2, 3)):
                    for canon in (canon_separator, canon_rigidity):
                        runs = []
                        for backend in (BruteForceBackend(), WholeClassBruteForce()):
                            stats = RunStats()
                            runs.append((canon(h, r, backend, stats=stats), stats.diagnostics))
                        assert runs[0] == runs[1], (n, seed, r, canon.__name__)
                        cases += 1
    assert cases == 384


def reference_key_order(classes, r):
    """Every r-sequence of distinct vertices, in itertools.permutations order
    sorted stably by key: the order key_groups yields lazily."""
    sequences = itertools.permutations(sorted(classes), r)
    return sorted(sequences, key=lambda s: tuple(classes[v] for v in s))


class TestKeyGroups:
    """key_groups, the candidates canon_rigidity hands to order one key
    group at a time."""

    @staticmethod
    def seeded_partitions():
        for g in (path_graph(4), path_graph(6), complete_graph(5)):
            yield wl1_refine(g)[0]
        for seed in range(1, 5):
            yield wl1_refine(gen_family("random_gnp", n=7, p=0.3, seed=seed))[0]
            yield wl1_refine(gen_family("tree", n=6, seed=seed))[0]
        yield {}
        yield {1: 0, 2: 5, 3: 0, 4: 2, 5: 5, 6: 0}  # arbitrary class ids

    def test_groups_joined_equal_the_reference_order(self):
        for classes in self.seeded_partitions():
            n = len(classes)
            for r in sorted({0, 1, 2, 3, 4, n, n + 1}):
                groups = list(key_groups(classes, r))
                assert [s for g in groups for s in g] == reference_key_order(classes, r)
                keys = [{tuple(classes[v] for v in s) for s in g} for g in groups]
                assert all(len(k) == 1 for k in keys)  # one non-empty key per group
                assert [min(k) for k in keys] == sorted(min(k) for k in keys)
                assert len(set(map(min, keys))) == len(keys)

    def test_nothing_above_the_vertex_count(self):
        for classes in self.seeded_partitions():
            assert list(key_groups(classes, len(classes) + 1)) == []

    def test_first_group_at_r_equal_n_on_a_discrete_partition(self):
        # one class per vertex, in reverse vertex order: the first group is
        # the one sequence in class order, the last of all in vertex order
        classes = {v: 9 - v for v in range(1, 9)}
        assert next(key_groups(classes, 8)) == [tuple(range(8, 0, -1))]

    def test_order_over_each_group_equals_reference_order(self):
        # handing order the key groups gives order's rule on every sequence:
        # (key, code) tie classes, and joined (key, code, position)
        p4 = TestArgmin.P4
        classes, _ = wl1_refine(p4)
        for backend in (Wl1Backend(), BruteForceBackend()):
            tied = list(backend.order(p4, key_groups(classes, 2), 0, classes))
            assert tied == cut(backend, reference_classes(backend, p4, TestArgmin.PAIRS, 0))
            joined = [s for c in tied for s in c]
            reference = reference_order(backend, p4, TestArgmin.PAIRS, 0)
            assert joined == [s for s in reference if s in joined]


class TestSequenceKeys:
    """The key that key_groups groups by, and whose order the tie classes of
    InvariantBackend.order follow: a sequence's vertices' stable wl1
    classes, in sequence order."""

    def test_keys_are_stable_classes_in_sequence_order(self):
        p4 = path_graph(4)
        classes, _ = wl1_refine(p4)
        end, inner = classes[1], classes[2]
        assert classes[4] == end != inner == classes[3]
        seqs = [(1, 2), (2, 1), (4, 3)]
        # (1, 2) and (4, 3) share the key (end, inner) and tie in code, so
        # they share one tie class, which bf cuts to (1, 2)
        if (end, inner) < (inner, end):
            expected = [[(1, 2), (4, 3)], [(2, 1)]]
        else:
            expected = [[(2, 1)], [(1, 2), (4, 3)]]
        groups = [[s for s in g if s in seqs] for g in key_groups(classes, 2)]
        groups = [g for g in groups if g]
        for backend in (Wl1Backend(), BruteForceBackend()):
            assert list(backend.order(p4, groups, 0, classes)) == cut(backend, expected)
            assert list(order_by_key(backend, p4, seqs, 0)) == cut(backend, expected)

    def test_keys_follow_relabeling(self):
        g = gen_family("random_gnp", n=7, p=0.4, seed=3)
        seqs = list(itertools.permutations(g.vertices, 2))
        lab = Labeling([3, 5, 1, 7, 2, 4, 6])
        h = apply_permutation(g, lab)
        image = [(lab[a], lab[b]) for a, b in seqs]
        # key_groups maps each group onto the group of equal key, as sets
        groups = key_groups(wl1_refine(g)[0], 2)
        moved = [sorted((lab[a], lab[b]) for a, b in grp) for grp in groups]
        assert moved == [sorted(grp) for grp in key_groups(wl1_refine(h)[0], 2)]
        for backend in (Wl1Backend(), BruteForceBackend()):
            tied = order_by_key(backend, g, seqs, 0)
            ordered = [[(lab[a], lab[b]) for a, b in c] for c in tied]
            assert list(order_by_key(backend, h, image, 0)) == ordered


# Canonical forms of fixed seeded inputs under both canonizers, each with the
# first 16 hex digits of the SHA-256 of its cg text. A refactor must keep
# these bytes; a change that alters them on purpose says so and records the
# new digests of the cases it changed, which the test names.
GOLDEN_CASES = (
    ("separator", "wl1", 1, "tree", dict(n=14, seed=1), "7a6ec3cbfaed8477"),
    ("separator", "bf", 1, "tree", dict(n=10, seed=2), "6395f0bb3f08cb16"),
    ("separator", "wl1", 1, "star", dict(n=7), "59b03426caf18c89"),
    ("separator", "bf", 1, "complete", dict(n=5), "8a17a8b48e3372a9"),
    ("separator", "wl1", 2, "partial_k_tree", dict(n=9, k=2, seed=3), "edb9d33345180901"),
    ("separator", "bf", 2, "partial_k_tree", dict(n=8, k=2, seed=4), "89768888b87bb572"),
    ("separator", "wl1", 2, "random_gnp", dict(n=7, p=0.4, seed=7), "82fe37214c8c8b05"),
    ("separator", "bf", 2, "random_gnp", dict(n=6, p=0.5, seed=8), "cccc200a270c7366"),
    ("separator", "bf", 2, "cycle", dict(n=6), "739f1357b25021e8"),
    ("separator", "wl1", 3, "k_tree", dict(n=12, k=2, seed=5), "cc73dbad2f0b65b1"),
    ("separator", "bf", 3, "partial_k_tree", dict(n=9, k=2, seed=6), "ef1d1ef96034ae93"),
    ("separator", "wl1", 3, "random_gnp", dict(n=8, p=0.3, seed=9), "4fd50797e3014dfe"),
    ("separator", "wl1", 4, "cycle", dict(n=4), "9ad3159beb2ed01f"),
    # deep recursion, and a backend that codes scopes as graphs of their own
    ("separator", "wl1", 1, "tree", dict(n=200, seed=1), "b05547ad82854f7c"),
    ("separator", "wl1", 3, "k_tree", dict(n=40, k=2, seed=1), "9c964f42828fddda"),
    ("separator", "wlk:2", 2, "partial_k_tree", dict(n=12, k=2, seed=3), "85bdabfe68dd171f"),
    ("rigidity", "wl1", 1, "random_gnp", dict(n=7, p=0.4, seed=10), "a8905487f3ac1ccd"),
    ("rigidity", "bf", 1, "random_gnp", dict(n=6, p=0.5, seed=11), "30566223b9fc7d7a"),
    ("rigidity", "wl1", 1, "complete", dict(n=3), "3768fc37441972ce"),
    ("rigidity", "wl1", 2, "random_gnp", dict(n=7, p=0.35, seed=12), "cf35fa8909b8cf5c"),
    ("rigidity", "bf", 2, "tree", dict(n=6, seed=13), "681d2b64a6ffc86c"),
    ("rigidity", "wl1", 2, "cycle", dict(n=6), "b4aabcf86c0b9d4e"),
    ("rigidity", "bf", 2, "cycle", dict(n=5), "d580702e59b2251d"),
    ("rigidity", "wl1", 3, "random_gnp", dict(n=6, p=0.5, seed=14), "eb589b2de3650ec3"),
    ("rigidity", "bf", 3, "partial_k_tree", dict(n=5, k=2, seed=15), "506ea19a51f47d69"),
    # stable partitions that are not discrete, so the probes refine
    ("rigidity", "wl1", 2, "cycle", dict(n=16), "a6cfb5ef9482fe66"),
    ("rigidity", "wl1", 2, "k_tree", dict(n=16, k=2, seed=8), "6145344fccc57e2e"),
)


def golden_form_digest(canonizer, selector, r, family, params):
    g = gen_family(family, **params)
    backend = backend_from_selector(selector)
    canon = canon_separator if canonizer == "separator" else canon_rigidity
    text = cg_dumps(apply_permutation(g, canon(g, r, backend)))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def test_golden_canonical_forms():
    changed = [case[:5] for case in GOLDEN_CASES if golden_form_digest(*case[:5]) != case[5]]
    assert changed == []
