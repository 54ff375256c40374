import itertools

import pytest

from graphcanon import (
    ColoredGraph,
    InvalidGraphError,
    Labeling,
    Lcg64,
    OracleCapacityError,
    apply_permutation,
    are_isomorphic_bf,
    automorphisms,
    gen_family,
    manifest_line,
    mark_separating_sequences,
    orbits,
    parse_manifest_line,
    rigidity_index,
)

from .conftest import complete_graph


def naive_automorphisms(g):
    """Independent oracle: try all n! maps with no pruning at all."""
    out = []
    for perm in itertools.permutations(range(1, g.n + 1)):
        sigma = Labeling(perm)
        if apply_permutation(g, sigma) == g:
            out.append(sigma)
    return out


def naive_first_isomorphism(g, h):
    """Independent oracle: the first of all n! maps, in lexicographic order,
    that carries g onto h."""
    if g.n != h.n:
        return None
    for perm in itertools.permutations(range(1, g.n + 1)):
        sigma = Labeling(perm)
        if apply_permutation(g, sigma) == h:
            return sigma
    return None


def seeded_colored_graphs(count, seed):
    """Random colored graphs with 1..6 vertices, each paired with a relabeled
    copy, a copy with one vertex recolored, and the next graph of the list."""
    rng = Lcg64(seed)
    graphs = []
    for _ in range(count):
        n = 1 + rng.randrange(6)
        edges = [
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.chance(0.45)
        ]
        colors = {v: {rng.randrange(2)} for v in range(1, n + 1) if rng.chance(0.35)}
        graphs.append(ColoredGraph(n, edges, colors))
    pairs = []
    for i, g in enumerate(graphs):
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        pairs.append((g, apply_permutation(g, Labeling(perm))))
        pairs.append((g, g.with_extra_colors({1 + rng.randrange(g.n): [5]})))
        pairs.append((g, graphs[(i + 1) % count]))
    return graphs, pairs


SEEDED_GRAPHS, SEEDED_PAIRS = seeded_colored_graphs(30, seed=17)


class TestAutomorphisms:
    def test_k4_order(self, k4):
        assert automorphisms(k4).order == 24

    def test_p3_order(self, p3):
        assert automorphisms(p3).order == 2

    def test_c4_order_matches_naive(self, c4):
        group = automorphisms(c4)
        assert group.order == 8
        assert list(group) == naive_automorphisms(c4)

    def test_seeded_colored_graphs_match_naive(self):
        for g in SEEDED_GRAPHS:
            assert list(automorphisms(g)) == naive_automorphisms(g)

    def test_colored_graph_respects_colors(self):
        g = ColoredGraph(3, [(1, 2), (2, 3)], {1: {7}})
        assert automorphisms(g).order == 1

    def test_contains_identity_closed_under_composition(self):
        g = gen_family("random_gnp", n=6, p=0.5, seed=2)
        group = automorphisms(g)
        elements = set(group.elements)
        assert Labeling.identity(6) in elements
        for a in group:
            assert a.inverse() in elements
            for b in group:
                assert a.compose(b) in elements
        assert (720 % group.order) == 0

    def test_cap(self):
        with pytest.raises(OracleCapacityError):
            automorphisms(ColoredGraph(11))


class TestFirstIsomorphism:
    def test_seeded_pairs_match_naive(self):
        # are_isomorphic_bf runs the same search as automorphisms, so it must
        # return the lexicographically first isomorphism, or None
        found = 0
        for g, h in SEEDED_PAIRS:
            expected = naive_first_isomorphism(g, h)
            assert are_isomorphic_bf(g, h) == expected
            found += expected is not None
        assert 0 < found < len(SEEDED_PAIRS)


class TestOrbits:
    def test_p3(self, p3):
        assert orbits(p3) == [frozenset({1, 3}), frozenset({2})]

    def test_k4_single_orbit(self, k4):
        assert orbits(k4) == [frozenset({1, 2, 3, 4})]

    def test_star(self):
        star = gen_family("star", n=5)
        assert orbits(star) == [frozenset({1}), frozenset({2, 3, 4, 5})]


class TestRigidityIndex:
    def test_k4_needs_three(self, k4):
        index, witness = rigidity_index(k4)
        assert index == 3
        assert witness == frozenset({1, 2, 3})

    def test_p3_needs_one(self, p3):
        index, witness = rigidity_index(p3)
        assert index == 1
        assert witness == frozenset({1})

    def test_rigid_tree_on_seven_vertices(self):
        # the "spider" with legs of lengths 1, 2, 3 has no symmetry
        tree = ColoredGraph(7, [(1, 2), (1, 3), (3, 4), (1, 5), (5, 6), (6, 7)])
        assert automorphisms(tree).order == 1
        assert rigidity_index(tree) == (0, frozenset())

    def test_witness_minimality(self, c4):
        index, witness = rigidity_index(c4)
        assert index == 2
        from graphcanon import is_fixing_bf

        assert is_fixing_bf(c4, witness)
        for v in c4.vertices:
            assert not is_fixing_bf(c4, {v})


class TestLcg64:
    def test_frozen_stream(self):
        rng = Lcg64(1)
        stream = [rng.next_u64() for _ in range(3)]
        assert stream == [
            (1 * 6364136223846793005 + 1442695040888963407) % 2**64,
            (stream[0] * 6364136223846793005 + 1442695040888963407) % 2**64,
            (stream[1] * 6364136223846793005 + 1442695040888963407) % 2**64,
        ]

    def test_shuffle_deterministic(self):
        a = list(range(10))
        b = list(range(10))
        Lcg64(9).shuffle(a)
        Lcg64(9).shuffle(b)
        assert a == b
        assert sorted(a) == list(range(10))

    def test_randrange_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Lcg64(0).randrange(0)


class TestGenerators:
    def test_bit_reproducible(self):
        for family, kwargs in [
            ("tree", dict(n=9)),
            ("k_tree", dict(n=10, k=2)),
            ("partial_k_tree", dict(n=10, k=2)),
            ("random_gnp", dict(n=8, p=0.4)),
        ]:
            a = gen_family(family, seed=5, **kwargs)
            b = gen_family(family, seed=5, **kwargs)
            c = gen_family(family, seed=6, **kwargs)
            assert a == b
            assert a != c or family == "tree" and a == c  # distinct seeds usually differ

    @pytest.mark.parametrize("family", ["random_gnp", "partial_k_tree"])
    @pytest.mark.parametrize("p", [-1.0, -0.01, 1.01, 2.0, float("nan"), float("inf")])
    def test_probability_outside_unit_interval_refused(self, family, p):
        with pytest.raises(InvalidGraphError, match="p must lie in"):
            gen_family(family, n=8, k=2, p=p, seed=1)

    def test_probability_bounds_accepted(self):
        assert gen_family("random_gnp", n=5, p=0.0).edges == frozenset()
        assert len(gen_family("random_gnp", n=5, p=1.0).edges) == 10
        assert len(gen_family("partial_k_tree", n=6, k=2, p=0.0).edges) == 9

    def test_tree_is_tree(self):
        for seed in range(10):
            t = gen_family("tree", n=9, seed=seed)
            assert len(t.edges) == 8
            assert t.is_connected()

    def test_cycle_complete_star(self):
        assert gen_family("cycle", n=4) == ColoredGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert gen_family("complete", n=4) == complete_graph(4)
        star = gen_family("star", n=6)
        assert star.degree(1) == 5

    def test_k_tree_simplicial_growth(self):
        g = gen_family("k_tree", n=8, k=2, seed=3)
        assert len(g.edges) == 3 + 2 * 5  # base triangle plus two edges per new vertex
        assert g.is_connected()

    def test_k_tree_has_separating_triples(self):
        for seed in (1, 2, 3):
            g = gen_family("k_tree", n=6, k=2, seed=seed)
            assert mark_separating_sequences(g, 3)

    def test_partial_k_tree_is_subgraph(self):
        full = gen_family("k_tree", n=10, k=2, seed=12)
        partial = gen_family("partial_k_tree", n=10, k=2, seed=12)
        assert partial.edges <= full.edges

    def test_balanced_tree_order_and_edges(self):
        # (b^(d+1) - 1) / (b - 1) vertices, one edge fewer; every vertex above
        # the last level has b children, and the last level holds b^d leaves
        for b, d in [(1, 0), (1, 4), (2, 0), (2, 3), (3, 4), (4, 3)]:
            t = gen_family("balanced_tree", k=b, depth=d)
            n = d + 1 if b == 1 else (b ** (d + 1) - 1) // (b - 1)
            assert (t.n, len(t.edges)) == (n, n - 1)
            assert t.is_connected()
            leaves = [v for v in t.vertices if v > 1 and t.degree(v) == 1]
            assert len(leaves) == (b**d if d else 0)
            assert t.degree(1) == (b if d else 0)
        with pytest.raises(InvalidGraphError):
            gen_family("balanced_tree", k=2)
        with pytest.raises(InvalidGraphError):
            gen_family("balanced_tree", k=0, depth=2)

    def test_platonic_cube(self):
        cube = gen_family("platonic", name="cube")
        assert cube.n == 8
        assert all(cube.degree(v) == 3 for v in cube.vertices)

    def test_parameter_validation(self):
        with pytest.raises(InvalidGraphError):
            gen_family("cycle", n=2)
        with pytest.raises(InvalidGraphError):
            gen_family("k_tree", n=2, k=2)
        with pytest.raises(InvalidGraphError):
            gen_family("no_such_family", n=3)
        with pytest.raises(InvalidGraphError):
            gen_family("tree")


class TestManifest:
    def test_round_trip(self):
        line = manifest_line("k_tree", {"n": 8, "k": 2}, 7, "corpus/a.cg")
        assert line == "k_tree k=2,n=8 7 corpus/a.cg"
        family, params, seed, path = parse_manifest_line(line)
        assert (family, seed, path) == ("k_tree", 7, "corpus/a.cg")
        assert params == {"k": "2", "n": "8"}

    def test_no_params(self):
        line = manifest_line("platonic", {}, 0, "x.cg")
        assert parse_manifest_line(line)[1] == {}
