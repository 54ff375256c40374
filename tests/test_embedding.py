import itertools

import pytest

from graphcanon import (
    ContractViolationError,
    FixingTripleReport,
    Labeling,
    NoPolyhedralEmbeddingError,
    RotationSystem,
    UnsupportedInputError,
    automorphisms,
    conjugate,
    enumerate_rotation_systems,
    equivalent_embeddings,
    euler_genus,
    fixing_triple,
    gen_family,
    is_faithful,
    is_fixing_bf,
    is_polyhedral,
    platonic_graph,
    platonic_rotation_system,
    polyhedral_fixing_set,
    rotation_image,
    trace_faces,
    validate_rotation_system,
)
from graphcanon import embedding

from .conftest import complete_graph, path_graph


def k3_rotation():
    return next(enumerate_rotation_systems(complete_graph(3)))


@pytest.fixture(scope="module")
def k4_systems():
    return list(enumerate_rotation_systems(platonic_graph("k4")))


class TestValidation:
    def test_k3_unique_rotation_valid(self):
        assert validate_rotation_system(k3_rotation())

    def test_rejects_non_neighbor_entry(self, k4):
        succ = {v: {} for v in k4.vertices}
        for v in k4.vertices:
            nb = sorted(k4.neighbors(v))
            succ[v] = {nb[i]: nb[(i + 1) % 3] for i in range(3)}
        succ[1] = {2: 3, 3: 1, 4: 2}  # 1 maps a neighbor to itself: not on G(1)
        assert not validate_rotation_system(RotationSystem(k4, succ))

    def test_rejects_split_cycles(self, k4):
        succ = {v: {} for v in k4.vertices}
        for v in k4.vertices:
            nb = sorted(k4.neighbors(v))
            succ[v] = {nb[i]: nb[(i + 1) % 3] for i in range(3)}
        succ[1] = {2: 2, 3: 4, 4: 3}  # fixed point plus a 2-cycle
        assert not validate_rotation_system(RotationSystem(k4, succ))


class TestConjugate:
    def test_k3_self_conjugate(self):
        rs = k3_rotation()
        assert conjugate(rs) == rs

    def test_k4_planar_conjugate_same_genus(self):
        rs = platonic_rotation_system("k4")
        assert conjugate(rs) != rs
        assert euler_genus(conjugate(rs)) == 0

    def test_involution_on_all_k4_systems(self, k4_systems):
        for rs in k4_systems:
            assert conjugate(conjugate(rs)) == rs

    def test_involution_on_hundred_systems(self):
        cube = platonic_graph("cube")
        seen = 0
        for rs in itertools.islice(enumerate_rotation_systems(cube), 84):
            assert conjugate(conjugate(rs)) == rs
            seen += 1
        for rs in enumerate_rotation_systems(platonic_graph("k4")):
            assert conjugate(conjugate(rs)) == rs
            seen += 1
        assert seen == 100


class TestTraceFaces:
    def test_k3_two_faces_genus_zero(self):
        walks = trace_faces(k3_rotation())
        assert len(walks) == 2
        assert euler_genus(k3_rotation()) == 0

    def test_k4_planar_four_triangles(self):
        walks = trace_faces(platonic_rotation_system("k4"))
        assert len(walks) == 4
        assert all(len(w) == 3 for w in walks)

    def test_k4_has_a_two_face_torus_rotation(self, k4_systems):
        assert any(len(trace_faces(rs)) == 2 and euler_genus(rs) == 1 for rs in k4_systems)

    def test_trees_have_one_face(self):
        for n, seed in [(1, 0), (2, 0), (5, 1), (8, 2)]:
            tree = gen_family("tree", n=n, seed=seed)
            for rs in itertools.islice(enumerate_rotation_systems(tree), 10):
                assert len(trace_faces(rs)) == 1
                assert euler_genus(rs) == 0

    def test_arc_coverage(self, k4_systems):
        g = platonic_graph("k4")
        all_arcs = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
        for rs in k4_systems:
            seen = []
            for walk in trace_faces(rs):
                seen.extend(walk.arcs)
            assert len(seen) == len(all_arcs)
            assert set(seen) == all_arcs

    def test_disconnected_rejected(self, two_triangles):
        succ = {}
        for v in two_triangles.vertices:
            nb = sorted(two_triangles.neighbors(v))
            succ[v] = {nb[0]: nb[1], nb[1]: nb[0]}
        with pytest.raises(UnsupportedInputError):
            trace_faces(RotationSystem(two_triangles, succ))

    def test_conjugation_reverses_walks(self, k4_systems):
        for rs in k4_systems[:6]:
            walks = {w for w in trace_faces(rs)}
            mirrored = trace_faces(conjugate(rs))
            assert len(mirrored) == len(walks)
            for w in mirrored:
                assert any(w.same_closed_walk(x) for x in walks)
            assert euler_genus(conjugate(rs)) == euler_genus(rs)


class TestGenus:
    def test_k4_distribution(self, k4_systems):
        genera = [euler_genus(rs) for rs in k4_systems]
        assert set(genera) == {0, 1}
        assert genera.count(0) == 2

    def test_euler_parity_holds_everywhere(self, k4_systems):
        g = platonic_graph("k4")
        for rs in k4_systems:
            f = len(trace_faces(rs))
            doubled = 2 - g.n + len(g.edges) - f
            assert doubled >= 0 and doubled % 2 == 0


class TestPolyhedral:
    def test_k4_planar_true(self):
        assert is_polyhedral(platonic_rotation_system("k4"))

    def test_tree_false(self):
        tree = gen_family("tree", n=5, seed=1)
        rs = next(enumerate_rotation_systems(tree))
        assert not is_polyhedral(rs)

    def test_c4_false(self, c4):
        rs = next(enumerate_rotation_systems(c4))
        assert not is_polyhedral(rs)

    def test_cube_and_octahedron_true(self):
        assert is_polyhedral(platonic_rotation_system("cube"))
        assert is_polyhedral(platonic_rotation_system("octahedron"))


class TestRotationImage:
    def test_identity(self):
        rs = platonic_rotation_system("k4")
        assert rotation_image(rs, Labeling.identity(4)) == rs

    def test_k3_unchanged_by_any_automorphism(self, k3):
        rs = k3_rotation()
        for alpha in automorphisms(k3):
            assert rotation_image(rs, alpha) == rs

    def test_transposition_preserves_genus(self):
        rs = platonic_rotation_system("k4")
        image = rotation_image(rs, Labeling([2, 1, 3, 4]))
        assert validate_rotation_system(image)
        assert euler_genus(image) == 0

    def test_composition_consistency(self, k4):
        rs = platonic_rotation_system("k4")
        alpha = Labeling([2, 3, 1, 4])
        beta = Labeling([1, 2, 4, 3])
        assert rotation_image(rotation_image(rs, alpha), beta) == rotation_image(
            rs, beta.compose(alpha)
        )

    def test_rejects_non_automorphism(self, p3):
        rs = next(enumerate_rotation_systems(p3))
        with pytest.raises(ContractViolationError):
            rotation_image(rs, Labeling([2, 1, 3]))


class TestEquivalence:
    def test_reflexive_and_conjugate(self):
        rs = platonic_rotation_system("k4")
        assert equivalent_embeddings(rs, rs)
        assert equivalent_embeddings(rs, conjugate(rs))

    def test_different_genus_inequivalent(self, k4_systems):
        planar = [rs for rs in k4_systems if euler_genus(rs) == 0]
        torus = [rs for rs in k4_systems if euler_genus(rs) == 1]
        assert not equivalent_embeddings(planar[0], torus[0])

    def test_equivalence_relation_on_k4(self, k4_systems):
        classes = []
        for rs in k4_systems:
            for cls in classes:
                if equivalent_embeddings(rs, cls[0]):
                    cls.append(rs)
                    break
            else:
                classes.append([rs])
        # symmetric and transitive within classes
        for cls in classes:
            for a in cls:
                for b in cls:
                    assert equivalent_embeddings(a, b)
        assert sum(len(c) for c in classes) == 16

    def test_rejects_different_graphs(self, p3, k3):
        a = next(enumerate_rotation_systems(p3))
        b = next(enumerate_rotation_systems(k3))
        with pytest.raises(ContractViolationError):
            equivalent_embeddings(a, b)


class TestFaithful:
    def test_k4_planar_faithful(self):
        assert is_faithful(platonic_rotation_system("k4"))

    def test_k3_faithful(self):
        assert is_faithful(k3_rotation())

    def test_k4_torus_rotations_unfaithful(self, k4_systems):
        outcomes = {is_faithful(rs) for rs in k4_systems if euler_genus(rs) == 1}
        assert outcomes == {False}


class TestFixingTriple:
    def test_k4(self, k4):
        report = fixing_triple(platonic_rotation_system("k4"))
        assert not report.degenerate
        assert len(report.vertices) == 3
        assert report.verified is True
        assert is_fixing_bf(k4, report.vertices)

    def test_cube(self):
        cube = platonic_graph("cube")
        report = fixing_triple(platonic_rotation_system("cube"))
        assert report.verified is True
        assert is_fixing_bf(cube, report.vertices)

    def test_cube_enumerates_the_group_once(self, monkeypatch):
        # one enumeration both tests faithfulness and verifies the triple
        calls = []

        def counting(graph, cap=None):
            calls.append(graph)
            return automorphisms(graph, cap)

        monkeypatch.setattr(embedding, "automorphisms", counting)
        report = fixing_triple(platonic_rotation_system("cube"))
        assert report == FixingTripleReport(frozenset({1, 2, 3}), False, True, ())
        assert len(calls) == 1

    def test_c5_degenerate_pair(self):
        c5 = gen_family("cycle", n=5)
        rs = next(enumerate_rotation_systems(c5))
        report = fixing_triple(rs)
        assert report.degenerate
        assert len(report.vertices) == 2
        assert report.verified is True
        assert is_fixing_bf(c5, report.vertices)

    def test_path_degenerate(self):
        p5 = path_graph(5)
        rs = next(enumerate_rotation_systems(p5))
        report = fixing_triple(rs)
        assert report.degenerate
        assert is_fixing_bf(p5, report.vertices)

    def test_unfaithful_rotation_warns_but_returns(self, k4_systems):
        bad = next(rs for rs in k4_systems if euler_genus(rs) == 1)
        report = fixing_triple(bad)
        assert report.vertices
        assert any("not faithful" in w for w in report.warnings)


class TestEnumerate:
    def test_counts(self, k4, c4, k3):
        assert len(list(enumerate_rotation_systems(k4))) == 16
        assert len(list(enumerate_rotation_systems(k3))) == 1
        assert len(list(enumerate_rotation_systems(c4))) == 1

    def test_all_valid_and_distinct(self, k4_systems):
        assert len(set(k4_systems)) == 16
        assert all(validate_rotation_system(rs) for rs in k4_systems)

    def test_cap(self):
        from graphcanon import BackendCapacityError

        k8 = complete_graph(8)
        with pytest.raises(BackendCapacityError):
            list(enumerate_rotation_systems(k8, cap=10))


class TestPolyhedralFixingSet:
    def test_k4_genus_zero(self, k4, k4_systems):
        chosen = [rs for rs in k4_systems if euler_genus(rs) == 0 and is_polyhedral(rs)]
        assert len(chosen) == 2
        fixing = polyhedral_fixing_set(k4, chosen)
        assert len(fixing) <= 4  # 4c with c = 1
        assert is_fixing_bf(k4, fixing)

    def test_conjugate_differs_at_reference_vertex(self, k4, k4_systems):
        chosen = [rs for rs in k4_systems if euler_genus(rs) == 0 and is_polyhedral(rs)]
        first, second = chosen
        assert second == conjugate(first)
        # degree 3 cycles reverse to something different at every vertex
        assert all(first.succ[a] != second.succ[a] for a in k4.vertices)
        fixing = polyhedral_fixing_set(k4, chosen)
        assert len(fixing) <= 4

    def test_one_vertex_gets_the_empty_set(self):
        k1 = path_graph(1)
        systems = list(enumerate_rotation_systems(k1))
        assert [(is_polyhedral(rs), euler_genus(rs)) for rs in systems] == [(True, 0)]
        assert polyhedral_fixing_set(k1, systems) == frozenset()
        assert is_fixing_bf(k1, frozenset())

    def test_c4_has_no_polyhedral_embedding(self, c4):
        systems = [
            rs
            for rs in enumerate_rotation_systems(c4)
            if euler_genus(rs) == 0 and is_polyhedral(rs)
        ]
        with pytest.raises(NoPolyhedralEmbeddingError):
            polyhedral_fixing_set(c4, systems)

    def test_rejects_mixed_genus(self, k4, k4_systems):
        with pytest.raises(ContractViolationError):
            polyhedral_fixing_set(k4, k4_systems)

    def test_rejects_missing_conjugate(self, k4, k4_systems):
        chosen = [rs for rs in k4_systems if euler_genus(rs) == 0 and is_polyhedral(rs)]
        with pytest.raises(ContractViolationError):
            polyhedral_fixing_set(k4, chosen[:1])

    def test_cube_census_and_fixing_set(self):
        cube = platonic_graph("cube")
        genus0 = [rs for rs in enumerate_rotation_systems(cube) if euler_genus(rs) == 0]
        assert len(genus0) == 2  # the unique sphere embedding and its mirror
        assert genus0[0] == conjugate(genus0[1])
        assert all(is_polyhedral(rs) for rs in genus0)
        fixing = polyhedral_fixing_set(cube, genus0)
        assert len(fixing) <= 4
        assert is_fixing_bf(cube, fixing)

    def test_octahedron_census_and_fixing_set(self):
        octa = platonic_graph("octahedron")
        genus0 = [rs for rs in enumerate_rotation_systems(octa) if euler_genus(rs) == 0]
        assert len(genus0) == 2
        assert all(is_polyhedral(rs) for rs in genus0)
        fixing = polyhedral_fixing_set(octa, genus0)
        assert len(fixing) <= 4
        assert is_fixing_bf(octa, fixing)


class TestPlatonicGenerators:
    def test_cube_is_cubic_genus_zero(self):
        cube = platonic_graph("cube")
        assert cube.n == 8
        assert all(cube.degree(v) == 3 for v in cube.vertices)
        rs = platonic_rotation_system("cube")
        assert len(trace_faces(rs)) == 6
        assert euler_genus(rs) == 0

    def test_octahedron_shape(self):
        octa = platonic_graph("octahedron")
        assert octa.n == 6
        assert all(octa.degree(v) == 4 for v in octa.vertices)
        assert euler_genus(platonic_rotation_system("octahedron")) == 0
