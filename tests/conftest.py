import itertools

import pytest

from graphcanon import ColoredGraph, Lcg64, gen_family, invariant


def path_graph(n: int) -> ColoredGraph:
    return ColoredGraph(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n: int) -> ColoredGraph:
    return ColoredGraph(n, itertools.combinations(range(1, n + 1), 2))


def prism(m: int) -> ColoredGraph:
    """Two m-cycles 1..m and m+1..2m, joined by the rungs {i, m+i}."""
    ring = [(i, i % m + 1) for i in range(1, m + 1)]
    return ColoredGraph(2 * m, ring + [(u + m, v + m) for u, v in ring]
                        + [(i, m + i) for i in range(1, m + 1)])


def antiprism(m: int) -> ColoredGraph:
    """Two m-cycles 1..m and m+1..2m, with i joined to m+i and to m+(i mod m)+1."""
    ring = [(i, i % m + 1) for i in range(1, m + 1)]
    return ColoredGraph(2 * m, ring + [(u + m, v + m) for u, v in ring]
                        + [(i, m + i) for i in range(1, m + 1)]
                        + [(i, m + i % m + 1) for i in range(1, m + 1)])


def stacked_triangulation(n: int, seed: int) -> ColoredGraph:
    """K4, then each vertex 5..n inserted into a face drawn by Lcg64(seed) and
    joined to its three corners: a 3-connected planar graph of treewidth 3."""
    rng = Lcg64(seed)
    edges = list(itertools.combinations(range(1, 5), 2))
    faces = list(itertools.combinations(range(1, 5), 3))
    for v in range(5, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return ColoredGraph(n, edges)


def mobius_ladder(m: int) -> ColoredGraph:
    """The cycle 1..2m with the m chords {i, m+i}: 3-regular like prism(m)."""
    ring = [(i, i % (2 * m) + 1) for i in range(1, 2 * m + 1)]
    return ColoredGraph(2 * m, ring + [(i, m + i) for i in range(1, m + 1)])


def every_labeled_graph(max_n):
    """Every uncolored graph on vertices 1..n, for n = 0..max_n."""
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            yield ColoredGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def count_scratch_refinements(monkeypatch) -> list:
    """Record the graph of every wl1_refine call that refines from scratch
    (no partition to restart from); the graphs are kept alive, so their ids
    stay distinct."""
    scratch = []
    real = invariant.wl1_refine

    def counting(graph, *args, **kwargs):
        if kwargs.get("partition") is None:
            scratch.append(graph)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(invariant, "wl1_refine", counting)
    return scratch


@pytest.fixture(scope="session")
def p3():
    return path_graph(3)


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def c4():
    return gen_family("cycle", n=4)


@pytest.fixture(scope="session")
def c6():
    return gen_family("cycle", n=6)


@pytest.fixture(scope="session")
def two_triangles():
    return ColoredGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
