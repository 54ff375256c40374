import itertools

import pytest

from graphcanon import ColoredGraph, gen_family, invariant


def path_graph(n: int) -> ColoredGraph:
    return ColoredGraph(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n: int) -> ColoredGraph:
    return ColoredGraph(n, itertools.combinations(range(1, n + 1), 2))


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
