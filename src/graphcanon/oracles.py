"""Brute-force ground truth: automorphism groups, orbits, rigidity index."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import OracleCapacityError
from .graph import ColoredGraph, Labeling, _bijections, resolve_cap


@dataclass(frozen=True)
class AutomorphismGroup:
    """All automorphisms of a colored graph, in lexicographic order."""

    elements: tuple[Labeling, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def automorphisms(graph: ColoredGraph, cap: int | None = None) -> AutomorphismGroup:
    """Every color- and adjacency-preserving permutation, by pruned exhaustive search."""
    limit = resolve_cap(cap)
    if graph.n > limit:
        raise OracleCapacityError(
            f"automorphism oracle capped at n <= {limit}, got n = {graph.n}"
        )
    return AutomorphismGroup(tuple(_bijections(graph, graph)))


def orbits(graph: ColoredGraph, cap: int | None = None):
    """Orbit partition of the vertex set under the automorphism group."""
    group = automorphisms(graph, cap)
    seen: set[int] = set()
    out = []
    for v in graph.vertices:
        if v in seen:
            continue
        orb = frozenset(alpha[v] for alpha in group)
        seen.update(orb)
        out.append(orb)
    return out


def pointwise_fixed(group, subset) -> bool:
    """True when some non-trivial group element fixes every vertex of `subset`."""
    for alpha in group:
        if all(alpha[v] == v for v in subset):
            if any(alpha[v] != v for v in range(1, alpha.n + 1)):
                return True
    return False


def rigidity_index(graph: ColoredGraph, cap: int | None = None):
    """(r, witness): the smallest fixing-set size and the first such set in lex order.

    A set is fixing when every non-trivial automorphism moves at least one of
    its vertices; rigid graphs give (0, frozenset()).
    """
    group = automorphisms(graph, cap)
    nontrivial = [a for a in group if any(a[v] != v for v in graph.vertices)]
    if not nontrivial:
        return 0, frozenset()
    verts = sorted(graph.vertices)
    for size in range(1, graph.n + 1):
        for subset in itertools.combinations(verts, size):
            if not pointwise_fixed(nontrivial, subset):
                return size, frozenset(subset)
    raise AssertionError("the full vertex set is always fixing")
