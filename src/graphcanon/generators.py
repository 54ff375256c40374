"""Seeded graph-family generators and the reproducible 64-bit linear PRNG.

Corpora must be bit-identical across runs and across implementations, so all
randomness flows through Lcg64 below, whose constants are part of the contract.
"""

from __future__ import annotations

import heapq
import itertools

from .errors import InvalidGraphError
from .graph import ColoredGraph
from .embedding import RotationSystem, rotation_from_coordinates

MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg64:
    """Deterministic 64-bit linear congruential generator.

    state' = (state * 6364136223846793005 + 1442695040888963407) mod 2**64,
    starting from the seed; each draw returns the updated state. randrange(k)
    reduces the top 53 bits of a draw modulo k (the low bits of a power-of-two
    LCG are nearly periodic and must not be used), and chance(p) compares the
    top 53 bits against floor(p * 2**53). These reductions are part of the
    reproducibility contract, not just the constants.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state * MULTIPLIER + INCREMENT) & _MASK64
        return self.state

    def randrange(self, k: int) -> int:
        """Uniform-ish integer in [0, k)."""
        if k <= 0:
            raise ValueError("randrange needs a positive bound")
        return (self.next_u64() >> 11) % k

    def chance(self, p: float) -> bool:
        """True with probability approximately p."""
        return (self.next_u64() >> 11) < int(p * (1 << 53))

    def shuffle(self, items: list):
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def _tree_from_pruefer(seq, n: int) -> ColoredGraph:
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        v = heapq.heappop(leaves)
        edges.append((v, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return ColoredGraph(n, edges)


def _random_tree(n: int, rng: Lcg64) -> ColoredGraph:
    if n < 1:
        raise InvalidGraphError("trees need at least one vertex")
    if n == 1:
        return ColoredGraph(1)
    if n == 2:
        return ColoredGraph(2, [(1, 2)])
    seq = [rng.randrange(n) + 1 for _ in range(n - 2)]
    return _tree_from_pruefer(seq, n)


def _k_tree(n: int, k: int, rng: Lcg64) -> ColoredGraph:
    if k < 1 or n < k + 1:
        raise InvalidGraphError(f"a {k}-tree needs at least {k + 1} vertices")
    base = list(range(1, k + 2))
    edges = [(u, v) for u, v in itertools.combinations(base, 2)]
    cliques = [tuple(c) for c in itertools.combinations(base, k)]
    for v in range(k + 2, n + 1):
        clique = cliques[rng.randrange(len(cliques))]
        for u in clique:
            edges.append((u, v))
        for drop in range(k):
            cliques.append(tuple(sorted(set(clique) - {clique[drop]} | {v})))
    return ColoredGraph(n, edges)


def _partial_k_tree(n: int, k: int, rng: Lcg64, drop: float) -> ColoredGraph:
    full = _k_tree(n, k, rng)
    kept = [e for e in sorted(full.edges) if not rng.chance(drop)]
    return ColoredGraph(n, kept)


def balanced_tree(branching: int, depth: int) -> ColoredGraph:
    """The rooted tree in which every vertex above depth `depth` has
    `branching` children, numbered level by level from the root, 1: the
    children of v are branching*(v-1)+2 .. branching*v+1."""
    if branching < 1 or depth < 0:
        raise InvalidGraphError("a balanced tree needs branching >= 1 and depth >= 0")
    n = sum(branching**i for i in range(depth + 1))
    return ColoredGraph(n, [(1 + (v - 2) // branching, v) for v in range(2, n + 1)])


def _gnp(n: int, p: float, rng: Lcg64) -> ColoredGraph:
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.chance(p):
                edges.append((u, v))
    return ColoredGraph(n, edges)


_PLATONIC_EDGES = {
    "k4": (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    "cube": (
        8,
        [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (7, 8), (5, 8),
         (1, 5), (2, 6), (3, 7), (4, 8)],
    ),
    # octahedron = K2,2,2 with non-adjacent pairs {1,4}, {2,5}, {3,6}
    "octahedron": (
        6,
        [(1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6),
         (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)],
    ),
}

# Straight-line planar drawings; rotations are read off by angular order.
_PLATONIC_COORDS = {
    "k4": {1: (0.0, 0.0), 2: (4.0, 0.0), 3: (2.0, 3.0), 4: (2.0, 1.0)},
    "cube": {
        1: (0.0, 0.0), 2: (6.0, 0.0), 3: (6.0, 6.0), 4: (0.0, 6.0),
        5: (2.0, 2.0), 6: (4.0, 2.0), 7: (4.0, 4.0), 8: (2.0, 4.0),
    },
    "octahedron": {
        1: (0.0, 0.0), 2: (10.0, 0.0), 3: (5.0, 8.0),
        4: (6.0, 3.4), 5: (4.0, 3.4), 6: (5.0, 1.8),
    },
}


def platonic_graph(name: str) -> ColoredGraph:
    key = name.strip().lower()
    if key not in _PLATONIC_EDGES:
        raise InvalidGraphError(f"unknown platonic solid {name!r}; have {sorted(_PLATONIC_EDGES)}")
    n, edges = _PLATONIC_EDGES[key]
    return ColoredGraph(n, edges)


def platonic_rotation_system(name: str) -> RotationSystem:
    """The planar (genus 0) rotation system of k4, cube, or octahedron."""
    key = name.strip().lower()
    graph = platonic_graph(key)
    return rotation_from_coordinates(graph, _PLATONIC_COORDS[key])


def gen_family(
    family: str,
    n: int | None = None,
    k: int | None = None,
    p: float | None = None,
    name: str | None = None,
    seed: int = 0,
    depth: int | None = None,
) -> ColoredGraph:
    """Deterministic family generator; identical arguments give identical graphs.

    Families: tree, cycle, complete, star, k_tree, partial_k_tree, random_gnp,
    platonic, balanced_tree (k children per vertex, `depth` levels below the
    root; see balanced_tree). partial_k_tree deletes each k-tree edge with probability p
    (default 0.25); random_gnp keeps each pair with probability p (default 0.5).
    A p outside [0, 1], or NaN, raises InvalidGraphError.
    """
    if p is not None and not 0 <= p <= 1:  # NaN fails the comparison too
        raise InvalidGraphError(f"the probability p must lie in [0, 1], got {p}")
    fam = family.strip().lower()
    rng = Lcg64(seed)
    if fam == "tree":
        return _random_tree(_need(n, "n"), rng)
    if fam == "cycle":
        n = _need(n, "n")
        if n < 3:
            raise InvalidGraphError("cycles need at least three vertices")
        return ColoredGraph(n, [(v, v % n + 1) for v in range(1, n + 1)])
    if fam == "complete":
        n = _need(n, "n")
        return ColoredGraph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
    if fam == "star":
        n = _need(n, "n")
        return ColoredGraph(n, [(1, v) for v in range(2, n + 1)])
    if fam == "k_tree":
        return _k_tree(_need(n, "n"), _need(k, "k"), rng)
    if fam == "partial_k_tree":
        return _partial_k_tree(_need(n, "n"), _need(k, "k"), rng, 0.25 if p is None else p)
    if fam == "random_gnp":
        return _gnp(_need(n, "n"), 0.5 if p is None else p, rng)
    if fam == "platonic":
        return platonic_graph(_need(name, "name"))
    if fam == "balanced_tree":
        return balanced_tree(_need(k, "k"), _need(depth, "depth"))
    raise InvalidGraphError(f"unknown family {family!r}")


def _need(value, label):
    if value is None:
        raise InvalidGraphError(f"this family requires the {label!r} parameter")
    return value


def manifest_line(family: str, params: dict, seed: int, path: str) -> str:
    """One corpus-manifest record: `<family> <params> <seed> <cg-file-path>`."""
    body = ",".join(f"{k}={params[k]}" for k in sorted(params)) if params else "-"
    return f"{family} {body} {seed} {path}"


def parse_manifest_line(line: str):
    family, body, seed, path = line.strip().split(" ", 3)
    params = {}
    if body != "-":
        for piece in body.split(","):
            key, value = piece.split("=", 1)
            params[key] = value
    return family, params, int(seed), path
