"""Rotation systems for orientable embeddings: face tracing, equivalence,
polyhedral and faithful tests, and the constructive fixing sets they yield.

A rotation system stores, for every vertex, a single directed cycle on its
neighborhood. Face tracing follows the fixed convention: after arc (u -> v) the
walk continues with (v -> successor(v, u)). Either of the two geometric
orientations could play this role; every predicate downstream is invariant
under conjugation, so the choice is unobservable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    BackendCapacityError,
    ContractViolationError,
    GraphCanonError,
    NoPolyhedralEmbeddingError,
    UnsupportedInputError,
)
from .graph import ColoredGraph, Labeling, apply_permutation, resolve_cap
from .oracles import automorphisms, pointwise_fixed


class RotationSystem:
    """A graph plus one cyclic successor map per vertex (colors are ignored here)."""

    __slots__ = ("graph", "succ", "_key")

    def __init__(self, graph: ColoredGraph, succ):
        self.graph = graph
        self.succ = {int(a): {int(b): int(c) for b, c in cyc.items()} for a, cyc in succ.items()}
        self._key = (
            graph.n,
            graph.edges,
            frozenset((a, frozenset(cyc.items())) for a, cyc in self.succ.items()),
        )

    def successor(self, a: int, b: int) -> int:
        return self.succ[a][b]

    def rotation_of(self, v: int) -> tuple[int, ...]:
        """The cyclic neighbor order at v, started from the smallest neighbor."""
        nb = self.graph.neighbors(v)
        if not nb:
            return ()
        out = [min(nb)]
        while len(out) < len(nb):
            out.append(self.succ[v][out[-1]])
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, RotationSystem) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"RotationSystem(n={self.graph.n}, edges={len(self.graph.edges)})"


class FacialWalk:
    """Closed directed walk along one face, stored rotated to its smallest arc."""

    __slots__ = ("arcs", "_isolated")

    def __init__(self, arcs, isolated_vertex: int | None = None):
        arcs = tuple((int(u), int(v)) for u, v in arcs)
        if arcs:
            i = arcs.index(min(arcs))
            arcs = arcs[i:] + arcs[:i]
        self.arcs = arcs
        self._isolated = isolated_vertex

    @property
    def vertices(self) -> tuple[int, ...]:
        if not self.arcs:
            return (self._isolated,) if self._isolated is not None else ()
        return tuple(u for u, _ in self.arcs)

    def undirected_edges(self):
        return {(u, v) if u < v else (v, u) for u, v in self.arcs}

    def reversed_walk(self) -> "FacialWalk":
        return FacialWalk(
            tuple((v, u) for u, v in reversed(self.arcs)), isolated_vertex=self._isolated
        )

    def same_closed_walk(self, other: "FacialWalk") -> bool:
        """Equal as closed walks: up to cyclic shift or reversal."""
        return self == other or self == other.reversed_walk()

    def __len__(self):
        return len(self.arcs)

    def __eq__(self, other):
        return (
            isinstance(other, FacialWalk)
            and self.arcs == other.arcs
            and self._isolated == other._isolated
        )

    def __hash__(self):
        return hash((self.arcs, self._isolated))

    def __repr__(self):
        return f"FacialWalk({' '.join(str(v) for v in self.vertices)})"


def rotation_violation(rs: RotationSystem) -> str | None:
    """None for a valid rotation system, else a reason string."""
    g = rs.graph
    if set(rs.succ) != set(g.vertices):
        return "successor maps must cover exactly the vertex set"
    for a in g.vertices:
        nb = g.neighbors(a)
        cyc = rs.succ[a]
        if set(cyc) != set(nb):
            return f"rotation at {a} is not defined on exactly the neighborhood"
        if set(cyc.values()) != set(nb):
            return f"rotation at {a} maps outside the neighborhood or is not a bijection"
        if nb:
            start = min(nb)
            steps = 1
            cur = cyc[start]
            while cur != start:
                cur = cyc[cur]
                steps += 1
                if steps > len(nb):
                    break
            if steps != len(nb):
                return f"rotation at {a} is not a single cycle on the neighborhood"
    return None


def validate_rotation_system(rs: RotationSystem) -> bool:
    return rotation_violation(rs) is None


def _require_valid(rs: RotationSystem):
    reason = rotation_violation(rs)
    if reason is not None:
        raise ContractViolationError(f"invalid rotation system: {reason}")


def conjugate(rs: RotationSystem) -> RotationSystem:
    """Mirror system: every vertex cycle reversed. An involution."""
    return RotationSystem(
        rs.graph, {a: {c: b for b, c in cyc.items()} for a, cyc in rs.succ.items()}
    )


def trace_faces(rs: RotationSystem) -> list[FacialWalk]:
    """Partition of all 2|E| arcs into facial walks.

    After arc (u -> v) the walk continues with (v -> successor(v, u)); every arc
    appears in exactly one walk. Requires a connected graph.
    """
    g = rs.graph
    if g.n == 0:
        raise UnsupportedInputError("the empty graph has no cellular embedding")
    if not g.is_connected():
        raise UnsupportedInputError("disconnected graphs have no cellular embedding")
    _require_valid(rs)
    if g.n == 1:
        return [FacialWalk((), isolated_vertex=1)]
    arcs = sorted((u, v) for u, v in g.edges) + sorted((v, u) for u, v in g.edges)
    arcs.sort()
    unused = set(arcs)
    walks = []
    for start in arcs:
        if start not in unused:
            continue
        walk = []
        cur = start
        while True:
            unused.discard(cur)
            walk.append(cur)
            u, v = cur
            cur = (v, rs.succ[v][u])
            if cur == start:
                break
        walks.append(FacialWalk(walk))
    return walks


def euler_genus(rs: RotationSystem) -> int:
    """Genus g from V - E + F = 2 - 2g for the traced embedding."""
    faces = trace_faces(rs)
    v, e, f = rs.graph.n, len(rs.graph.edges), len(faces)
    doubled = 2 - v + e - f
    if doubled < 0 or doubled % 2:
        raise GraphCanonError(
            f"face tracing inconsistency: V={v} E={e} F={f} gives 2-V+E-F={doubled}"
        )
    return doubled // 2


def is_polyhedral(rs: RotationSystem) -> bool:
    """Every facial walk is a cycle, and any two walks share at most one vertex
    or exactly one edge (and no other vertex)."""
    walks = trace_faces(rs)
    for w in walks:
        vs = w.vertices
        if len(vs) != len(set(vs)):
            return False
    for i in range(len(walks)):
        vi = set(walks[i].vertices)
        ei = walks[i].undirected_edges()
        for j in range(i + 1, len(walks)):
            shared_v = vi & set(walks[j].vertices)
            shared_e = ei & walks[j].undirected_edges()
            if not shared_e:
                if len(shared_v) > 1:
                    return False
            elif len(shared_e) == 1:
                (edge,) = shared_e
                if shared_v != set(edge):
                    return False
            else:
                return False
    return True


def _bare(graph: ColoredGraph) -> ColoredGraph:
    return ColoredGraph(graph.n, graph.edges) if graph.colors else graph


def rotation_image(rs: RotationSystem, alpha: Labeling) -> RotationSystem:
    """Relabeled system: the triple holds at (a, b, c) when it held at the preimages."""
    g = rs.graph
    if apply_permutation(_bare(g), alpha).edges != g.edges:
        raise ContractViolationError("the mapping is not an automorphism of the graph")
    succ = {
        alpha[a]: {alpha[b]: alpha[c] for b, c in cyc.items()}
        for a, cyc in rs.succ.items()
    }
    return RotationSystem(g, succ)


def equivalent_embeddings(first: RotationSystem, second: RotationSystem) -> bool:
    """Equal systems or conjugate systems; anything else is inequivalent."""
    if (first.graph.n, first.graph.edges) != (second.graph.n, second.graph.edges):
        raise ContractViolationError("equivalence is defined on one underlying graph")
    return first == second or first == conjugate(second)


def is_faithful(rs: RotationSystem, cap: int | None = None) -> bool:
    """Every automorphism maps the system to itself or its conjugate."""
    return _faithful_under(rs, automorphisms(_bare(rs.graph), cap))


def _faithful_under(rs: RotationSystem, group) -> bool:
    """is_faithful over `group`, the automorphisms of the graph."""
    return all(equivalent_embeddings(rotation_image(rs, a), rs) for a in group)


@dataclass(frozen=True)
class FixingTripleReport:
    """Outcome of the facial-segment fixing construction."""

    vertices: frozenset
    degenerate: bool
    verified: bool | None
    warnings: tuple[str, ...]


def fixing_triple(rs: RotationSystem, cap: int | None = None) -> FixingTripleReport:
    """A <=3-vertex fixing set from a facial-walk segment around a branch vertex.

    Paths and cycles are reported as the degenerate case with a 2-element fixing
    set. The guarantee rests on the system being faithful; a non-faithful system
    still yields a triple, with a warning. Within the oracle cap, one group
    enumeration tests faithfulness and verifies the set.
    """
    g = rs.graph
    _require_valid(rs)
    if not g.is_connected() or g.n == 0:
        raise UnsupportedInputError("fixing construction needs a connected graph")
    warnings = []
    group = automorphisms(_bare(g), cap) if g.n <= resolve_cap(cap) else None
    if group is None:
        warnings.append("faithfulness not verified: vertex count above oracle cap")
    elif not _faithful_under(rs, group):
        warnings.append("rotation system is not faithful; fixing guarantee void")

    degrees = [g.degree(v) for v in g.vertices]
    if all(d <= 2 for d in degrees):
        if g.n == 1:
            chosen = frozenset({1})
        elif all(d == 2 for d in degrees):
            u = 1
            chosen = frozenset({u, min(g.neighbors(u))})
        else:
            end = min(v for v in g.vertices if g.degree(v) <= 1)
            nb = g.neighbors(end)
            chosen = frozenset({end} | ({min(nb)} if nb else set()))
        verified = None if group is None else not pointwise_fixed(group, chosen)
        return FixingTripleReport(chosen, True, verified, tuple(warnings))

    for walk in trace_faces(rs):
        arcs = walk.arcs
        for i in range(len(arcs)):
            u, v = arcs[i]
            v2, w = arcs[(i + 1) % len(arcs)]
            if g.degree(v) >= 3:
                triple = frozenset({u, v, w})
                verified = None if group is None else not pointwise_fixed(group, triple)
                return FixingTripleReport(triple, False, verified, tuple(warnings))
    raise AssertionError("a connected non-path non-cycle graph has a branch vertex on some walk")


def enumerate_rotation_systems(graph: ColoredGraph, cap: int | None = None):
    """All rotation systems of the graph, streamed in a fixed deterministic order.

    There are exactly prod over v of (deg(v)-1)! of them.
    """
    total = 1
    for v in graph.vertices:
        d = graph.degree(v)
        if d > 1:
            total *= math.factorial(d - 1)
    limit = 1_000_000 if cap is None else cap
    if total > limit:
        raise BackendCapacityError(
            f"{total} rotation systems exceed the enumeration cap of {limit}"
        )

    per_vertex = []
    for v in graph.vertices:
        nb = sorted(graph.neighbors(v))
        if not nb:
            per_vertex.append([{}])
            continue
        options = []
        first, rest = nb[0], nb[1:]
        for perm in itertools.permutations(rest):
            order = (first,) + perm
            options.append({order[i]: order[(i + 1) % len(order)] for i in range(len(order))})
        per_vertex.append(options)

    for combo in itertools.product(*per_vertex):
        yield RotationSystem(graph, dict(zip(graph.vertices, combo)))


def polyhedral_fixing_set(graph: ColoredGraph, systems) -> frozenset:
    """Fixing set from the pairwise differences of all polyhedral systems of one genus.

    `systems` must list the 2c rotation systems representing every polyhedral
    embedding at that genus, conjugates included. Starting from a reference edge
    {x, y}, each other system contributes the two witnesses of its nearest local
    disagreement with the first system; the result has at most 4c vertices.
    No oracle is called, so there is no size cap.
    """
    systems = list(systems)
    if not systems:
        raise NoPolyhedralEmbeddingError("no polyhedral rotation systems supplied")
    if not graph.is_connected():
        raise ContractViolationError("fixing construction needs a connected graph")
    genera = set()
    for rs in systems:
        if (rs.graph.n, rs.graph.edges) != (graph.n, graph.edges):
            raise ContractViolationError("all systems must embed the given graph")
        if not is_polyhedral(rs):
            raise ContractViolationError("a supplied rotation system is not polyhedral")
        genera.add(euler_genus(rs))
    if len(genera) != 1:
        raise ContractViolationError(f"systems mix genera {sorted(genera)}; one surface required")
    pool = set(systems)
    for rs in systems:
        if conjugate(rs) not in pool:
            raise ContractViolationError("conjugate pair missing from the supplied systems")

    if not graph.edges:  # connected, so one vertex, which every automorphism fixes
        return frozenset()
    ref = systems[0]
    x, y = min(graph.edges)
    out = {x, y}

    dist = {x: 0}
    frontier = [x]
    while frontier:
        nxt = []
        for a in frontier:
            for b in graph.neighbors(a):
                if b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt

    seen = {ref}
    for other in systems[1:]:
        if other in seen:
            continue
        seen.add(other)
        differing = [a for a in graph.vertices if ref.succ[a] != other.succ[a]]
        if not differing:
            continue
        xi = min(differing, key=lambda a: (dist[a], a))
        yi = min(
            b for b in graph.neighbors(xi) if ref.succ[xi][b] != other.succ[xi][b]
        )
        zi = ref.succ[xi][yi]
        out.add(yi)
        out.add(zi)
    return frozenset(out)


def rotation_from_coordinates(graph: ColoredGraph, coords) -> RotationSystem:
    """Rotation system read off a straight-line drawing: neighbors in
    counterclockwise angular order around each vertex."""
    succ = {}
    for v in graph.vertices:
        nb = sorted(graph.neighbors(v))
        if not nb:
            succ[v] = {}
            continue
        x0, y0 = coords[v]
        order = sorted(nb, key=lambda u: math.atan2(coords[u][1] - y0, coords[u][0] - x0))
        succ[v] = {order[i]: order[(i + 1) % len(order)] for i in range(len(order))}
    return RotationSystem(graph, succ)
