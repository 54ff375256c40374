"""Colored graphs, labelings, canonical codes, and the brute-force isomorphism oracle.

Vertices are always the integers 1..n. Colors are finite sets of non-negative
integers attached per vertex; isomorphisms must preserve them exactly. A View
reads a part of a graph in the graph's own vertex ids.
"""

from __future__ import annotations

import os
from functools import total_ordering

from .errors import InvalidGraphError, InvalidLabelingError, OracleCapacityError

#: Default size cap for factorial-search oracles. Override per call, or set the
#: GRAPHCANON_ORACLE_CAP environment variable before import.
DEFAULT_ORACLE_CAP = int(os.environ.get("GRAPHCANON_ORACLE_CAP", "10"))


def resolve_cap(cap: int | None) -> int:
    return DEFAULT_ORACLE_CAP if cap is None else int(cap)


class _Scope:
    """The searches a ColoredGraph and a View share. They walk `vertices`
    (`n` of them, increasing) and `_adj` (a neighbor set per vertex), and
    index their arrays by vertex id, 1..`bound`."""

    __slots__ = ()

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def components(self, removed=()):
        """Connected components of the graph minus `removed`, as frozensets,
        ordered by smallest member."""
        seen = set(removed)
        comps = []
        for start in self.vertices:
            if start in seen:
                continue
            stack = [start]
            comp = {start}
            seen.add(start)
            while stack:
                x = stack.pop()
                for y in self._adj[x]:
                    if y not in seen:
                        comp.add(y)
                        seen.add(y)
                        stack.append(y)
            comps.append(frozenset(comp))
        return comps

    def largest_components_without(self, removed=()) -> list:
        """largest[v] = order of the largest component of the graph minus
        `removed` minus v, for every vertex v (other entries are unused; for a
        removed v it is the largest component of the graph minus `removed`).

        One iterative lowpoint DFS (Hopcroft & Tarjan, CACM 16, 1973) over the
        graph minus `removed`. Removing v leaves, from v's own component, each
        child subtree with low[c] >= disc[v] as a component of its own and the
        rest of the component as one more; every other component stays whole.
        """
        n = self.n
        adj = self._adj
        top = self.bound + 1
        # removed vertices count as visited, and n + 1 lowers no lowpoint
        disc = [0] * top
        for x in removed:
            disc[x] = n + 1
        low = [0] * top
        size = [1] * top
        cut = [0] * top  # vertices in the child subtrees that v cuts off
        big = [0] * top  # the largest piece v's own component splits into
        comp = [0] * top  # order of v's component
        order = 0
        first = second = 0  # the two largest component orders
        for root in self.vertices:
            if disc[root]:
                continue
            order += 1
            disc[root] = low[root] = order
            visit = [root]
            stack = [(root, iter(adj[root]))]
            while stack:
                v, it = stack[-1]
                for w in it:
                    dw = disc[w]
                    if not dw:
                        order += 1
                        disc[w] = low[w] = order
                        visit.append(w)
                        stack.append((w, iter(adj[w])))
                        break
                    if dw < low[v]:
                        low[v] = dw
                else:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        s = size[v]
                        size[p] += s
                        if low[v] >= disc[p]:
                            cut[p] += s
                            if s > big[p]:
                                big[p] = s
                        elif low[v] < low[p]:
                            low[p] = low[v]
            total = size[root]
            for v in visit:
                comp[v] = total
                rest = total - 1 - cut[v]
                if rest > big[v]:
                    big[v] = rest
            if total > first:
                first, second = total, first
            elif total > second:
                second = total
        largest = [first] * top
        for v in self.vertices:
            if disc[v] <= n:
                other = second if comp[v] == first else first
                largest[v] = big[v] if big[v] > other else other
        return largest


class ColoredGraph(_Scope):
    """Simple undirected graph on vertices 1..n with a color set per vertex.

    Instances are immutable and hashable; operations that "modify" a graph
    return a new one, so graphs can be shared freely. A recoloring
    (`with_extra_colors`) shares its source's edge set and adjacency and
    validates only the merged colors.
    """

    __slots__ = ("n", "edges", "colors", "_adj", "_key")

    def __init__(self, n, edges=(), colors=None):
        n = int(n)
        if n < 0:
            raise InvalidGraphError("vertex count must be non-negative")
        self.n = n
        adj = {v: set() for v in range(1, n + 1)}
        canon_edges = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if not (1 <= u <= n and 1 <= v <= n):
                raise InvalidGraphError(f"edge ({u},{v}) leaves the vertex range 1..{n}")
            if u == v:
                raise InvalidGraphError(f"loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            canon_edges.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        self.edges = frozenset(canon_edges)
        self._adj = {v: frozenset(s) for v, s in adj.items()}
        self._set_colors(colors or {})

    def _set_colors(self, colors):
        """Validate `colors` against 1..n, keep the non-empty sets, set the key."""
        palette = {}
        for v, cs in colors.items():
            v = int(v)
            if not 1 <= v <= self.n:
                raise InvalidGraphError(f"colored vertex {v} outside 1..{self.n}")
            cset = frozenset(int(c) for c in cs)
            if any(c < 0 for c in cset):
                raise InvalidGraphError("colors must be non-negative integers")
            if cset:
                palette[v] = cset
        self.colors = palette
        self._key = (self.n, self.edges, frozenset(palette.items()))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def bound(self) -> int:
        return self.n

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def color_set(self, v: int) -> frozenset:
        return self.colors.get(v, frozenset())

    def top_color(self) -> int:
        """The largest color on any vertex; 0 on an uncolored graph."""
        return max((c for cs in self.colors.values() for c in cs), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def with_extra_colors(self, extra) -> "ColoredGraph":
        """New graph with extra[v] unioned onto each listed vertex's color set."""
        merged = {v: set(cs) for v, cs in self.colors.items()}
        for v, cs in extra.items():
            merged.setdefault(v, set()).update(cs)
        graph = ColoredGraph.__new__(ColoredGraph)
        graph.n, graph.edges, graph._adj = self.n, self.edges, self._adj
        graph._set_colors(merged)
        return graph

    def induced_subgraph(self, vertices, extra=None):
        """Renumbered induced subgraph plus the map from new ids back to originals.

        New vertices 1..t follow the sorted order of the kept originals.
        `extra` maps kept originals to colors unioned onto theirs, as in
        with_extra_colors. The subgraph is built in one pass from the kept
        vertices' neighbor sets; the colors it keeps from this graph are not
        checked again.
        """
        kept = sorted(set(vertices))
        if kept and not 1 <= kept[0] <= kept[-1] <= self.n:
            raise InvalidGraphError(f"subgraph vertices must lie in 1..{self.n}")
        index = {v: i for i, v in enumerate(kept, 1)}
        extra = extra or {}
        adj, colors = {}, {}
        for v, i in index.items():
            adj[i] = frozenset(map(index.__getitem__, index.keys() & self._adj[v]))
            cs = self.colors.get(v)
            add = extra.get(v)
            if add:
                add = frozenset(add)
                if min(add) < 0:
                    raise InvalidGraphError("colors must be non-negative integers")
                cs = cs | add if cs else add
            if cs:
                colors[i] = cs
        edges = frozenset([(i, j) for i, nb in adj.items() for j in nb if i < j])
        graph = ColoredGraph._from_parts(len(kept), edges, adj, colors)
        return graph, dict(enumerate(kept, 1))

    @classmethod
    def _from_parts(cls, n, edges, adj, colors) -> "ColoredGraph":
        """A graph from parts already in the form __init__ gives them: canonical
        edges, a frozenset of neighbors per vertex, non-empty color frozensets.
        Nothing is checked."""
        graph = cls.__new__(cls)
        graph.n, graph.edges, graph._adj, graph.colors = n, edges, adj, colors
        graph._key = (n, edges, frozenset(colors.items()))
        return graph

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def __eq__(self, other):
        return isinstance(other, ColoredGraph) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"ColoredGraph(n={self.n}, edges={len(self.edges)}, colored={len(self.colors)})"


class View(_Scope):
    """A component of a scope (a graph or a view) minus the set `removed`,
    read through the root graph: `vertices` is the component, sorted, in root
    ids. A neighbor set is the scope's, shared, less `removed` for the
    vertices in `bits`, those adjacent to `removed`. The colors are the
    root's plus, per enclosing scope, a layer (c, bits): v gets c + bits.get(v, 0).
    with_extra_colors builds the view as a graph once, renumbered 1..n in
    vertex order, as induced_subgraph does.
    """

    __slots__ = ("root", "vertices", "n", "_adj", "layers", "_built")

    def __init__(self, scope: _Scope, component, removed, layer):
        if isinstance(scope, View):
            self.root, self.layers = scope.root, scope.layers + (layer,)
        else:
            self.root, self.layers = scope, (layer,)
        self.vertices = sorted(component)
        self.n = len(self.vertices)
        adj, bits = scope._adj, layer[1]
        self._adj = {v: adj[v].difference(removed) if v in bits else adj[v] for v in self.vertices}
        self._built = None

    @property
    def bound(self) -> int:
        return self.root.n

    def color_set(self, v: int) -> frozenset:
        return self.root.color_set(v).union([c + bits.get(v, 0) for c, bits in self.layers])

    def with_extra_colors(self, extra) -> ColoredGraph:
        """The view as a ColoredGraph (see the class docstring), with extra[v]
        unioned onto the color set of each listed vertex v, a root id."""
        if self._built is None:
            layered = {v: self.color_set(v) for v in self.vertices}
            graph, origin = self.root.induced_subgraph(self.vertices, layered)
            self._built = graph, {v: u for u, v in origin.items()}
        graph, local = self._built
        return graph.with_extra_colors({local[v]: cs for v, cs in extra.items()})


class Labeling:
    """A bijection from vertices 1..n onto labels 1..n, stored as the image tuple."""

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        m = tuple(int(x) for x in mapping)
        if sorted(m) != list(range(1, len(m) + 1)):
            raise InvalidLabelingError("mapping is not a bijection onto 1..n")
        self.mapping = m

    @classmethod
    def identity(cls, n: int) -> "Labeling":
        return cls(range(1, n + 1))

    @classmethod
    def from_position_order(cls, order) -> "Labeling":
        """Labeling that gives label p to the p-th vertex of `order`."""
        order = list(order)
        m = [0] * len(order)
        for p, v in enumerate(order, start=1):
            m[v - 1] = p
        return cls(m)

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __getitem__(self, v: int) -> int:
        return self.mapping[v - 1]

    def inverse(self) -> "Labeling":
        m = [0] * len(self.mapping)
        for v, img in enumerate(self.mapping, start=1):
            m[img - 1] = v
        return Labeling(m)

    def compose(self, inner: "Labeling") -> "Labeling":
        """The bijection v -> self[inner[v]]."""
        return Labeling(self.mapping[x - 1] for x in inner.mapping)

    def __eq__(self, other):
        return isinstance(other, Labeling) and self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __iter__(self):
        return iter(self.mapping)

    def __repr__(self):
        return f"Labeling({list(self.mapping)})"


@total_ordering
class CanonicalCode:
    """A finite byte string under length-then-lexicographic total order."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = bytes(data)

    def __eq__(self, other):
        return isinstance(other, CanonicalCode) and self.data == other.data

    def __lt__(self, other):
        return (len(self.data), self.data) < (len(other.data), other.data)

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        head = self.data[:32]
        dots = "..." if len(self.data) > 32 else ""
        return f"CanonicalCode({head!r}{dots})"


def apply_permutation(graph: ColoredGraph, labeling: Labeling) -> ColoredGraph:
    """Image graph: edge {s(u),s(v)} for every edge {u,v}; s(v) inherits v's colors.

    A Labeling is a checked bijection, so the image is built from the mapped
    parts with no edge or color checked again."""
    if labeling.n != graph.n:
        raise InvalidLabelingError(
            f"labeling has {labeling.n} entries for a graph on {graph.n} vertices"
        )
    n, m = graph.n, (0, *labeling.mapping)
    source = [0] * (n + 1)
    for v in range(1, n + 1):
        source[m[v]] = v
    image = m.__getitem__
    adj = {s: frozenset(map(image, graph._adj[source[s]])) for s in range(1, n + 1)}
    edges = frozenset([(a, b) if (a := m[u]) < (b := m[v]) else (b, a) for u, v in graph.edges])
    colors = {m[v]: cs for v, cs in graph.colors.items()}
    return ColoredGraph._from_parts(n, edges, adj, colors)


def color_record(graph: ColoredGraph, v: int) -> bytes:
    """The byte record of v's sorted colors, ending in the '|' delimiter."""
    return ",".join(str(c) for c in sorted(graph.color_set(v))).encode("ascii") + b"|"


def encode(graph: ColoredGraph) -> CanonicalCode:
    """Injective byte encoding of a labeled colored graph.

    Layout: decimal n and a newline, then one record per vertex v holding v's
    sorted colors (comma separated), a '|' delimiter, and v's adjacency bits
    toward vertices 1..v-1 as '0'/'1' characters, newline terminated. Two
    labeled colored graphs produce equal codes exactly when they are equal.
    """
    out = bytearray(b"%d\n" % graph.n)
    for v in graph.vertices:
        out += color_record(graph, v)
        nb = graph._adj[v]
        for u in range(1, v):
            out += b"1" if u in nb else b"0"
        out += b"\n"
    return CanonicalCode(bytes(out))


def are_isomorphic_bf(
    graph: ColoredGraph, other: ColoredGraph, cap: int | None = None
) -> Labeling | None:
    """First color- and adjacency-preserving bijection in lexicographic order, or None.

    Ground-truth oracle with factorial worst case; the candidate filters only
    discard images that can never complete, so the lexicographic-first contract
    is preserved.
    """
    if graph.n != other.n:
        return None
    limit = resolve_cap(cap)
    if graph.n > limit:
        raise OracleCapacityError(
            f"isomorphism oracle capped at n <= {limit}, got n = {graph.n}"
        )
    if len(graph.edges) != len(other.edges):
        return None
    if sorted(map(graph.degree, graph.vertices)) != sorted(map(other.degree, other.vertices)):
        return None
    if sorted(tuple(sorted(graph.color_set(v))) for v in graph.vertices) != sorted(
        tuple(sorted(other.color_set(v))) for v in other.vertices
    ):
        return None

    return next(_bijections(graph, other), None)


def _bijections(graph: ColoredGraph, other: ColoredGraph):
    """Every color- and adjacency-preserving bijection from `graph` onto `other`
    (same order), in lexicographic order of the image tuple.

    Backtracking over vertices 1..n; an image is tried only if its degree and
    color set match and its adjacency toward the images placed so far agrees.
    """
    n = graph.n
    image = [0] * (n + 1)
    used: set[int] = set()

    def extend(v: int):
        if v > n:
            yield Labeling(image[1:])
            return
        gcol = graph.color_set(v)
        gdeg = graph.degree(v)
        for u in other.vertices:
            if u in used or other.degree(u) != gdeg or other.color_set(u) != gcol:
                continue
            if any(graph.has_edge(v, w) != other.has_edge(u, image[w]) for w in range(1, v)):
                continue
            image[v] = u
            used.add(u)
            yield from extend(v + 1)
            used.remove(u)

    return extend(1)
