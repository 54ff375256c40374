"""Pluggable invariant backends: WL color refinement and the exact brute-force oracle.

Every backend maps a colored graph to a CanonicalCode and returns equal codes on
isomorphic inputs. Only the brute-force backend is complete on all colored
graphs; the WL backends are complete on restricted classes only, and the
canonizers treat that as an assumption to be checked, not a guarantee.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .errors import BackendCapacityError, OracleCapacityError
from .graph import CanonicalCode, ColoredGraph, encoded_length, resolve_cap
from .mincode import minimum_encoding


def _renumber(signatures: dict):
    """Canonical class ids by sorted signature, plus the (signature, count) table."""
    uniq = sorted(set(signatures.values()))
    ids = {s: i for i, s in enumerate(uniq)}
    counts = Counter(signatures.values())
    table = tuple((s, counts[s]) for s in uniq)
    return {x: ids[s] for x, s in signatures.items()}, table


def _refine(sig: dict, step, round_cap: int | None, stats):
    """The refinement loop shared by wl1_refine and wlk_refine.

    Renumbers the initial signatures, then applies `step` (coloring to next
    signatures) until a round is stable or `round_cap` rounds ran. Each next
    signature starts with the element's own class, so a round only splits
    classes, and it is stable exactly when the class count stays the same.
    Returns the final coloring and the repr of every round's table.
    """
    coloring, table = _renumber(sig)
    tables = [table]
    while round_cap is None or len(tables) <= round_cap:
        coloring, table = _renumber(step(coloring))
        tables.append(table)
        if len(table) == len(tables[-2]):
            break
    if stats is not None:
        stats.note_wl_rounds(len(tables) - 1)
    return coloring, repr(tuple(tables)).encode("ascii")


def wl1_refine(graph: ColoredGraph, round_cap: int | None = None, stats=None):
    """Stable color-refinement partition and a label-independent code.

    Round 0 classes come from the vertex color sets; each later round refines by
    (own class, sorted multiset of neighbor classes), renumbered by sorted
    signature so class ids never depend on the input labeling. The code
    serializes every round's signature table; anchoring round 0 in the literal
    color sets keeps the codes comparable across different graphs.
    """
    verts = list(graph.vertices)

    def step(coloring):
        return {
            v: (coloring[v], tuple(sorted(coloring[u] for u in graph.neighbors(v))))
            for v in verts
        }

    sig = {v: tuple(sorted(graph.color_set(v))) for v in verts}
    coloring, tables = _refine(sig, step, round_cap, stats)
    return coloring, CanonicalCode(b"wl1\n" + tables)


def sequence_keys(graph: ColoredGraph, sequences) -> list:
    """Per sequence, the tuple of its vertices' stable wl1 classes.

    Class ids come from sorted signatures, so the keys are label-independent
    and any filter or order on them is isomorphism-invariant. This is
    target-cell selection (McKay & Piperno, Practical graph isomorphism II,
    2014): the separator recursion codes only its minimal-key candidates, and
    rigidity probes its candidates in key order. The refinement is not a
    backend code and is not counted as one.
    """
    classes, _ = wl1_refine(graph)
    return [tuple(classes[v] for v in seq) for seq in sequences]


DEFAULT_TUPLE_CAP = 200_000


def wlk_refine(
    graph: ColoredGraph,
    k: int,
    tuple_cap: int | None = None,
    round_cap: int | None = None,
    stats=None,
) -> CanonicalCode:
    """k-dimensional refinement over vertex k-tuples, k >= 2.

    Tuples start from their ordered isomorphism type (coordinate equalities,
    pairwise adjacency, coordinate color sets) and are refined by the multiset,
    over all substitution targets w, of the joint vector of classes of the k
    one-coordinate substitutions. The code is built like wl1_refine's.
    """
    if k < 2:
        raise ValueError("wlk_refine requires k >= 2; use wl1_refine for k = 1")
    cap = DEFAULT_TUPLE_CAP if tuple_cap is None else tuple_cap
    n = graph.n
    if n**k > cap:
        raise BackendCapacityError(
            f"wlk:{k} needs {n**k} tuples at n = {n}, above the cap of {cap}"
        )
    verts = list(graph.vertices)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]

    def initial(t):
        eqs = tuple(1 if t[i] == t[j] else 0 for i, j in pairs)
        adjs = tuple(1 if graph.has_edge(t[i], t[j]) else 0 for i, j in pairs)
        cols = tuple(tuple(sorted(graph.color_set(x))) for x in t)
        return (eqs, adjs, cols)

    def step(coloring):
        nxt = {}
        for t in tuples:
            subs = [
                tuple(coloring[t[:i] + (w,) + t[i + 1:]] for i in range(k)) for w in verts
            ]
            nxt[t] = (coloring[t], tuple(sorted(subs)))
        return nxt

    tuples = list(itertools.product(verts, repeat=k))
    _, tables = _refine({t: initial(t) for t in tuples}, step, round_cap, stats)
    return CanonicalCode(f"wl{k}\n".encode("ascii") + tables)


def bf_invariant(graph: ColoredGraph, cap: int | None = None, stats=None) -> CanonicalCode:
    """Minimum of encode(apply_permutation(G, s)) over all labelings s.

    A complete invariant on all colored graphs, and a canonical form.
    """
    code, _ = minimum_encoding(graph, cap, stats=stats)
    return code


class InvariantBackend:
    """An invariant as a reusable object: equal codes on isomorphic colored graphs."""

    name = "?"

    def code(self, graph: ColoredGraph, stats=None) -> CanonicalCode:
        raise NotImplementedError

    def argmin(self, graphs, stats=None) -> int:
        """Index of the graph with the smallest code; the first index wins ties.
        A single graph is not coded."""
        if len(graphs) == 1:
            return 0
        codes = [self.code(g, stats) for g in graphs]
        return min(range(len(codes)), key=codes.__getitem__)

    def __call__(self, graph: ColoredGraph) -> CanonicalCode:
        return self.code(graph)

    def __repr__(self):
        return f"<invariant {self.name}>"


class Wl1Backend(InvariantBackend):
    name = "wl1"

    def __init__(self, round_cap: int | None = None):
        self.round_cap = round_cap

    def code(self, graph, stats=None):
        if stats is not None:
            stats.count_invariant()
        _, c = wl1_refine(graph, self.round_cap, stats=stats)
        return c


class WlkBackend(InvariantBackend):
    def __init__(self, k: int, tuple_cap: int | None = None, round_cap: int | None = None):
        if k < 2:
            raise ValueError("wlk backend requires k >= 2")
        self.k = k
        self.tuple_cap = tuple_cap
        self.round_cap = round_cap
        self.name = f"wlk:{k}"

    def code(self, graph, stats=None):
        if stats is not None:
            stats.count_invariant()
        return wlk_refine(graph, self.k, self.tuple_cap, self.round_cap, stats=stats)


class BruteForceBackend(InvariantBackend):
    name = "bf"

    def __init__(self, cap: int | None = None):
        self.cap = cap

    def code(self, graph, stats=None):
        if stats is not None:
            stats.count_invariant()
        return bf_invariant(graph, self.cap, stats)

    def code_bounded(self, graph, bound: bytes | None, stats=None):
        """Code if it is <= bound (raw-byte compare), else None. Internal fast path."""
        if stats is not None:
            stats.count_invariant()
        code, _ = minimum_encoding(graph, self.cap, prune_above=bound, stats=stats)
        return code

    def argmin(self, graphs, stats=None) -> int:
        """As InvariantBackend.argmin, by a scan that threads a running bound
        through the candidates, which prunes most of them outright. Raw-byte
        bounds equal the code order only at one encoded length, hence the guard.
        Every graph is checked against the cap first, so a graph above it is
        refused even where it would not be coded."""
        limit = resolve_cap(self.cap)
        for g in graphs:
            if g.n > limit:
                raise OracleCapacityError(
                    f"brute-force invariant capped at n <= {limit}, got n = {g.n}"
                )
        if len(graphs) < 2 or len({encoded_length(g) for g in graphs}) > 1:
            return super().argmin(graphs, stats)
        best, bound = None, None
        for i, g in enumerate(graphs):
            code = self.code_bounded(g, bound, stats)
            if code is not None and (bound is None or code.data < bound):
                best, bound = i, code.data
        return best


def backend_from_selector(
    selector: str,
    oracle_cap: int | None = None,
    tuple_cap: int | None = None,
    round_cap: int | None = None,
) -> InvariantBackend:
    """Parse the backend grammar: `wl1`, `wlk:<k>`, or `bf`."""
    text = selector.strip()
    if text == "wl1":
        return Wl1Backend(round_cap)
    if text.startswith("wlk:"):
        try:
            k = int(text[4:])
        except ValueError:
            raise ValueError(f"bad wlk dimension in selector {selector!r}") from None
        return WlkBackend(k, tuple_cap, round_cap)
    if text == "bf":
        return BruteForceBackend(oracle_cap)
    raise ValueError(f"unknown invariant selector {selector!r}")
