"""Canonical labeling by balanced-separator recursion over a pluggable invariant.

The recursion at depth d works on a colored scope graph H. When H has more
than r vertices, its candidates are the separating r-sequences of minimal
key, the tuple of their vertices' stable wl1 classes, found by a search that
visits (r-1)-set heads in key order and stops once no head can reach the
least key. InvariantBackend.order codes them by their individualized
colorings, and the scope tries its first tie class, those of minimal code.
Each tried candidate goes first; the rest splits into flaps colored by their
adjacency pattern toward the separator, which recurse, and the flap blocks
follow in (code, certificate) order. Every flap is a graph.View of the
root (decompose_flaps), whose colors are looked up only for the records
taken; the separator search and wl1 run on it as on the root, in root ids,
so no graph is built below the root. A view keeps the vertex order that
renumbering would, so the forms are those of flaps built as graphs. Only
bf, wlk and the minimum-encoding fallback build a view's graph, once,
renumbered in vertex order. A scope of at most r vertices is its own
separator and asks no invariant: of its orderings of minimal key, its
vertices' classes in nondecreasing order, it takes the one of least record
(one vertex has one ordering). A larger scope whose every stable wl1 class
is a twin class, pairwise non-adjacent with equal neighbor sets or pairwise
adjacent with equal closed neighbor sets, is a leaf as well: its order is its
vertices by (class, vertex), with no separator search and no invariant, under
every backend, as its classes are wl1's under all of them. A discrete
partition is the case of one vertex per class (McKay & Piperno,
arXiv:1301.1493, stop at a discrete partition). The order is canonical
because every cell is constant on the root colors, which the root refine
splits off, and on each pattern layer, since the enclosing separators'
vertices are singleton cells of the partition handed down. So twins have
equal colors and equal edges to every enclosing separator, and any
permutation inside a twin class is an automorphism of the colored scope.
Neither bf nor wlk refuses such a scope above the oracle cap.

Every scope returns its order and a certificate: the chosen sequence's
record (its vertices' colors and the adjacency among them), then one (flap
code, flap certificate) pair per block. A scope of at most r vertices has
only its record, a twin-class leaf its record in its order (each position's
colors, then the sorted position pairs of its edges), and a scope ordered by
its minimum encoding has that code. The scope labeled by its order is a
function of its certificate, since flaps share no edges and their pattern
colors carry their edges to the sequence; and isomorphic scopes get equal
certificates. So a scope keeps the tried candidate of least certificate, and
no tie is settled by vertex names: the form is canonical whether or not the
invariant is complete (Gurevich 1997; McKay & Piperno, arXiv:1301.1493).
A certificate only settles ties, so it is built only where two are
compared: flaps of equal code, a tie class of more than one candidate, and
iso's two roots. A twin-class leaf or a branch returns a memoized builder (a
branch's builds its record, then its flaps' certificates); a scope of at
most r vertices, or one ordered by its minimum encoding, returns the
certificate that chose its order. Sorting flaps by code, and each run of
equal code by certificate, is the stable (code, certificate) order, so
orders and certificates are those of building them all.
Certificates of different kinds are never compared: tied candidates all
branch; flaps are compared only under equal codes, and two flaps of equal
code fill the same cells of one equitable partition, so they have equal
sizes, and a flap has only twin classes exactly when each of its cells has
no edges or all possible edges to each cell, itself included, which the
other then has too; and iso compares root certificates only under equal root
wl1 codes, which fix the same.
The flap code only has to be an isomorphism invariant that orders the
blocks, so it comes from wl1 under every backend: only the root refines from
scratch, and one restart of a scope, its chosen sequence individualized,
codes all its flaps and hands each the stable partition that its own search,
keys and candidate codes restart from. A restart whose individualized
vertices are all alone in their cells splits nothing, so it is skipped and
the scope's partition read off instead. InvariantBackend.order ranks only
candidates that recurse.

Let b be the root graph's largest input color (0 on an uncolored graph) and
W = 2^r + r. Colors introduced at depth d live in the block
(b+(d-1)W, b+dW], above every input color, so no depth collides with the
input or with another depth. b is an isomorphism invariant, so the forms stay
canonical.

Literal label values from the construction can exceed n, so every assignment is
realized as a rank in a global order and flattened to 1..n at the end.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .errors import ContractViolationError
from .graph import ColoredGraph, Labeling, View
from . import invariant  # wl1_refine is looked up there, where perfbench wraps it
from .invariant import InvariantBackend, _individualized
from .mincode import minimum_encoding
from .parallel import FALLBACK, INVARIANT_FAILURE, RunStats, parallel_map


@dataclass(frozen=True)
class SeparatorRun:
    """Fixed parameters of one separator-canonization run."""

    r: int
    backend: InvariantBackend
    color_base: int = 0  # b, the root graph's largest input color

    def __post_init__(self):
        if self.r < 1:
            raise ContractViolationError("separator size bound must be at least 1")

    @property
    def block_width(self) -> int:
        """W = 2^r + r, the width of one depth's color block."""
        return 2**self.r + self.r


def is_separator(graph: ColoredGraph, vertex_set) -> bool:
    """True when every component of G minus the set has at most n/2 vertices.

    n is the order of this graph; the comparison is exact (2*size <= n).
    """
    xs = set(vertex_set)
    if not all(v in graph._adj for v in xs):
        raise ContractViolationError("separator candidates must be vertices of the graph")
    return all(2 * len(comp) <= graph.n for comp in graph.components(xs))


def mark_separating_sequences(graph: ColoredGraph, r: int, classes=None):
    """The ordered r-sequences of distinct vertices whose set is a separator
    (see is_separator) and whose key is minimal, in lexicographic order.
    Empty when none exist.

    The key of a sequence is the tuple of its vertices' classes (`classes`
    maps each vertex to a comparable class; with None all vertices share one
    class, so every separating sequence is returned). A set's least key is
    its sorted class tuple, which its class-nondecreasing orderings take.

    With the vertices ranked by (class, vertex), each r-set is its r-1
    lowest-ranked vertices (the head) plus one vertex v ranked after them,
    and the head's class tuple is the prefix of the set's least key. Heads
    come in nondecreasing order of their class tuples. One lowpoint DFS on G
    minus a head gives, for every v at once, the largest component of G
    minus the head minus v. The search stops at the first head whose class
    tuple exceeds the prefix of the least key found, so it runs at most
    C(n-1, r-1) linear passes, and only as many as it takes to reach that key.
    """
    if r < 1:
        raise ContractViolationError("separator sequences need r >= 1")
    n = graph.n
    if classes is None:
        classes = dict.fromkeys(graph.vertices, 0)
    ranked = sorted(graph.vertices, key=classes.__getitem__)  # stable: ties by vertex
    best, sets = None, []
    for head, prefix in _heads_by_class(ranked[:-1], classes, r - 1):
        if best is not None and prefix > best[:-1]:
            break
        largest = graph.largest_components_without(head)
        for v in ranked[ranked.index(head[-1]) + 1 if head else 0:]:
            if 2 * largest[v] <= n:
                key = prefix + (classes[v],)
                if best is None or key < best:
                    best, sets = key, []
                if key == best:
                    sets.append(head + (v,))
    return sorted(
        seq
        for s in sets
        for seq in itertools.permutations(s)
        if tuple(classes[v] for v in seq) == best
    )


def _heads_by_class(ranked, classes, k: int):
    """Every k-subset of `ranked` (vertices in (class, vertex) order) as a
    rank-ordered tuple, with its class tuple, lazily in nondecreasing order
    of class tuples and in rank order among equal ones."""
    if not k:  # r = 1: the one empty head, without grouping the classes
        yield (), ()
        return
    members = {c: list(run) for c, run in itertools.groupby(ranked, classes.__getitem__)}
    for prefix in itertools.combinations_with_replacement(members, k):
        runs = itertools.groupby(prefix)
        per_class = [itertools.combinations(members[c], len(list(run))) for c, run in runs]
        for parts in itertools.product(*per_class):
            yield sum(parts, ()), prefix


def decompose_flaps(scope, sequence, depth: int, run: SeparatorRun) -> list:
    """One flap per component of scope-minus-separator, as a graph.View of
    the root, ordered by smallest vertex. The scope is the root ColoredGraph
    or a View of it.

    Each flap vertex gains the pattern color
    b + (d-1)*W + r + 1 + sum of 2^(i-1) over the sequence positions i it is
    adjacent to, on top of its inherited colors: the view's layer (c, bits),
    with bits read off the sequence vertices' neighbor sets. No graph is
    built; flap.with_extra_colors({}) builds one, renumbered 1..t in the
    order of flap.vertices. Repeated or foreign sequence vertices, and a
    sequence that is not a separator (see is_separator), raise
    ContractViolationError.
    """
    sequence = tuple(sequence)
    if len(set(sequence)) != len(sequence):
        raise ContractViolationError("separator sequence has repeated vertices")
    if not all(v in scope._adj for v in sequence):
        raise ContractViolationError("separator candidates must be vertices of the graph")
    comps = scope.components(sequence)
    if any(2 * len(comp) > scope.n for comp in comps):
        raise ContractViolationError("sequence is not a separator of this scope")
    bits: dict = {}
    for i, s in enumerate(sequence):
        for v in scope.neighbors(s):
            bits[v] = bits.get(v, 0) | 1 << i
    layer = (run.color_base + (depth - 1) * run.block_width + run.r + 1, bits)
    return [View(scope, comp, sequence, layer) for comp in comps]


def canon_separator(
    graph: ColoredGraph,
    r: int,
    backend: InvariantBackend,
    workers: int = 1,
    stats: RunStats | None = None,
) -> Labeling:
    """Canonical labeling of the graph, under every backend.

    A scope above r vertices tries the first tie class of
    InvariantBackend.order over its separating r-sequences of minimal key,
    their vertices' stable wl1 classes in order: the code-minimal ones. Of
    several, the one whose recursion gives the least certificate is kept,
    with only its diagnostics. A scope of at most r vertices, or one whose
    every stable wl1 class is a twin class, is a leaf and needs no backend;
    the latter is ordered by (class, vertex). Only the root refines.

    A scope with no separating r-sequence, at any depth, that is not a leaf
    is ordered by its exact minimum encoding instead (with a diagnostic);
    above the oracle cap that raises OracleCapacityError, so no
    non-canonical labeling is returned. A scope of twin classes above the
    cap is never refused, under any backend: a refusal needs a cell that is
    not a twin class.
    `workers` is accepted for compatibility and ignored; it only seeds a fresh
    RunStats."""
    stats = stats if stats is not None else RunStats(workers)
    partition, _ = invariant.wl1_refine(graph)
    run = SeparatorRun(r, backend, graph.top_color())
    order, _ = _rank_scope(graph, 1, run, stats, partition)
    return Labeling.from_position_order(order)


def _record(sequence, color_set, neighbors) -> tuple:
    """The graph labeled by the sequence, restricted to it: each vertex's
    colors (color_set(v)) as a sorted tuple, then the adjacency bits among
    the vertices (neighbors(v))."""
    colors = tuple([tuple(sorted(color_set(v))) for v in sequence])
    bits = 0
    for u, v in itertools.combinations(sequence, 2):
        bits = bits << 1 | (v in neighbors(u))
    return colors, bits


def _least_record(classes: dict, color_set, neighbors):
    """The order of a scope of at most r vertices, its own separator, and its
    certificate: of its orderings of minimal key under `classes`, its stable
    wl1 coloring, the one of least record (see _record), which asks no
    invariant, since orderings of equal record differ by an automorphism.
    Those orderings, in lexicographic order, are the product of every
    ordering of each class's vertices, taken in (class, vertex) order."""
    if len(classes) == 1:
        (v,) = classes
        return [v], (((tuple(sorted(color_set(v))),), 0),)
    ranked = sorted(classes, key=lambda v: (classes[v], v))
    runs = [itertools.permutations(run) for _, run in itertools.groupby(ranked, classes.get)]
    orderings = (sum(parts, ()) for parts in itertools.product(*runs))
    return min(
        ((list(seq), (_record(seq, color_set, neighbors),)) for seq in orderings),
        key=itemgetter(1),
    )


def _code_flaps(scope: ColoredGraph, coloring, partition, comps, stats):
    """Per flap, given as its component of the scope, its code and its stable
    wl1 coloring on those vertices, from one restart of the scope recolored
    by `coloring`. On a disjoint union each component's part of the stable
    partition is its own stable partition, and two components are equivalent
    exactly when they fill the same cells: a flap's code is its vertices'
    cells, sorted, and its coloring is the restart limited to it, cells
    renumbered as ends.

    When every recolored vertex is alone in its cell, the fresh colors split
    nothing off and the stable partition is already equitable, so the restart
    would return `partition` itself: it is read off directly, with no
    refinement and no invariant call, and the results are the same."""
    sizes = Counter(partition.values())
    if all(sizes[partition[v]] == 1 for v in coloring):
        classes = partition
    else:
        stats.count_invariant()
        classes, _ = invariant.wl1_refine(scope, fresh=coloring, partition=partition)
    out = []
    for comp in comps:
        cells = sorted(classes[v] for v in comp)
        ends = {c: i for i, c in enumerate(cells, 1)}  # the last index wins
        out.append((tuple(cells), {v: ends[classes[v]] for v in comp}))
    return out


def _class_leaf(classes: dict, color_set, neighbors):
    """The order of a scope whose stable wl1 cells (classes) are all twin
    classes, and a function that builds its certificate, or None when one
    cell is not a twin class. A twin class is pairwise non-adjacent with
    equal neighbor sets, or pairwise adjacent with equal closed neighbor
    sets; the two kinds cannot mix in one class, so checking consecutive
    vertices suffices. The order is the vertices by (class, vertex), and the
    certificate the record in that order: each position's colors
    (color_set(v)) as a sorted tuple, then the sorted position pairs of its
    edges (neighbors(v), all inside the scope). O(n log n + m log m), where
    _record's adjacency bits would take quadratic time."""
    ranked = sorted([(c, v) for v, c in classes.items()])
    for (c, u), (d, v) in zip(ranked, ranked[1:]):
        if c == d:  # open twins share N(u); closed ones are adjacent and share N[u]
            nu, nv = neighbors(u), neighbors(v)
            if nu != nv and (v not in nu or nu - {v} != nv - {u}):
                return None
    order = [v for _, v in ranked]

    def record():
        at = {v: i for i, v in enumerate(order)}
        edges = [(i, j) for i, v in enumerate(order) for w in neighbors(v) if (j := at[w]) > i]
        return tuple([tuple(sorted(color_set(v))) for v in order]), tuple(sorted(edges))

    return order, record


def _deferred(build, stats):
    """A deferred certificate: a function that calls build() the first time
    it is called, counted in stats.certificates_built, and returns that
    result every time."""
    built = []

    def certificate():
        if not built:
            stats.count_certificate()
            built.append(build())
        return built[0]

    return certificate


def _built(certificate) -> tuple:
    """A certificate as _rank_scope returned it, built if it was deferred."""
    return certificate() if callable(certificate) else certificate


def _rank_scope(scope, depth: int, run: SeparatorRun, stats, partition):
    """The scope's vertices in canonical order, and its certificate (see the
    module docstring). The scope is the root ColoredGraph or a View of it,
    every flap of every size included, and `partition` is its stable wl1
    coloring. A scope of at most r vertices takes its least record
    (_least_record), and a larger one whose every cell is a twin class is a
    leaf too (_class_leaf); any other ranks its flaps at depth + 1. A leaf
    of twin classes or a branch defers its certificate (_deferred), which
    _built builds where two are compared."""
    stats.count_scope()
    stats.observe_depth(depth)
    if scope.n <= run.r:
        return _least_record(partition, scope.color_set, scope.neighbors)
    leaf = _class_leaf(partition, scope.color_set, scope.neighbors)
    if leaf is not None:
        order, record = leaf
        return order, _deferred(record, stats)
    base = run.color_base + (depth - 1) * run.block_width
    sequences = mark_separating_sequences(scope, run.r, partition)
    if not sequences:
        stats.diagnose(
            FALLBACK,
            depth,
            scope.n,
            f"no separating {run.r}-sequence at depth {depth}; minimum-encoding fallback",
        )
        # a view is coded as its own graph, renumbered in vertex order
        code, labeling = minimum_encoding(scope.with_extra_colors({}), stats=stats)
        order = [scope.vertices[u - 1] for u in labeling.inverse()]
        return order, ((), code)  # () sorts before every record

    def branch(chosen):
        """The deferred certificate of `chosen`, its flaps' orders in block
        order, and the diagnostics its recursion made, taken out of stats.
        Every flap is a View of the root (decompose_flaps), ranked as a scope
        of its own: no graph is built."""
        mark = len(stats.diagnostics)
        flaps = decompose_flaps(scope, chosen, depth, run)
        comps = [flap.vertices for flap in flaps]
        coded = _code_flaps(scope, _individualized(chosen, base), partition, comps, stats)

        def rank_flap(item):
            """The flap's code, certificate and order in the scope."""
            flap, (code, classes) = item
            order, cert = _rank_scope(flap, depth + 1, run, stats, classes)
            return code, cert, order

        # in block order, (code, certificate), with equal keys in flap order:
        # stable sorts by code, then by certificate within each run of equal code
        by_code = sorted(parallel_map(rank_flap, zip(flaps, coded)), key=itemgetter(0))
        ranked = []
        for _, same in itertools.groupby(by_code, itemgetter(0)):
            same = list(same)
            if len(same) > 1:
                same.sort(key=lambda item: _built(item[1]))
            ranked.extend(same)

        def certificate():
            record = _record(chosen, scope.color_set, scope.neighbors)
            return (record, *((code, _built(cert)) for code, cert, _ in ranked))

        found = stats.diagnostics[mark:]
        del stats.diagnostics[mark:]
        return _deferred(certificate, stats), chosen, [order for _, _, order in ranked], found

    tied = next(run.backend.order(scope, [sequences], base, partition, stats))
    if len(tied) == 1:
        certificate, chosen, blocks, found = branch(tied[0])
    else:
        certificate, chosen, blocks, found = min(map(branch, tied), key=lambda b: b[0]())
    stats.diagnostics.extend(found)  # the losing branches' are dropped
    order = list(chosen)
    for block in blocks:
        order.extend(block)
    return order, certificate


def find_isomorphism(
    graph: ColoredGraph,
    other: ColoredGraph,
    r: int,
    backend: InvariantBackend,
    workers: int = 1,
    stats: RunStats | None = None,
) -> Labeling | None:
    """An isomorphism from graph onto other, verified, or None.

    Invariants decide before any form is built. A bad r is refused first
    (ContractViolationError), and graphs of different orders get None. Both
    roots are refined once by wl1, whose code is label-independent: codes
    that differ prove the pair non-isomorphic, and None is returned with
    `stats` untouched (no invariant call, depth or diagnostic). Otherwise
    both roots are ranked as canon_separator ranks them, into an order and a
    certificate, and both certificates are built, deferred or not (see the
    module docstring). Equal root wl1 codes mean that both roots have only
    twin classes, and so are both leaves, or neither. The root certificate
    is a complete invariant, so certificates that differ also give None. Equal ones give the mapping from the two orders,
    checked edge by edge as a guard against bugs in the canonizer; a failed
    check is reported as an invariant diagnostic, with None returned. So only
    a pair that wl1 does not tell apart, and whose roots have a cell that is
    not a twin class, reaches the minimum-encoding fallback and its
    OracleCapacityError.
    `workers` is ignored, as in canon_separator.
    """
    stats = stats if stats is not None else RunStats(workers)
    runs = [SeparatorRun(r, backend, g.top_color()) for g in (graph, other)]
    if graph.n != other.n:
        return None
    partition_g, code_g = invariant.wl1_refine(graph)
    partition_h, code_h = invariant.wl1_refine(other)
    if code_g != code_h:
        return None
    order_g, cert_g = _rank_scope(graph, 1, runs[0], stats, partition_g)
    order_h, cert_h = _rank_scope(other, 1, runs[1], stats, partition_h)
    if _built(cert_g) != _built(cert_h):
        return None
    mapping = Labeling(order_h).compose(Labeling.from_position_order(order_g))
    m = (0, *mapping)  # checked on the two graphs, with no image built
    edges = {(m[u], m[v]) if m[u] < m[v] else (m[v], m[u]) for u, v in graph.edges}
    colors = all(graph.color_set(v) == other.color_set(m[v]) for v in graph.vertices)
    if edges == other.edges and colors:
        return mapping
    stats.diagnose(
        INVARIANT_FAILURE,
        1,
        graph.n,
        "invariant failure: equal root certificates but the induced map is not an isomorphism",
    )
    return None
