"""Pluggable invariant backends: WL color refinement and the exact brute-force oracle.

Every backend maps a colored graph to a CanonicalCode and returns equal codes on
isomorphic inputs. Only the brute-force backend is complete on all colored
graphs; the WL backends are complete on restricted classes only. The
separator recursion settles every code tie by a certificate, so its forms do
not rest on completeness.

wl1 is one worklist partition-refinement engine (Berkholz, Bonsma & Grohe,
arXiv:1509.08251; the trace follows nauty's, McKay & Piperno,
arXiv:1301.1493). It keeps an ordered partition of the vertices. Splitters
are taken from the worklist in cell-position order; a splitter splits every
cell it touches by the number of edges into it, into pieces of descending
count. A split cell that waits in the worklist is replaced there by all its
pieces, and one already processed queues all its pieces but the largest. No
step looks at vertex names, so the ordered partition and the trace are
label-independent.

The code is that trace: the colors split off at the start, then, per color
and per splitter (with its position), per touched cell its position and the
count and size of each piece. It fixes the quotient counts between the
stable cells and their colors, which is all that rounds of color refinement
can see, so two graphs get equal codes exactly when color refinement does
not tell them apart.

Every refinement is a restart: it splits off the vertices of each color, in
color order, as if the color were a splitter, then refines as usual. From
scratch it begins at one queued cell of every vertex, with the graph's own
colors; a restart of a scope begins at its stable partition, nothing
queued, with fresh colors. This is sound because refinement is monotone.
Let P be the scope's stable partition, the coarsest equitable partition
finer than its color classes, and Q the partition P with the fresh colors
split off. The recolored scope's stable partition S is equitable and finer
than the scope's color classes, so it is finer than P; it separates the
fresh colors, so it is finer than Q. Q is finer than the recolored scope's
color classes, so the coarsest equitable partition finer than Q is S, the
one refinement from scratch reaches. A restart code is label-independent
given the scope, so restart codes compare among recolorings of one scope.

One body refines: _wl1_start lays a stable coloring out as the ordered
partition's arrays, and _wl1_run refines them in place and returns the code.
wl1_refine is the one, then the other. Wl1Backend.codes lays the scope's
partition out once per call and refines a copy for each coloring, so a
restart pays for its fresh splits and what they set off, not for the set-up.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections import Counter
from heapq import heappop, heappush
from operator import itemgetter

from .errors import BackendCapacityError, InvalidGraphError, OracleCapacityError
from .graph import CanonicalCode, ColoredGraph, resolve_cap
from .mincode import minimum_encoding


def wl1_refine(graph: ColoredGraph, *, fresh=None, partition=None):
    """Stable color-refinement partition and a label-independent code.

    Returns the stable coloring (vertex -> end position of its cell in the
    ordered partition) and the trace code (see the module docstring). From
    scratch, it restarts from the one-cell partition with the graph's colors.
    Given `partition`, the stable coloring of `graph` as returned here, and
    `fresh` (vertex -> colors above every color of `graph`), it restarts from
    that partition with the fresh colors. The result is then the stable
    partition of `graph` with the fresh colors added, and the code compares
    only with restart codes of the same `graph` and `partition`. A restart
    may refine a graph.View as well, in the root's vertex ids.
    """
    n = graph.n
    worklist = []
    if partition is None:
        if fresh:
            raise ValueError("fresh colors need the stable partition to restart from")
        partition, fresh, worklist = dict.fromkeys(graph.vertices, n), graph.colors, [n]
    lab, cell, size, pos = _wl1_start(partition, graph.bound)
    code = _wl1_run(graph._adj, lab, cell, size, pos, fresh or {}, worklist)
    vertices = graph.vertices
    return dict(zip(vertices, map(cell.__getitem__, vertices))), code


def _wl1_start(partition: dict, bound: int):
    """The ordered partition of a stable coloring, as the arrays _wl1_run
    refines: lab lists the vertices cell by cell; a cell is the run
    lab[e - size[e]:e] and is named by its end e, which its untouched
    vertices keep when it splits; cell[v] is v's cell and pos[v] its index
    in lab, for vertex ids v in 1..bound (cell[v] is 0 off the partition)."""
    n = len(partition)
    lab = sorted(partition, key=partition.__getitem__)
    cell = [0] * (bound + 1)
    size = [0] * (n + 1)
    pos = [0] * (bound + 1)
    for i, v in enumerate(lab):
        e = cell[v] = partition[v]
        size[e] += 1
        pos[v] = i
    return lab, cell, size, pos


def _wl1_run(adj, lab, cell, size, pos, fresh, worklist) -> CanonicalCode:
    """Refine the ordered partition in place, from the cells queued in
    `worklist`, after splitting off the `fresh` colors, and return the code.

    Each step takes the vertices of one color, or counts the edges from the
    next splitter, and splits every cell holding a touched vertex, in
    position order, into pieces of descending count: the touched vertices
    move to the front of the cell, sorted, and the untouched ones keep the
    back and the name e. If e waits in the worklist, every new piece joins
    it; otherwise every piece but the first largest does, since the counts
    into the largest follow from those into e and into the other pieces.
    """
    count = [0] * len(cell)  # vertex -> edges into the current splitter
    queued = [False] * (len(lab) + 1)  # end of a cell -> waits in the worklist
    for e in worklist:
        queued[e] = True
    by_color: dict = {}
    for v, cs in fresh.items():
        if not 0 < v < len(cell) or not cell[v]:
            raise InvalidGraphError(f"colored vertex {v} outside the graph")
        for c in cs:
            by_color.setdefault(c, []).append(v)
    colors = sorted(by_color)
    splits = iter(colors)  # each color is split off as a splitter would be
    trace: list = []
    while True:
        touched = []
        c = next(splits, None)
        if c is not None:
            for w in by_color[c]:
                if not count[w]:
                    count[w] = 1
                    touched.append(w)
        elif worklist:
            s = heappop(worklist)
            queued[s] = False
            trace.append(s)
            for u in lab[s - size[s]:s]:
                for w in adj[u]:
                    if count[w]:
                        count[w] += 1
                    else:
                        count[w] = 1
                        touched.append(w)
        else:
            break
        if len(touched) == 1 and size[cell[touched[0]]] == 1:
            w = touched[0]  # a singleton cell, which cannot split
            trace += (1, cell[w], 1, count[w], 1)
            count[w] = 0
            continue
        by_cell: dict = {}
        for w in touched:
            e = cell[w]
            if e in by_cell:
                by_cell[e].append(w)
            else:
                by_cell[e] = [w]
        trace.append(len(by_cell))
        for e in sorted(by_cell):
            part = by_cell[e]
            s, k = size[e], len(part)
            c = count[part[0]]
            mixed = False
            for w in part:
                if count[w] != c:
                    mixed = True
                    break
            if k == s and not mixed:
                trace += (e, 1, c, s)
                continue
            p = t = e - s
            for w in part:  # move the touched vertices before the untouched
                q, x = pos[w], lab[t]
                lab[q] = x
                pos[x] = q
                t += 1
            if mixed:
                part.sort(key=count.__getitem__, reverse=True)
            lab[p:t] = part
            pieces = []  # (end, size, count)
            c = count[part[0]]
            for i, w in enumerate(part, p):
                pos[w] = i
                if count[w] != c:
                    pieces.append((i, i - p, c))
                    p, c = i, count[w]
            pieces.append((t, t - p, c))
            if k < s:
                pieces.append((e, s - k, 0))
            trace += (e, len(pieces))
            for q, m, c in pieces:
                trace += (c, m)
                size[q] = m
                if q != e:
                    for w in lab[q - m:q]:
                        cell[w] = q
            if not queued[e]:
                pieces.remove(max(pieces, key=itemgetter(1)))
            for q, _, _ in pieces:
                if not queued[q]:
                    queued[q] = True
                    heappush(worklist, q)
        for w in touched:
            count[w] = 0

    data = array("I", trace)
    if sys.byteorder == "little":
        data.byteswap()  # big-endian, so byte order is numeric order
    head = b"wl1\n" + repr(tuple(colors)).encode("ascii")
    return CanonicalCode(head + b"\n" + data.tobytes())


def _individualized(sequence, base: int) -> dict:
    """vertex -> [base+i] for the i-th vertex of the sequence, i = 1, 2, ..."""
    return {v: [base + i] for i, v in enumerate(sequence, 1)}


DEFAULT_TUPLE_CAP = 200_000


def wlk_refine(
    graph: ColoredGraph, k: int, tuple_cap: int | None = None, stats=None
) -> CanonicalCode:
    """k-dimensional refinement over vertex k-tuples, k >= 2.

    Tuples start from their ordered isomorphism type (coordinate equalities,
    pairwise adjacency, coordinate color sets) and are refined by the multiset,
    over all substitution targets w, of the joint vector of classes of the k
    one-coordinate substitutions, in rounds until a round splits no class.
    Class ids are renumbered by sorted signature each round, and the code is
    the repr of every round's (signature, count) table.
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

    def renumber(signatures: dict):
        """Class ids by sorted signature, and the (signature, count) table."""
        uniq = sorted(set(signatures.values()))
        ids = {sig: i for i, sig in enumerate(uniq)}
        counts = Counter(signatures.values())
        return {t: ids[sig] for t, sig in signatures.items()}, tuple(
            (sig, counts[sig]) for sig in uniq
        )

    tuples = list(itertools.product(verts, repeat=k))
    coloring, table = renumber({t: initial(t) for t in tuples})
    tables = [table]
    while True:
        # each signature starts with the tuple's own class, so a round only
        # splits classes, and it is stable exactly when the class count stays
        coloring, table = renumber(step(coloring))
        tables.append(table)
        if len(table) == len(tables[-2]):
            break
    if stats is not None:
        stats.note_wl_rounds(len(tables) - 1)
    return CanonicalCode(f"wl{k}\n".encode("ascii") + repr(tuple(tables)).encode("ascii"))


def bf_invariant(graph: ColoredGraph, cap: int | None = None, stats=None) -> CanonicalCode:
    """Minimum of encode(apply_permutation(G, s)) over all labelings s.

    A complete invariant on all colored graphs, and a canonical form; one
    invariant call counted in `stats`.
    """
    code, _ = minimum_encoding(graph, cap, stats=stats)
    return code


def key_groups(partition: dict, r: int):
    """The r-sequences of distinct vertices, lazily, one key group at a time.

    The key of a sequence is the tuple of its vertices' classes in
    `partition` (vertex -> class). Groups come in key order, and each is a
    list in lexicographic vertex order, so the groups joined are
    itertools.permutations of the sorted vertices, sorted stably by key. The
    walk over class tuples visits only those whose class counts fit the
    class sizes, and yields nothing when r exceeds the number of vertices.
    With the stable wl1 coloring as `partition`, class ids are cell
    positions of a label-independent ordered partition, so each class, as a
    set, is isomorphism-invariant: this is target-cell selection (McKay &
    Piperno, arXiv:1301.1493). Position order within a group depends on the
    labeling.
    """
    if r > len(partition):
        return
    if not r:
        yield [()]
        return
    members: dict = {}
    for v in sorted(partition):
        members.setdefault(partition[v], []).append(v)
    classes = sorted(members)
    room = {c: len(vs) for c, vs in members.items()}
    key: list = []
    stack = [iter(classes)]  # per position of the key, the classes left to try
    while stack:
        for c in stack[-1]:
            if room[c]:
                break
        else:
            stack.pop()
            if key:
                room[key.pop()] += 1
            continue
        room[c] -= 1
        key.append(c)
        if len(key) < r:
            stack.append(iter(classes))
            continue
        group = itertools.product(*(members[c] for c in key))
        if len(set(key)) < r:  # a repeated class may repeat a vertex
            group = (seq for seq in group if len(set(seq)) == r)
        yield list(group)
        room[key.pop()] += 1


class InvariantBackend:
    """An invariant as a reusable object: equal codes on isomorphic colored graphs.

    `codes` and `order` code recolorings of one scope: each coloring maps
    vertices to extra colors, all above the scope's colors. A scope is a
    ColoredGraph or a graph.View of one. `partition` is the scope's stable
    wl1 coloring (wl1_refine): wl1 restarts from it, and the other backends
    code `scope.with_extra_colors(coloring)`, a graph. `order` is
    the one candidate rule of both canonizers, and all that the separator
    recursion asks of a backend: it codes flaps by wl1 restarts.
    """

    name = "?"

    def code(self, graph: ColoredGraph, stats=None) -> CanonicalCode:
        raise NotImplementedError

    def codes(self, scope: ColoredGraph, colorings, partition, stats=None):
        """Per coloring, lazily, a code of the recolored scope; the codes
        compare with each other, and equal ones mean the invariant cannot
        tell the two recolorings apart."""
        return (self.code(scope.with_extra_colors(c), stats) for c in colorings)

    def order(self, scope: ColoredGraph, groups, base: int, partition, stats=None):
        """The sequences of `groups`, lazily, in tie classes: per group in
        the order given, lists of its sequences of equal code, each in
        position order, in code order.

        The groups are key groups in key order, as key_groups or the
        separator search hand them over, so the classes come in (key, code)
        order. The code of a sequence is that of the scope with its i-th
        vertex colored base+i, above every color of the scope. A group of
        one is not coded, and a larger one is coded only when it is reached.
        """
        for group in groups:
            if len(group) == 1:
                yield group
                continue
            colorings = [_individualized(seq, base) for seq in group]
            tied: dict = {}
            for seq, code in zip(group, self.codes(scope, colorings, partition, stats)):
                tied.setdefault(code, []).append(seq)
            for code in sorted(tied):
                yield tied[code]

    def __repr__(self):
        return f"<invariant {self.name}>"


class Wl1Backend(InvariantBackend):
    """Color refinement. The recolorings of one `codes` call restart from
    one set-up of the scope's stable partition, each from a copy of it, and
    only their codes are kept."""

    name = "wl1"

    def code(self, graph, stats=None):
        if stats is not None:
            stats.count_invariant()
        return wl1_refine(graph)[1]

    def codes(self, scope, colorings, partition, stats=None):
        lab, cell, size, pos = _wl1_start(partition, scope.bound)
        for coloring in colorings:
            if stats is not None:
                stats.count_invariant()
            yield _wl1_run(scope._adj, lab[:], cell[:], size[:], pos[:], coloring, [])


class WlkBackend(InvariantBackend):
    def __init__(self, k: int):
        if k < 2:
            raise ValueError("wlk backend requires k >= 2")
        self.k = k
        self.name = f"wlk:{k}"

    def code(self, graph, stats=None):
        if stats is not None:
            stats.count_invariant()
        return wlk_refine(graph, self.k, stats=stats)


class BruteForceBackend(InvariantBackend):
    """The exact minimum encoding (bf_invariant), for scopes of at most `cap`
    vertices (the oracle cap when None)."""

    name = "bf"

    def __init__(self, cap: int | None = None):
        self.cap = cap

    def code(self, graph, stats=None):
        return bf_invariant(graph, self.cap, stats)

    # perfbench's tracer looks this name up in the class, so it stays bound
    code_bounded = code

    def order(self, scope, groups, base, partition, stats=None):
        """As InvariantBackend.order, but the scope is checked against the cap
        first, so it is refused even where no sequence would be coded, and a
        tie class is cut to its first sequence: equal bf codes mean that an
        automorphism maps one sequence onto the other."""
        limit = resolve_cap(self.cap)
        if scope.n > limit:
            raise OracleCapacityError(
                f"brute-force invariant capped at n <= {limit}, got n = {scope.n}"
            )
        for tied in super().order(scope, groups, base, partition, stats):
            yield tied[:1]


def backend_from_selector(selector: str) -> InvariantBackend:
    """Parse the backend grammar: `wl1`, `wlk:<k>`, or `bf`."""
    text = selector.strip()
    if text == "wl1":
        return Wl1Backend()
    if text.startswith("wlk:"):
        try:
            k = int(text[4:])
        except ValueError:
            raise ValueError(f"bad wlk dimension in selector {selector!r}") from None
        return WlkBackend(k)
    if text == "bf":
        return BruteForceBackend()
    raise ValueError(f"unknown invariant selector {selector!r}")
