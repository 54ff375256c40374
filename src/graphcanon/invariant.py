"""Pluggable invariant backends: WL color refinement and the exact brute-force oracle.

Every backend maps a colored graph to a CanonicalCode and returns equal codes on
isomorphic inputs. Only the brute-force backend is complete on all colored
graphs; the WL backends are complete on restricted classes only, and the
canonizers treat that as an assumption to be checked, not a guarantee.

wl1 is one worklist partition-refinement engine (Berkholz, Bonsma & Grohe,
arXiv:1509.08251; the trace follows nauty's, McKay & Piperno,
arXiv:1301.1493). It keeps an ordered partition of the vertices. Splitters
are taken from the worklist in cell-position order; a splitter splits every
cell it touches by the number of edges into it, into pieces of descending
count. A split cell that waits in the worklist is replaced there by all its
pieces, and one already processed queues all its pieces but the largest. No
step looks at vertex names, so the ordered partition and the trace are
label-independent.

The code is that trace: the initial color table (color set and size per
cell, in order), then per splitter its position and, per touched cell, its
position and the count and size of each piece. It fixes the quotient counts
between the stable cells and their colors, which is all that rounds of color
refinement can see, so two graphs get equal codes exactly when color
refinement does not tell them apart.

A restart begins at the stable partition of a scope and splits off the
vertices of each fresh color, in color order, as if the color were a
splitter; then it refines as usual. This is sound because refinement is
monotone. Let P be the scope's stable partition, the coarsest equitable
partition finer than its color classes, and Q the partition P with the
fresh colors split off. The recolored scope's stable partition S is
equitable and finer than the scope's color classes, so it is finer than P;
it separates the fresh colors, so it is finer than Q. Q is finer than the
recolored scope's color classes, so the coarsest equitable partition finer
than Q is S, the one refinement from scratch reaches. A restart code starts
with the fresh colors in place of the color table; it is label-independent
given the scope, so restart codes compare among recolorings of one scope.
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
    scratch, the initial cells are the vertices of equal color set, ordered
    by color set. Given `partition`, the stable coloring of `graph` as
    returned here, and `fresh` (vertex -> colors above every color of
    `graph`), it restarts from that partition instead. The result is then
    the stable partition of `graph` with the fresh colors added, and the code
    compares only with restart codes of the same `graph` and `partition`.
    """
    n = graph.n
    neighbors = graph.neighbors
    # A cell is the run lab[e - size[e]:e] and is named by its end e, which
    # its untouched vertices keep when it splits.
    cell = [0] * (n + 1)  # vertex -> end of its cell
    size = [0] * (n + 1)  # end of a cell -> its size
    pos = [0] * (n + 1)  # vertex -> position in lab
    count = [0] * (n + 1)  # vertex -> edges into the current splitter
    queued = [False] * (n + 1)  # end of a cell -> waits in the worklist
    worklist: list[int] = []
    trace = array("I")

    def split(e: int, touched: list):
        """Split cell e by `count`, given its vertices with a non-zero count.

        The pieces come in descending count: the touched vertices move to the
        front of the cell, sorted, and the untouched ones keep the back and
        the name e. If e waits in the worklist, every new piece joins it;
        otherwise every piece but the first largest does, since the counts
        into the largest follow from those into e and into the other pieces.
        """
        s, k = size[e], len(touched)
        c = count[touched[0]]
        mixed = False
        for w in touched:
            if count[w] != c:
                mixed = True
                break
        if k == s and not mixed:
            trace.extend((e, 1, c, s))
            return
        p = t = e - s
        for w in touched:  # move the touched vertices before the untouched
            q, x = pos[w], lab[t]
            lab[q] = x
            pos[x] = q
            t += 1
        if mixed:
            touched.sort(key=count.__getitem__, reverse=True)
        lab[p:t] = touched
        pieces = []  # (end, size, count)
        c = count[touched[0]]
        for i, w in enumerate(touched, p):
            pos[w] = i
            if count[w] != c:
                pieces.append((i, i - p, c))
                p, c = i, count[w]
        pieces.append((t, t - p, c))
        if k < s:
            pieces.append((e, s - k, 0))
        trace.extend((e, len(pieces)))
        for q, m, c in pieces:
            trace.extend((c, m))
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

    def split_cells(touched):
        """Split every cell holding a touched vertex, in position order, then
        reset the counts."""
        by_cell: dict = {}
        for w in touched:
            e = cell[w]
            if e in by_cell:
                by_cell[e].append(w)
            else:
                by_cell[e] = [w]
        trace.append(len(by_cell))
        for e in sorted(by_cell):
            if size[e] == 1:
                trace.extend((e, 1, count[by_cell[e][0]], 1))
            else:
                split(e, by_cell[e])
        for w in touched:
            count[w] = 0

    if partition is None:
        if fresh:
            raise ValueError("fresh colors need the stable partition to restart from")
        groups: dict = {}
        colors = graph.colors
        for v in graph.vertices:
            key = tuple(sorted(colors[v])) if v in colors else ()
            if key in groups:
                groups[key].append(v)
            else:
                groups[key] = [v]
        table = tuple((cs, len(groups[cs])) for cs in sorted(groups))
        head = b"wl1\n" + repr(table).encode("ascii")
        lab = []
        for cs, m in table:
            lab.extend(groups[cs])
            e = len(lab)
            for v in groups[cs]:
                cell[v] = e
            size[e] = m
            queued[e] = True
            worklist.append(e)  # ascending, hence already a heap
        for i, v in enumerate(lab):
            pos[v] = i
    else:
        lab = sorted(partition, key=partition.__getitem__)
        for i, v in enumerate(lab):
            e = partition[v]
            cell[v] = e
            size[e] += 1
            pos[v] = i
        by_color: dict = {}
        for v, cs in (fresh or {}).items():
            if not 1 <= v <= n:
                raise InvalidGraphError(f"colored vertex {v} outside 1..{n}")
            for c in cs:
                by_color.setdefault(c, set()).add(v)
        colors = sorted(by_color)
        head = b"wl1+\n" + repr(tuple(colors)).encode("ascii")
        for c in colors:  # split off each fresh color as a splitter would
            touched = list(by_color[c])
            for w in touched:
                count[w] = 1
            split_cells(touched)

    while worklist:
        s = heappop(worklist)
        queued[s] = False
        touched = []
        for u in lab[s - size[s]:s]:
            for w in neighbors(u):
                if count[w]:
                    count[w] += 1
                else:
                    count[w] = 1
                    touched.append(w)
        trace.append(s)
        split_cells(touched)

    if sys.byteorder == "little":
        trace.byteswap()  # big-endian, so byte order is numeric order
    coloring = dict(zip(graph.vertices, cell[1:]))
    return coloring, CanonicalCode(head + b"\n" + trace.tobytes())


def sequence_keys(classes: dict, sequences) -> list:
    """Per sequence, the tuple of its vertices' stable wl1 classes.

    `classes` is a stable coloring from wl1_refine. Class ids are cell
    positions of a label-independent ordered partition, so the keys are
    label-independent and any filter or order on them is
    isomorphism-invariant. This is target-cell selection (McKay & Piperno,
    Practical graph isomorphism II, 2014): the separator recursion codes only
    its minimal-key candidates, and rigidity probes its candidates in key
    order. The refinement is not a backend code and is not counted as one.
    """
    return [tuple(classes[v] for v in seq) for seq in sequences]


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

    A complete invariant on all colored graphs, and a canonical form.
    """
    code, _ = minimum_encoding(graph, cap, stats=stats)
    return code


class InvariantBackend:
    """An invariant as a reusable object: equal codes on isomorphic colored graphs.

    `codes` and `argmin` code recolorings of one scope: each coloring maps
    vertices to extra colors, all above the scope's colors. `partition`, the
    scope's stable wl1 coloring (wl1_refine), lets wl1 restart from it; the
    other backends ignore it and code `scope.with_extra_colors(coloring)`.
    """

    name = "?"

    def code(self, graph: ColoredGraph, stats=None) -> CanonicalCode:
        raise NotImplementedError

    def code_and_partition(self, graph: ColoredGraph, stats=None):
        """The code, and the stable wl1 coloring when coding computed it
        (wl1 only; None otherwise)."""
        return self.code(graph, stats), None

    def codes(self, scope: ColoredGraph, colorings, partition=None, stats=None) -> list:
        """Per coloring, a code of the recolored scope; the codes compare with
        each other, and equal ones mean the invariant cannot tell the two
        recolorings apart."""
        return [self.code(scope.with_extra_colors(c), stats) for c in colorings]

    def argmin(self, scope: ColoredGraph, colorings, partition=None, stats=None) -> int:
        """Index of the coloring with the smallest code; the first index wins
        ties. A single coloring is not coded."""
        if len(colorings) == 1:
            return 0
        codes = self.codes(scope, colorings, partition, stats)
        return min(range(len(codes)), key=codes.__getitem__)

    def __call__(self, graph: ColoredGraph) -> CanonicalCode:
        return self.code(graph)

    def __repr__(self):
        return f"<invariant {self.name}>"


class Wl1Backend(InvariantBackend):
    """Color refinement. Recolorings restart from the scope's stable
    partition, which is refined from scratch when it is not given."""

    name = "wl1"

    def code(self, graph, stats=None):
        return self.code_and_partition(graph, stats)[0]

    def code_and_partition(self, graph, stats=None):
        if stats is not None:
            stats.count_invariant()
        classes, code = wl1_refine(graph)
        return code, classes

    def codes(self, scope, colorings, partition=None, stats=None):
        if partition is None:
            partition, _ = wl1_refine(scope)
        out = []
        for coloring in colorings:
            if stats is not None:
                stats.count_invariant()
            out.append(wl1_refine(scope, fresh=coloring, partition=partition)[1])
        return out


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
        if stats is not None:
            stats.count_invariant()
        return bf_invariant(graph, self.cap, stats)

    # perfbench's tracer looks this name up in the class, so it stays bound
    code_bounded = code

    def argmin(self, scope, colorings, partition=None, stats=None) -> int:
        """As InvariantBackend.argmin, but the scope is checked against the
        cap first, so it is refused even where no coloring would be coded."""
        limit = resolve_cap(self.cap)
        if scope.n > limit:
            raise OracleCapacityError(
                f"brute-force invariant capped at n <= {limit}, got n = {scope.n}"
            )
        return super().argmin(scope, colorings, partition, stats)


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
