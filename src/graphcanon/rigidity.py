"""Canonical labeling by individualization, for graphs of bounded rigidity index.

A sequence s = (v_1..v_r) is probed by giving v_i color b+i and, one vertex
at a time, an extra color b+r+1; the sequence is fixing when the invariant codes
of those per-vertex colorings are pairwise distinct. With a complete invariant
this agrees exactly with the automorphism-based fixing test, which is what
rigidity_consistency_check demonstrates.

The candidates arrive one key group at a time from invariant.key_groups: by
key, the tuple of their vertices' stable wl1 classes, each group in
lexicographic order, from a walk over class tuples that skips those the
class sizes rule out. InvariantBackend.order, the rule the separator
recursion chooses by too, codes each group as it is reached by the
individualized coloring of its sequences, and the tie classes are probed in
order, each in position order; the first fixing sequence is chosen. Only a
key shared by several sequences needs those codes, so on a graph that
refinement makes discrete no sequence is coded at all, and the search builds
only the groups up to the first fixing probe, never all P(n, r) sequences.
The stable partition behind the keys is computed once; under wl1 every
sequence and probe code restarts from it, and the n probe codes of a
sequence, one Wl1Backend.codes call, share one set-up of that partition.

The base b is the graph's largest input color (0 on an uncolored graph), so
an individualization color never aliases an input color. b is an isomorphism
invariant, so the forms stay canonical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ContractViolationError, InvalidGraphError
from .graph import ColoredGraph, Labeling
from . import invariant  # wl1_refine is looked up there, where perfbench wraps it
from .invariant import BruteForceBackend, InvariantBackend, _individualized
from .mincode import minimum_encoding
from .oracles import automorphisms, pointwise_fixed
from .parallel import FALLBACK, RunStats, parallel_map  # noqa: F401  (perfbench traces it here)


@dataclass(frozen=True)
class FixingCandidate:
    """One probed sequence: its per-vertex codes and whether they were distinct.

    The probe stops at the first code that repeats an earlier one, so a
    non-fixing candidate holds the codes of the vertices before that one."""

    sequence: tuple
    per_vertex_codes: dict
    fixing: bool


def _sequence_colors(graph: ColoredGraph, sequence) -> dict:
    """vertex -> [b+i] for the i-th sequence vertex, b as in individualize."""
    seq = tuple(sequence)
    if len(set(seq)) != len(seq):
        raise ContractViolationError("individualization sequence has repeated vertices")
    return _individualized(seq, graph.top_color())


def _probe_colorings(graph: ColoredGraph, sequence) -> list:
    """Per vertex v in order, the individualize_plus(graph, sequence, v) colors."""
    colors = _sequence_colors(graph, sequence)
    plus = graph.top_color() + len(colors) + 1
    return [{**colors, v: colors.get(v, []) + [plus]} for v in graph.vertices]


def individualize(graph: ColoredGraph, sequence) -> ColoredGraph:
    """Color b+i added onto the i-th sequence vertex, i = 1..r, where b is the
    largest input color (so colors 1..r on an uncolored graph)."""
    return graph.with_extra_colors(_sequence_colors(graph, sequence))


def individualize_plus(graph: ColoredGraph, sequence, vertex: int) -> ColoredGraph:
    """individualize(...) with color b+r+1 additionally on `vertex`.

    The vertex may itself belong to the sequence; color sets simply stack. A
    vertex outside 1..n raises InvalidGraphError, as a sequence vertex does.
    """
    if not 1 <= vertex <= graph.n:
        raise InvalidGraphError(f"vertex {vertex} outside 1..{graph.n}")
    return graph.with_extra_colors(_probe_colorings(graph, sequence)[vertex - 1])


def _probe(
    graph: ColoredGraph, sequence, backend: InvariantBackend, partition, stats=None
) -> FixingCandidate:
    """Code the per-vertex colorings of the sequence (individualize_plus) in
    vertex order, up to the first repeated code, which already makes the
    sequence non-fixing; `partition` is the graph's stable wl1 coloring."""
    codes, seen = {}, set()
    colorings = _probe_colorings(graph, sequence)
    for v, code in zip(graph.vertices, backend.codes(graph, colorings, partition, stats)):
        if code in seen:
            break
        seen.add(code)
        codes[v] = code
    return FixingCandidate(tuple(sequence), codes, len(codes) == graph.n)


def is_fixing_by_invariant(graph: ColoredGraph, sequence, backend: InvariantBackend) -> bool:
    """True when the per-vertex individualized codes are pairwise distinct."""
    partition, _ = invariant.wl1_refine(graph)
    return _probe(graph, sequence, backend, partition).fixing


def is_fixing_bf(graph: ColoredGraph, vertex_set, cap: int | None = None) -> bool:
    """Exact fixing-set test: no non-trivial automorphism fixes the set pointwise."""
    group = automorphisms(graph, cap)
    return not pointwise_fixed(group, set(vertex_set))


def canon_rigidity(
    graph: ColoredGraph,
    r: int,
    backend: InvariantBackend,
    workers: int = 1,
    stats: RunStats | None = None,
) -> Labeling:
    """Canonical labeling when some fixing r-sequence exists, else the exact
    minimum-encoding labeling with a diagnostic flag; above the oracle cap
    (GRAPHCANON_ORACLE_CAP) that raises OracleCapacityError.

    Sequences are probed in InvariantBackend.order's tie classes of the key
    groups of invariant.key_groups, joined in order: by key, the tuple of
    their vertices' stable wl1 classes; within one key, in (code of the
    individualized coloring, lexicographic order). The first fixing one is
    chosen, which is the fixing sequence of minimal (key, code, order). Key
    groups are built lazily, so no group after the chosen one is built. The
    one `order` call checks a bf cap before any group, so a graph above it
    is refused at every r, also when r > n leaves no sequence.
    Sequence vertices receive labels 1..r, and the rest are ranked by their
    per-vertex codes (distinct by the fixing property) shifted by r.
    `workers` is accepted for compatibility and ignored.
    """
    if r < 0:
        raise ValueError(f"rigidity sequences need r >= 0, got {r}")
    stats = stats if stats is not None else RunStats(workers)
    stats.observe_depth(1)
    partition, _ = invariant.wl1_refine(graph)
    base = graph.top_color()
    groups = invariant.key_groups(partition, r)
    tie_classes = backend.order(graph, groups, base, partition, stats)
    for seq in itertools.chain.from_iterable(tie_classes):
        best = _probe(graph, seq, backend, partition, stats)
        if best.fixing:
            break
    else:
        stats.diagnose(
            FALLBACK, 1, graph.n, f"no fixing {r}-sequence; minimum-encoding fallback"
        )
        _, labeling = minimum_encoding(graph, stats=stats)
        return labeling
    chosen, codes = best.sequence, best.per_vertex_codes

    labels = {v: i + 1 for i, v in enumerate(chosen)}
    rest = [v for v in graph.vertices if v not in labels]
    rest.sort(key=lambda v: codes[v])
    for i, v in enumerate(rest):
        labels[v] = r + 1 + i
    return Labeling(labels[v] for v in graph.vertices)


@dataclass(frozen=True)
class ConsistencyReport:
    """Agreement between the invariant fixing test and the automorphism oracle."""

    n: int
    r: int
    checked: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


def rigidity_consistency_check(
    graph: ColoredGraph,
    r: int,
    backend: InvariantBackend | None = None,
    cap: int | None = None,
) -> ConsistencyReport:
    """For every r-sequence, compare the fixing test of is_fixing_by_invariant
    (with a complete backend, brute force by default) against the
    automorphism-based test. The graph is refined once for all sequences."""
    backend = backend if backend is not None else BruteForceBackend(cap)
    group = automorphisms(graph, cap)
    partition, _ = invariant.wl1_refine(graph)
    mismatches = []
    checked = 0
    for seq in itertools.permutations(graph.vertices, r):
        by_invariant = _probe(graph, seq, backend, partition).fixing
        by_oracle = not pointwise_fixed(group, set(seq))
        checked += 1
        if by_invariant != by_oracle:
            mismatches.append((seq, by_invariant, by_oracle))
    return ConsistencyReport(graph.n, r, checked, tuple(mismatches))
