"""Canonical labeling by individualization, for graphs of bounded rigidity index.

A sequence s = (v_1..v_r) is probed by giving v_i color b+i-1 and, one vertex
at a time, an extra color b+r; the sequence is fixing when the invariant codes
of those per-vertex colorings are pairwise distinct. With a complete invariant
this agrees exactly with the automorphism-based fixing test, which is what
rigidity_consistency_check demonstrates.

Sequences are probed in an isomorphism-invariant order: by key, the tuple of
their vertices' stable wl1 classes, and within one key by the code of their
individualized coloring; the first fixing one is chosen. Only a key shared by
several sequences needs those codes, so on a graph that refinement makes
discrete no sequence is coded at all. The stable partition behind the keys is
computed once; under wl1 every sequence and probe code restarts from it.

The base b is one above the graph's largest input color (b = 1 on an
uncolored graph), so an individualization color never aliases an input color.
b is an isomorphism invariant, so the forms stay canonical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ContractViolationError, InvariantFailureError
from .graph import ColoredGraph, Labeling
from . import invariant  # wl1_refine is looked up there, where perfbench wraps it
from .invariant import BruteForceBackend, InvariantBackend, sequence_keys
from .mincode import minimum_encoding
from .oracles import automorphisms, pointwise_fixed
from .parallel import FALLBACK, RunStats, parallel_map  # noqa: F401  (perfbench traces it here)


@dataclass(frozen=True)
class FixingCandidate:
    """One probed sequence: its per-vertex codes and whether they were distinct."""

    sequence: tuple
    per_vertex_codes: dict
    fixing: bool


def _color_base(graph: ColoredGraph) -> int:
    """One above the largest input color; 1 on an uncolored graph."""
    return graph.top_color() + 1


def _sequence_colors(graph: ColoredGraph, sequence) -> dict:
    """vertex -> [b+i-1] for the i-th sequence vertex, b as in individualize."""
    seq = tuple(sequence)
    if len(set(seq)) != len(seq):
        raise ContractViolationError("individualization sequence has repeated vertices")
    base = _color_base(graph)
    return {v: [base + i] for i, v in enumerate(seq)}


def _probe_colorings(graph: ColoredGraph, sequence) -> list:
    """Per vertex v in order, the individualize_plus(graph, sequence, v) colors."""
    colors = _sequence_colors(graph, sequence)
    plus = _color_base(graph) + len(colors)
    return [{**colors, v: colors.get(v, []) + [plus]} for v in graph.vertices]


def individualize(graph: ColoredGraph, sequence) -> ColoredGraph:
    """Color b+i-1 added onto the i-th sequence vertex, i = 1..r, where b is
    one above the largest input color (so colors 1..r on an uncolored graph)."""
    return graph.with_extra_colors(_sequence_colors(graph, sequence))


def individualize_plus(graph: ColoredGraph, sequence, vertex: int) -> ColoredGraph:
    """individualize(...) with color b+r additionally on `vertex`.

    The vertex may itself belong to the sequence; color sets simply stack.
    """
    return graph.with_extra_colors(_probe_colorings(graph, sequence)[vertex - 1])


def _probe(
    graph: ColoredGraph, sequence, backend: InvariantBackend, stats=None, partition=None
) -> FixingCandidate:
    """Code every per-vertex coloring of the sequence (individualize_plus);
    `partition` is the graph's stable wl1 coloring, if known."""
    codes = backend.codes(graph, _probe_colorings(graph, sequence), partition, stats)
    fixing = len(set(codes)) == graph.n
    return FixingCandidate(tuple(sequence), dict(zip(graph.vertices, codes)), fixing)


def is_fixing_by_invariant(graph: ColoredGraph, sequence, backend: InvariantBackend) -> bool:
    """True when the per-vertex individualized codes are pairwise distinct."""
    return _probe(graph, sequence, backend).fixing


def is_fixing_bf(graph: ColoredGraph, vertex_set, cap: int | None = None) -> bool:
    """Exact fixing-set test: no non-trivial automorphism fixes the set pointwise."""
    group = automorphisms(graph, cap)
    return not pointwise_fixed(group, set(vertex_set))


def _probe_order(graph: ColoredGraph, r: int, backend: InvariantBackend, stats, partition):
    """Every r-sequence, in the order canon_rigidity probes them.

    Sequences are grouped by key (sequence_keys over `partition`, the graph's
    stable wl1 coloring) and the groups come in key order. A group of one
    sequence is not coded; a larger group is coded when it is reached and
    yields in (code, lexicographic order).
    """
    sequences = list(itertools.permutations(graph.vertices, r))
    groups: dict = {}
    for seq, key in zip(sequences, sequence_keys(partition, sequences)):
        groups.setdefault(key, []).append(seq)
    for key in sorted(groups):
        group = groups[key]
        if len(group) > 1:
            colorings = [_sequence_colors(graph, s) for s in group]
            codes = backend.codes(graph, colorings, partition, stats)
            # sorted() is stable and permutations() is lexicographic, so among
            # tied codes the lexicographically first sequence comes first
            group = [group[i] for i in sorted(range(len(group)), key=codes.__getitem__)]
        yield from group


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

    Sequences are probed in key order, the tuple of their vertices' stable
    wl1 classes; within one key, in (code of the individualized coloring,
    lexicographic order). The first fixing one is chosen, which is the
    fixing sequence of minimal (key, code, order). Sequence vertices receive
    labels 1..r, and the rest are ranked by their per-vertex codes (distinct
    by the fixing property) shifted by r. `workers` is accepted for
    compatibility and ignored.
    """
    if r < 0:
        raise ValueError(f"rigidity sequences need r >= 0, got {r}")
    stats = stats if stats is not None else RunStats(workers)
    stats.observe_depth(1)
    partition, _ = invariant.wl1_refine(graph)
    for seq in _probe_order(graph, r, backend, stats, partition):
        best = _probe(graph, seq, backend, stats, partition)
        if best.fixing:
            break
    else:
        stats.diagnose(
            FALLBACK, 1, graph.n, f"no fixing {r}-sequence; minimum-encoding fallback"
        )
        stats.count_invariant()
        _, labeling = minimum_encoding(graph, stats=stats)
        return labeling
    chosen, codes = best.sequence, best.per_vertex_codes

    labels = {v: i + 1 for i, v in enumerate(chosen)}
    rest = [v for v in graph.vertices if v not in labels]
    rest.sort(key=lambda v: codes[v])
    for i in range(len(rest) - 1):
        if codes[rest[i]] == codes[rest[i + 1]]:
            raise InvariantFailureError(
                "per-vertex codes tied on a sequence marked fixing; invariant is incomplete"
            )
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
    """For every r-sequence, compare is_fixing_by_invariant (with a complete
    backend, brute force by default) against the automorphism-based test."""
    backend = backend if backend is not None else BruteForceBackend(cap)
    group = automorphisms(graph, cap)
    mismatches = []
    checked = 0
    for seq in itertools.permutations(graph.vertices, r):
        by_invariant = is_fixing_by_invariant(graph, seq, backend)
        by_oracle = not pointwise_fixed(group, set(seq))
        checked += 1
        if by_invariant != by_oracle:
            mismatches.append((seq, by_invariant, by_oracle))
    return ConsistencyReport(graph.n, r, checked, tuple(mismatches))
