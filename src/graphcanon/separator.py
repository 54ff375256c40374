"""Canonical labeling by balanced-separator recursion over a pluggable invariant.

The recursion at depth d works on a colored scope graph H: it enumerates the
separating r-sequences, keeps those whose vertices' stable wl1 classes form
the smallest key (when there are more than two), picks among them the one
whose individualized coloring minimizes the invariant, puts the sequence
vertices first, splits the rest into flaps colored by their adjacency pattern
toward the separator, orders flap blocks by their invariant codes, and
recurses (or solves flaps of at most r vertices by trying every bijection).
A flap's wl1 code comes with its stable partition, which its own scope then
uses for its keys and for the candidate codes, which restart from it.

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
from dataclasses import dataclass

from .errors import ContractViolationError, OracleCapacityError
from .graph import (
    ColoredGraph,
    Labeling,
    apply_permutation,
    are_isomorphic_bf,
    encode,
    resolve_cap,
)
from . import invariant  # wl1_refine is looked up there, where perfbench wraps it
from .invariant import InvariantBackend, sequence_keys
from .mincode import minimum_encoding
from .parallel import FALLBACK, INVARIANT_FAILURE, RunStats, parallel_map


@dataclass(frozen=True)
class SeparatorRun:
    """Fixed parameters of one separator-canonization run."""

    r: int
    block_width: int
    backend: InvariantBackend
    check: bool = False
    oracle_cap: int | None = None
    color_base: int = 0  # b, the root graph's largest input color

    def __post_init__(self):
        if self.r < 1:
            raise ContractViolationError("separator size bound must be at least 1")
        if self.block_width != 2**self.r + self.r:
            raise ContractViolationError("color block width must equal 2^r + r")


@dataclass(frozen=True)
class Flap:
    """One component of scope-minus-separator, colored by its adjacency pattern."""

    graph: ColoredGraph
    origin: dict  # flap vertex -> vertex of the parent scope


def _split(graph: ColoredGraph, vertex_set):
    """The components of G minus the set, and whether each has at most n/2
    vertices (exactly: 2*size <= n, n the order of this graph)."""
    xs = set(vertex_set)
    if not all(v in graph.vertices for v in xs):
        raise ContractViolationError("separator candidates must be vertices of the graph")
    comps = graph.components(xs)
    return comps, all(2 * len(comp) <= graph.n for comp in comps)


def is_separator(graph: ColoredGraph, vertex_set) -> bool:
    """True when every component of G minus the set has at most n/2 vertices.

    n is the order of this graph; the comparison is exact (2*size <= n).
    """
    return _split(graph, vertex_set)[1]


def mark_separating_sequences(graph: ColoredGraph, r: int):
    """All ordered r-sequences of distinct vertices whose set is a separator
    (see is_separator), in lexicographic order. Empty when none exist.

    Each r-set is its first r-1 vertices (the head) plus one larger vertex v.
    One lowpoint DFS on G minus the head gives, for every v at once, the
    largest component of G minus the head minus v, so the work is C(n, r-1)
    linear passes rather than one component walk per r-set.
    """
    if r < 1:
        raise ContractViolationError("separator sequences need r >= 1")
    n = graph.n
    out = []
    for head in itertools.combinations(range(1, n), r - 1):
        largest = graph.largest_components_without(head)
        for v in range(head[-1] + 1 if head else 1, n + 1):
            if 2 * largest[v] <= n:
                out.extend(itertools.permutations(head + (v,)))
    out.sort()
    return out


def decompose_flaps(graph: ColoredGraph, sequence, depth: int, run: SeparatorRun):
    """One flap per component of scope-minus-separator.

    Each flap vertex gains the pattern color
    b + (d-1)*W + r + 1 + sum of 2^(i-1) over the sequence positions i it is
    adjacent to, on top of its inherited colors. Flaps are renumbered 1..t and
    keep their origin maps; they are ordered by smallest original vertex.
    """
    sequence = tuple(sequence)
    if len(set(sequence)) != len(sequence):
        raise ContractViolationError("separator sequence has repeated vertices")
    comps, balanced = _split(graph, sequence)
    if not balanced:
        raise ContractViolationError("sequence is not a separator of this scope")
    base = run.color_base + (depth - 1) * run.block_width + run.r + 1
    pattern = {
        v: [base + sum(1 << i for i, s in enumerate(sequence) if graph.has_edge(v, s))]
        for comp in comps
        for v in comp
    }
    colored = graph.with_extra_colors(pattern)
    return [Flap(*colored.induced_subgraph(comp)) for comp in comps]


def canon_separator(
    graph: ColoredGraph,
    r: int,
    backend: InvariantBackend,
    check: bool = False,
    workers: int = 1,
    stats: RunStats | None = None,
    oracle_cap: int | None = None,
) -> Labeling:
    """Canonical labeling of the graph, given an invariant complete for the
    colorings arising in the run.

    A scope with more than two separating r-sequences first narrows them to
    those of minimal key (their vertices' stable wl1 classes in order, see
    sequence_keys); the sequence chosen is the first code-minimal one among
    those left. A single candidate is taken without coding it.

    A scope with no separating r-sequence, at any depth, is ordered by its
    exact minimum encoding instead (with a diagnostic); above the oracle cap
    that raises OracleCapacityError, so no non-canonical labeling is returned.
    `workers` is accepted for compatibility and ignored; it only seeds a fresh
    RunStats."""
    stats = stats if stats is not None else RunStats(workers)
    run = SeparatorRun(r, 2**r + r, backend, check, oracle_cap, graph.top_color())
    order = _rank_scope(graph, 1, run, stats)
    return Labeling.from_position_order(order)


def _rank_scope(scope: ColoredGraph, depth: int, run: SeparatorRun, stats, partition=None):
    """The scope's vertices in canonical order. `partition` is the scope's
    stable wl1 coloring when its flap code computed it; otherwise it is
    refined here only if the keys or a wl1 argmin need it."""
    stats.observe_depth(depth)
    if scope.n <= run.r:
        return _base_case(scope, run, stats, partition)
    sequences = mark_separating_sequences(scope, run.r)
    if not sequences:
        stats.diagnose(
            FALLBACK,
            depth,
            scope.n,
            f"no separating {run.r}-sequence at depth {depth}; minimum-encoding fallback",
        )
        stats.count_invariant()
        _, labeling = minimum_encoding(scope, run.oracle_cap, stats=stats)
        return list(labeling.inverse())

    if len(sequences) > 2:
        if partition is None:
            partition, _ = invariant.wl1_refine(scope)
        keys = sequence_keys(partition, sequences)
        least = min(keys)
        sequences = [s for s, k in zip(sequences, keys) if k == least]
    base = run.color_base + (depth - 1) * run.block_width
    colorings = [{v: [base + i + 1] for i, v in enumerate(seq)} for seq in sequences]
    chosen = sequences[run.backend.argmin(scope, colorings, partition, stats)]

    flaps = decompose_flaps(scope, chosen, depth, run)
    coded = parallel_map(lambda fl: run.backend.code_and_partition(fl.graph, stats), flaps)
    flap_codes = [code for code, _ in coded]
    if run.check:
        _cross_check_flaps(flaps, flap_codes, depth, run, stats)

    blocks = sorted(
        range(len(flaps)),
        key=lambda i: (flap_codes[i], min(flaps[i].origin.values())),
    )

    def rank_flap(i: int):
        flap, flap_partition = flaps[i], coded[i][1]
        if flap.graph.n > run.r:
            local = _rank_scope(flap.graph, depth + 1, run, stats, flap_partition)
        else:
            local = _base_case(flap.graph, run, stats, flap_partition)
        return [flap.origin[v] for v in local]

    child_orders = parallel_map(rank_flap, blocks)
    order = list(chosen)
    for sub in child_orders:
        order.extend(sub)
    return order


def _base_case(scope: ColoredGraph, run: SeparatorRun, stats, partition=None):
    """Scopes of at most r vertices: try every bijection tau, color each vertex
    with (largest color present) + tau(v), keep the code-minimal tau."""
    if scope.n == 0:
        return []
    top = scope.top_color()
    perms = list(itertools.permutations(range(1, scope.n + 1)))
    colorings = [{v: [top + perm[v - 1]] for v in scope.vertices} for perm in perms]
    chosen = perms[run.backend.argmin(scope, colorings, partition, stats)]
    return sorted(scope.vertices, key=lambda v: chosen[v - 1])


def _cross_check_flaps(flaps, flap_codes, depth: int, run: SeparatorRun, stats):
    """Equal-code flap pairs must be isomorphic when the backend is complete;
    brute force verifies this for flaps within the oracle cap."""
    cap = resolve_cap(run.oracle_cap)
    by_code: dict = {}
    for i, code in enumerate(flap_codes):
        by_code.setdefault(code, []).append(i)
    for code, idxs in by_code.items():
        for a, b in itertools.combinations(idxs, 2):
            ga, gb = flaps[a].graph, flaps[b].graph
            if max(ga.n, gb.n) > cap:
                continue
            try:
                witness = are_isomorphic_bf(ga, gb, cap)
            except OracleCapacityError:
                continue
            if witness is None:
                stats.diagnose(
                    INVARIANT_FAILURE,
                    depth + 1,
                    ga.n,
                    "invariant failure: flaps with equal codes are not isomorphic",
                )


def find_isomorphism(
    graph: ColoredGraph,
    other: ColoredGraph,
    r: int,
    backend: InvariantBackend,
    check: bool = False,
    workers: int = 1,
    stats: RunStats | None = None,
    oracle_cap: int | None = None,
) -> Labeling | None:
    """Isomorphism from two canonical labelings, verified before returning.

    `encode` is injective, so equal canonical forms already make the induced
    mapping an isomorphism; an incomplete invariant can only make this miss an
    isomorphism (None for an isomorphic pair). The mapping is still checked,
    as a guard against bugs in the canonizer, and a failure is reported as an
    invariant diagnostic with None returned. `workers` is ignored, as in
    canon_separator.
    """
    stats = stats if stats is not None else RunStats(workers)
    if graph.n != other.n:
        return None
    sig_g = canon_separator(graph, r, backend, check, workers, stats, oracle_cap)
    sig_h = canon_separator(other, r, backend, check, workers, stats, oracle_cap)
    if encode(apply_permutation(graph, sig_g)) != encode(apply_permutation(other, sig_h)):
        return None
    mapping = sig_h.inverse().compose(sig_g)
    if apply_permutation(graph, mapping) == other:
        return mapping
    stats.diagnose(
        INVARIANT_FAILURE,
        1,
        graph.n,
        "invariant failure: equal canonical codes but the induced map is not an isomorphism",
    )
    return None
