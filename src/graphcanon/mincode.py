"""Exact minimum labeled encoding: the brute-force complete invariant.

The value computed is min over all bijections s of encode(apply_permutation(G, s)).
The search assigns one vertex per output position. Because the encoding's record
for position k depends only on the vertices placed at positions 1..k, candidate
records can be compared as byte prefixes: among siblings only minimal-record
candidates can lead to the overall minimum, and a branch whose prefix exceeds the
incumbent is dead. Candidates equivalent to an explored sibling under an
automorphism (discovered whenever a leaf ties the incumbent) are skipped. All
three prunings preserve the exact minimum. The incumbent is always a leaf the
search reached, so the minimum comes with a labeling that attains it.

At most _AUTO_LIMIT automorphisms are kept. A tying leaf met when the store is
full is dropped, which only weakens the pruning; a RunStats passed as `stats`
counts those drops in `auto_limit_hits`.
"""

from __future__ import annotations

from .errors import OracleCapacityError
from .graph import CanonicalCode, ColoredGraph, Labeling, color_record, resolve_cap

_AUTO_LIMIT = 64


def minimum_encoding(graph: ColoredGraph, cap: int | None = None, stats=None):
    """(code, labeling) achieving the minimum encoding of the graph; one
    invariant call counted in `stats`."""
    if stats is not None:
        stats.count_invariant()
    limit = resolve_cap(cap)
    n = graph.n
    if n > limit:
        raise OracleCapacityError(
            f"brute-force invariant capped at n <= {limit}, got n = {n}"
        )
    header = b"%d\n" % n
    if n == 0:
        return CanonicalCode(header), Labeling(())

    color = {v: color_record(graph, v) for v in graph.vertices}
    adj = {v: graph.neighbors(v) for v in graph.vertices}

    best_code: list[bytes | None] = [None]
    best_order: list[tuple[int, ...] | None] = [None]
    version = [0]
    autos: list[tuple[int, ...]] = []
    auto_seen: set[tuple[int, ...]] = set()

    assigned: list[int] = []
    parts: list[bytes] = []
    remaining = set(graph.vertices)
    # relbits[v]: v's adjacency toward `assigned`, earliest position most significant
    relbits = {v: 0 for v in graph.vertices}

    def leaf():
        cand = header + b"".join(parts)
        if best_code[0] is None or cand < best_code[0]:
            best_code[0] = cand
            best_order[0] = tuple(assigned)
            version[0] += 1
        elif cand == best_code[0]:
            if len(autos) >= _AUTO_LIMIT:
                if stats is not None:
                    stats.count_auto_limit()
                return
            ref = best_order[0]
            alpha = [0] * (n + 1)
            for p, v in enumerate(assigned):
                alpha[ref[p]] = v
            arr = tuple(alpha)
            if arr in auto_seen:
                return
            auto_seen.add(arr)
            autos.append(arr)
            inv = [0] * (n + 1)
            for a in range(1, n + 1):
                inv[arr[a]] = a
            inv_t = tuple(inv)
            if inv_t not in auto_seen:
                auto_seen.add(inv_t)
                autos.append(inv_t)

    def descend(pos: int, equal: bool):
        if not remaining:
            leaf()
            return
        k = len(assigned)
        best_key = None
        for v in remaining:
            key = (color[v], relbits[v])
            if best_key is None or key < best_key:
                best_key = key
        tied = sorted(v for v in remaining if (color[v], relbits[v]) == best_key)
        if k:
            seg = best_key[0] + format(best_key[1], f"0{k}b").encode("ascii") + b"\n"
        else:
            seg = best_key[0] + b"\n"

        seen_version = version[0]
        autos_len = len(autos)
        stab = [a for a in autos if all(a[u] == u for u in assigned)]
        explored: set[int] = set()
        for v in tied:
            if version[0] != seen_version:
                # the incumbent now runs through this node, so the prefix matches it
                equal = True
                seen_version = version[0]
            if best_code[0] is not None and equal:
                ref = best_code[0][pos:pos + len(seg)]
                if seg > ref:
                    return
                child_equal = seg == ref
            else:
                child_equal = False
            if len(autos) != autos_len:
                stab = [a for a in autos if all(a[u] == u for u in assigned)]
                autos_len = len(autos)
            if any(a[v] in explored for a in stab):
                continue
            explored.add(v)
            assigned.append(v)
            remaining.discard(v)
            parts.append(seg)
            for w in remaining:
                relbits[w] = relbits[w] * 2 + (1 if v in adj[w] else 0)
            descend(pos + len(seg), child_equal)
            for w in remaining:
                relbits[w] //= 2
            parts.pop()
            assigned.pop()
            remaining.add(v)

    descend(len(header), True)
    return CanonicalCode(best_code[0]), Labeling.from_position_order(best_order[0])
