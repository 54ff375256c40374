"""Seeded corpora and the operations each workload times.

Base graphs are a fixed corpus per workload, made by graphcanon's own seeded
`gen_family` from seeds 1, 2, 3, ... . The run seed drives this module's
`random.Random`, which relabels every input and picks each negative partner,
so one seed always gives the same inputs and another seed gives other
labelings of the same graphs. Keeping the base graphs fixed keeps the spread
between seeds small: with base graphs drawn from the run seed, the time of one
rig-wl1 round varied by 13% (quartile distance over median) across 12 seeds.

Graphs are kept here as plain `(n, edges, colors)` triples, independent of the
program: the checker compares the program's outputs against these, and the
inputs the program sees are read back from cg text written by `cg_text`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Group:
    """`count` base graphs of one family, each given to the program as `copies`
    relabeled copies; generated graphs that fail `keep` are skipped. In an iso
    workload each base graph gives one positive and one negative pair."""

    family: str
    params: dict
    r: int
    count: int
    copies: int
    keep: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "separator", "rigidity" or "iso"
    invariant: str
    workers: int
    groups: tuple
    known_fault: bool = False  # iso only: add the open fault pair once per round


def refines_to_discrete(plain) -> bool:
    """True when color refinement gives every vertex its own color.

    Such a graph has no automorphism but the identity, so it lies in the class
    canon_rigidity labels canonically at every r, and wl1 separates all its
    individualized colorings. On G(n, 0.2) graphs outside the class, r = 2 can
    leave no fixing sequence, and canon_rigidity then returns the identity.
    """
    n, edges, _ = plain
    nbrs = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    color = dict.fromkeys(nbrs, 0)
    classes = 1
    while True:
        sig = {v: (color[v], tuple(sorted(color[u] for u in nbrs[v]))) for v in nbrs}
        ids = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        color = {v: ids[sig[v]] for v in nbrs}
        if len(ids) == classes:
            return classes == n
        classes = len(ids)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sep-wl1", "separator", "wl1", 1,
            (
                Group("tree", {"n": 200}, 1, 6, 2),
                Group("k_tree", {"n": 40, "k": 2}, 3, 1, 2),
            ),
        ),
        Workload(
            "rig-wl1", "rigidity", "wl1", 1,
            (Group("random_gnp", {"n": 18, "p": 0.2}, 2, 1, 2, keep=refines_to_discrete),),
        ),
        Workload(
            "iso-bf", "iso", "bf", 1,
            (Group("partial_k_tree", {"n": 10, "k": 2}, 3, 20, 1),),
            known_fault=True,
        ),
    )
}

# The open fault: no separating 2-sequence exists, `_rank_scope` falls back to
# the identity labeling, and `find_isomorphism` calls this isomorphic pair
# non-isomorphic under both wl1 and bf.
FAULT_GRAPH = (6, ((1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 4), (3, 6), (4, 5), (5, 6)), {})
FAULT_RELABELING = (1, 2, 3, 4, 6, 5)
FAULT_R = 2


@dataclass
class Op:
    """One timed operation: a canonization of `plains[0]`, or an isomorphism
    query on `plains[0]` and `plains[1]`. `base` numbers the base graph the
    inputs were made from; the known-fault pair has base -1."""

    kind: str  # "canon" or "iso"
    r: int
    base: int
    plains: tuple  # plain graphs, in the order the program receives them
    graphs: tuple = ()  # the same graphs as read back by the program's cg_loads

    @property
    def known_fault(self) -> bool:
        return self.base < 0


def plain_of(graph):
    """Plain triple of a graphcanon ColoredGraph."""
    return (
        graph.n,
        tuple(sorted(graph.edges)),
        {v: tuple(sorted(cs)) for v, cs in graph.colors.items()},
    )


def relabel(plain, perm):
    """Image of a plain graph under the relabeling v -> perm[v-1]."""
    n, edges, colors = plain
    moved = tuple(sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges))
    return n, moved, {perm[v - 1]: cs for v, cs in colors.items()}


def random_perm(n: int, rng: random.Random):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def cg_text(plain) -> str:
    """The plain graph in the cg format: header, sorted edges, sorted colors."""
    n, edges, colors = plain
    lines = ["cg 1", f"n {n}"]
    lines += [f"e {u} {v}" for u, v in sorted(edges)]
    lines += [f"k {v} {c}" for v in sorted(colors) for c in sorted(colors[v])]
    return "\n".join(lines) + "\n"


def _degree_profile(plain):
    """Each vertex's degree with the sorted degrees of its neighbors, sorted.
    Graphs with different profiles are not isomorphic."""
    n, edges, _ = plain
    nbrs = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return sorted((len(nbrs[v]), sorted(len(nbrs[u]) for u in nbrs[v])) for v in nbrs)


def swapped_partner(plain, rng: random.Random):
    """A graph one double-edge swap away, so with the same degree sequence,
    whose degree profile differs; None when no swap changes the profile.

    Every swap is tried, in an order the seed shuffles, so whether a partner
    exists does not depend on the seed.
    """
    n, edges, colors = plain
    target = _degree_profile(plain)
    present = set(edges)
    swaps = [
        (e, f, flip)
        for i, e in enumerate(edges)
        for f in edges[i + 1:]
        for flip in (False, True)
    ]
    rng.shuffle(swaps)
    for (a, b), (c, d), flip in swaps:
        if flip:
            c, d = d, c
        new1, new2 = tuple(sorted((a, d))), tuple(sorted((c, b)))
        if len({a, b, c, d}) < 4 or new1 in present or new2 in present:
            continue
        moved = present - {(a, b), tuple(sorted((c, d)))} | {new1, new2}
        candidate = (n, tuple(sorted(moved)), colors)
        if _degree_profile(candidate) != target:
            return candidate
    return None


def build_ops(workload: Workload, seed: int, generate):
    """The operations of one round, in timed order.

    `generate(family, params, seed)` returns a plain base graph; the caller
    routes it through the program's generator and times it there.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    ops = []
    base = 0
    for group in workload.groups:
        made = 0
        base_seed = 0
        while made < group.count:
            base_seed += 1
            plain = generate(group.family, group.params, base_seed)
            if group.keep is not None and not group.keep(plain):
                continue
            n = plain[0]
            if workload.method == "iso":
                partner = swapped_partner(plain, rng)
                if partner is None:
                    continue
                first = relabel(plain, random_perm(n, rng))
                copy = relabel(plain, random_perm(n, rng))
                negative = relabel(partner, random_perm(n, rng))
                ops.append(Op("iso", group.r, base, (first, copy)))
                ops.append(Op("iso", group.r, base, (first, negative)))
            else:
                for _ in range(group.copies):
                    ops.append(Op("canon", group.r, base, (relabel(plain, random_perm(n, rng)),)))
            made += 1
            base += 1
    if workload.known_fault:
        ops.append(
            Op("iso", FAULT_R, -1, (FAULT_GRAPH, relabel(FAULT_GRAPH, FAULT_RELABELING)))
        )
    return ops
