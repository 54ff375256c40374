"""Checks of the program's outputs that rely on networkx and this file alone.

- A canonization's labeling must map its input onto its form, edge by edge
  and color by color, and the form must be what the cg text says.
- Every relabeled copy of a base graph must give the base graph's form, byte
  for byte.
- Two base graphs must get equal forms exactly when networkx finds them
  isomorphic, with vertex colors matched.
- An isomorphism verdict must agree with networkx, and a returned mapping must
  be an isomorphism, edge by edge and color by color.
"""

from __future__ import annotations

import itertools

import networkx as nx


def to_networkx(plain) -> nx.Graph:
    n, edges, colors = plain
    g = nx.Graph()
    g.add_nodes_from((v, {"colors": tuple(colors.get(v, ()))}) for v in range(1, n + 1))
    g.add_edges_from(edges)
    return g


def isomorphic(a, b) -> bool:
    return nx.is_isomorphic(
        to_networkx(a), to_networkx(b), node_match=lambda x, y: x["colors"] == y["colors"]
    )


def maps_onto(source, target, mapping) -> bool:
    """True when v -> mapping[v-1] is an isomorphism from source onto target."""
    n, edges, colors = source
    tn, tedges, tcolors = target
    if n != tn or sorted(mapping) != list(range(1, n + 1)) or len(edges) != len(tedges):
        return False
    image = {tuple(sorted((mapping[u - 1], mapping[v - 1]))) for u, v in edges}
    if image != set(tedges):
        return False
    return all(
        tuple(colors.get(v, ())) == tuple(tcolors.get(mapping[v - 1], ()))
        for v in range(1, n + 1)
    )


def parse_cg(text: str):
    """Plain graph of a cg document; ValueError when it is not one."""
    lines = text.split("\n")
    if lines[:1] != ["cg 1"] or lines[-1] != "" or not lines[1].startswith("n "):
        raise ValueError("not a cg document")
    n = int(lines[1][2:])
    edges, colors = [], {}
    for line in lines[2:-1]:
        tag, a, b = line.split(" ")
        if tag == "e":
            edges.append((int(a), int(b)))
        elif tag == "k":
            colors.setdefault(int(a), []).append(int(b))
        else:
            raise ValueError(f"unexpected cg line {line!r}")
    return n, tuple(edges), {v: tuple(sorted(cs)) for v, cs in colors.items()}


def check(ops, outputs) -> list[bool]:
    """Whether each operation's output is correct; outputs[i] belongs to ops[i].

    A canonization's output is (form, labeling), an isomorphism query's is the
    mapping or None, and an operation that raised has an output of type str.
    """
    ok = [not isinstance(out, str) for out in outputs]
    form_of: dict[int, str] = {}
    first_plain: dict[int, tuple] = {}
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if not ok[i]:
            continue
        if op.kind == "iso":
            if out is None:
                ok[i] = not isomorphic(*op.plains)
            else:
                ok[i] = maps_onto(op.plains[0], op.plains[1], out)
            continue
        form, labeling = out
        try:
            ok[i] = maps_onto(op.plains[0], parse_cg(form), labeling)
        except ValueError:
            ok[i] = False
        if ok[i]:
            ok[i] = form_of.setdefault(op.base, form) == form
            first_plain.setdefault(op.base, op.plains[0])
    for a, b in itertools.combinations(sorted(form_of), 2):
        if (form_of[a] == form_of[b]) != isomorphic(first_plain[a], first_plain[b]):
            for i, op in enumerate(ops):
                if op.base == b:
                    ok[i] = False
    return ok
