"""Bit-exact text formats: `cg` colored graphs, `rs` rotation systems, graph6.

The cg and rs formats are line based, ASCII, LF terminated, and canonical:
writers emit exactly one spelling per object and parsers reject anything else
(out-of-order lines, duplicates, loops, stray whitespace).
"""

from __future__ import annotations

from .errors import FormatError, InvalidGraphError
from .graph import ColoredGraph
from .embedding import RotationSystem, rotation_violation


def _ascii_lines(data) -> list[str]:
    try:
        text = data if isinstance(data, str) else data.decode("ascii")
        text.encode("ascii")
    except UnicodeError as exc:
        raise FormatError(f"document is not ASCII: {exc}") from None
    if not text.endswith("\n"):
        raise FormatError("document must end with a newline")
    return text.split("\n")[:-1]


def _parse_count(line: str) -> int:
    parts = line.split(" ")
    if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit() or str(int(parts[1])) != parts[1]:
        raise FormatError(f"bad vertex-count line {line!r}")
    return int(parts[1])


def _parse_int_fields(line: str, tag: str, count: int):
    parts = line.split(" ")
    if len(parts) != count + 1 or parts[0] != tag:
        raise FormatError(f"bad {tag!r} line {line!r}")
    values = []
    for p in parts[1:]:
        if not p.isdigit() or str(int(p)) != p:
            raise FormatError(f"bad integer field in line {line!r}")
        values.append(int(p))
    return values


def cg_dumps(graph: ColoredGraph) -> str:
    out = [f"cg 1", f"n {graph.n}"]
    for u, v in sorted(graph.edges):
        out.append(f"e {u} {v}")
    for v in sorted(graph.colors):
        for c in sorted(graph.colors[v]):
            out.append(f"k {v} {c}")
    return "\n".join(out) + "\n"


def cg_loads(data) -> ColoredGraph:
    lines = _ascii_lines(data)
    if not lines or lines[0] != "cg 1":
        raise FormatError("missing `cg 1` header")
    if len(lines) < 2:
        raise FormatError("missing vertex-count line")
    n = _parse_count(lines[1])
    edges = []
    colors: dict[int, set[int]] = {}
    prev_edge = None
    prev_color = None
    state = "e"
    for line in lines[2:]:
        if line.startswith("e "):
            if state != "e":
                raise FormatError("edge line after color lines")
            u, v = _parse_int_fields(line, "e", 2)
            if u >= v:
                raise FormatError(f"edge must list u < v, got {line!r}")
            if not (1 <= u and v <= n):
                raise FormatError(f"edge endpoint outside 1..{n} in {line!r}")
            if prev_edge is not None and (u, v) <= prev_edge:
                raise FormatError(f"edges out of order or duplicated at {line!r}")
            prev_edge = (u, v)
            edges.append((u, v))
        elif line.startswith("k "):
            state = "k"
            v, c = _parse_int_fields(line, "k", 2)
            if not 1 <= v <= n:
                raise FormatError(f"colored vertex outside 1..{n} in {line!r}")
            if prev_color is not None and (v, c) <= prev_color:
                raise FormatError(f"color lines out of order or duplicated at {line!r}")
            prev_color = (v, c)
            colors.setdefault(v, set()).add(c)
        else:
            raise FormatError(f"unrecognized line {line!r}")
    return ColoredGraph(n, edges, colors)


def rs_dumps(rs: RotationSystem) -> str:
    g = rs.graph
    out = ["rs 1", f"n {g.n}"]
    for u, v in sorted(g.edges):
        out.append(f"e {u} {v}")
    for v in g.vertices:
        cyc = rs.rotation_of(v)
        body = " ".join(str(u) for u in cyc)
        out.append(f"r {v}:" + (f" {body}" if body else ""))
    return "\n".join(out) + "\n"


def rs_loads(data) -> RotationSystem:
    lines = _ascii_lines(data)
    if not lines or lines[0] != "rs 1":
        raise FormatError("missing `rs 1` header")
    if len(lines) < 2:
        raise FormatError("missing vertex-count line")
    n = _parse_count(lines[1])
    edges = []
    prev_edge = None
    i = 2
    while i < len(lines) and lines[i].startswith("e "):
        u, v = _parse_int_fields(lines[i], "e", 2)
        if u >= v or not (1 <= u and v <= n):
            raise FormatError(f"bad edge line {lines[i]!r}")
        if prev_edge is not None and (u, v) <= prev_edge:
            raise FormatError(f"edges out of order or duplicated at {lines[i]!r}")
        prev_edge = (u, v)
        edges.append((u, v))
        i += 1
    graph = ColoredGraph(n, edges)
    succ: dict[int, dict[int, int]] = {}
    expected = 1
    for line in lines[i:]:
        head, sep, body = line.partition(":")
        if not sep or not head.startswith("r "):
            raise FormatError(f"unrecognized line {line!r}")
        parts = head.split(" ")
        if len(parts) != 2 or not parts[1].isdigit() or str(int(parts[1])) != parts[1]:
            raise FormatError(f"bad rotation line {line!r}")
        v = int(parts[1])
        if v != expected:
            raise FormatError(f"rotation lines must cover vertices in order; saw {line!r}")
        expected += 1
        if body == "":
            order: list[int] = []
        elif body.startswith(" "):
            fields = body[1:].split(" ")
            if any(not f.isdigit() or str(int(f)) != f for f in fields):
                raise FormatError(f"bad neighbor field in {line!r}")
            order = [int(f) for f in fields]
        else:
            raise FormatError(f"bad rotation line {line!r}")
        nb = graph.neighbors(v)
        if sorted(order) != sorted(nb):
            raise FormatError(f"rotation at {v} does not list its neighborhood exactly")
        if order and order[0] != min(nb):
            raise FormatError(f"rotation at {v} must start from its smallest neighbor")
        succ[v] = {order[j]: order[(j + 1) % len(order)] for j in range(len(order))}
    if expected != n + 1:
        raise FormatError("missing rotation lines")
    rs = RotationSystem(graph, succ)
    reason = rotation_violation(rs)
    if reason is not None:
        raise FormatError(f"invalid rotation system: {reason}")
    return rs


def graph6_dumps(graph: ColoredGraph) -> str:
    """graph6 encoding of an uncolored graph (colors are a hard error)."""
    if graph.colors:
        raise InvalidGraphError("graph6 cannot carry vertex colors")
    n = graph.n
    out = bytearray()
    if n <= 62:
        out.append(63 + n)
    elif n <= 258047:
        out.append(126)
        out += _pack_bigendian(n, 3)
    elif n <= 68719476735:
        out += b"~~"
        out += _pack_bigendian(n, 6)
    else:
        raise InvalidGraphError("graph6 caps out at 68719476735 vertices")
    bits = []
    for j in range(2, n + 1):
        for i in range(1, j):
            bits.append(1 if graph.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    for pos in range(0, len(bits), 6):
        value = 0
        for b in bits[pos:pos + 6]:
            value = value * 2 + b
        out.append(63 + value)
    return out.decode("ascii")


def graph6_loads(data) -> ColoredGraph:
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"graph6 data is not ASCII: {exc}") from None
    s = data.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    try:
        raw = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FormatError(f"graph6 data is not ASCII: {exc}") from None
    if not raw:
        raise FormatError("empty graph6 string")
    if any(not 63 <= b <= 126 for b in raw):
        raise FormatError("graph6 bytes must lie in 63..126")
    if raw[0] != 126:
        n, body = raw[0] - 63, raw[1:]
    elif len(raw) >= 2 and raw[1] != 126:
        if len(raw) < 4:
            raise FormatError("truncated graph6 size block")
        n, body = _unpack_bigendian(raw[1:4]), raw[4:]
    else:
        if len(raw) < 8:
            raise FormatError("truncated graph6 size block")
        n, body = _unpack_bigendian(raw[2:8]), raw[8:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = []
    for b in body:
        value = b - 63
        for shift in range(5, -1, -1):
            bits.append((value >> shift) & 1)
    if any(bits[nbits:]):
        raise FormatError("nonzero padding bits in graph6 body")
    edges = []
    pos = 0
    for j in range(2, n + 1):
        for i in range(1, j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return ColoredGraph(n, edges)


def _pack_bigendian(value: int, groups: int) -> bytes:
    out = []
    for g in range(groups - 1, -1, -1):
        out.append(63 + ((value >> (6 * g)) & 63))
    return bytes(out)


def _unpack_bigendian(raw: bytes) -> int:
    value = 0
    for b in raw:
        value = (value << 6) | (b - 63)
    return value
