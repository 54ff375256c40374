"""Span tracing around graphcanon's layer functions, from outside the program.

`Tracer.install` replaces each traced function where its callers look the name
up (a module global or a class attribute) with a wrapper that records one span:
name, start, end, parent span and operation id. Spans stay in per-thread arrays
until the run ends; `summarize` then derives counts, covered time and self time,
and `write` saves the raw spans as compressed CSV.

Self time is a span's duration minus the part of it that its child spans cover.
Covered time of a name is the union of its spans' intervals within each thread,
summed over threads, so a recursive call is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import threading
from array import array
from time import perf_counter_ns

# (module attribute path, owner attribute, span name); the owner is a module
# of the graphcanon package, or a class in one.
TRACED = (
    ("graph.ColoredGraph", "__init__", "graph.ColoredGraph"),
    ("graph.ColoredGraph", "with_extra_colors", "graph.with_extra_colors"),
    ("graph.ColoredGraph", "induced_subgraph", "graph.induced_subgraph"),
    ("separator", "canon_separator", "separator.canon_separator"),
    ("separator", "find_isomorphism", "separator.find_isomorphism"),
    ("separator", "mark_separating_sequences", "separator.mark_separating_sequences"),
    ("separator", "is_separator", "separator.is_separator"),
    ("separator", "decompose_flaps", "separator.decompose_flaps"),
    ("separator", "parallel_map", "parallel.parallel_map"),
    ("invariant", "wl1_refine", "invariant.wl1_refine"),
    ("invariant", "minimum_encoding", "mincode.minimum_encoding"),
    ("invariant.BruteForceBackend", "code_bounded", "invariant.code_bounded"),
    ("rigidity", "canon_rigidity", "rigidity.canon_rigidity"),
    ("rigidity", "individualize", "rigidity.individualize"),
    ("rigidity", "individualize_plus", "rigidity.individualize_plus"),
    ("rigidity", "parallel_map", "parallel.parallel_map"),
    ("formats", "cg_dumps", "formats.cg_dumps"),
    ("formats", "cg_loads", "formats.cg_loads"),
    ("generators", "gen_family", "generators.gen_family"),
)
TASK = "parallel.task"
SETUP_OP = 0  # operation id of spans recorded while the corpus is built


class _Buffer:
    """The spans one thread recorded, column by column."""

    def __init__(self):
        self.ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.names = array("q")
        self.starts = array("q")
        self.ends = array("q")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.buffers: list[_Buffer] = []
        self.code_hits = 0  # code_bounded calls that returned a code
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _context(self):
        local = self._local
        if not hasattr(local, "buffer"):
            local.buffer = _Buffer()
            local.stack = [0]
            local.op = SETUP_OP
            with self._lock:
                self.buffers.append(local.buffer)
        return local

    def begin_op(self, op: int):
        """Attribute the calling thread's next spans to operation `op`."""
        local = self._context()
        local.stack = [0]
        local.op = op

    def _span(self, code: int, fn, args, kwargs):
        local = self._context()
        sid = next(self._ids)
        parent = local.stack[-1]
        local.stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            local.stack.pop()
            buf = local.buffer
            buf.ids.append(sid)
            buf.parents.append(parent)
            buf.ops.append(local.op)
            buf.names.append(code)
            buf.starts.append(start)
            buf.ends.append(end)

    def _traced(self, fn, name: str):
        code = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._span(code, fn, args, kwargs)

        return traced

    def _code_bounded(self, fn):
        """code_bounded, also counting the calls that return a code."""
        tracer = self

        @functools.wraps(fn)
        def code_bounded(*args, **kwargs):
            code = fn(*args, **kwargs)
            if code is not None:
                with tracer._lock:
                    tracer.code_hits += 1
            return code

        return code_bounded

    def _pool_aware(self, parallel_map):
        """parallel_map whose tasks, when they run on a pool thread, record a
        task span under the parallel_map span that submitted them, so that
        spans on pool threads (`--workers` above 1) keep their operation."""
        tracer = self
        task_code = self._name_id(TASK)

        @functools.wraps(parallel_map)
        def traced_map(fn, items, workers=1):
            local = tracer._context()
            caller, parent, op = threading.get_ident(), local.stack[-1], local.op

            def task(item):
                if threading.get_ident() == caller:
                    return fn(item)
                mine = tracer._context()
                saved = mine.stack, mine.op
                mine.stack, mine.op = [parent], op
                try:
                    return tracer._span(task_code, fn, (item,), {})
                finally:
                    mine.stack, mine.op = saved

            return parallel_map(task, items, workers)

        return traced_map

    def install(self, package):
        """Wrap every function in TRACED on the imported graphcanon package."""
        for path, attr, name in TRACED:
            owner = package
            for part in path.split("."):
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            fn = original
            if attr == "code_bounded":
                fn = self._code_bounded(fn)
            if attr == "parallel_map":
                fn = self._pool_aware(fn)
            setattr(owner, attr, self._traced(fn, name))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting -------------------------------------------------------

    def rows(self):
        """Every span as (id, parent, op, thread, name, start_ns, end_ns)."""
        for thread, buf in enumerate(self.buffers):
            for i in range(len(buf.ids)):
                yield (
                    buf.ids[i], buf.parents[i], buf.ops[i], thread,
                    self.names[buf.names[i]], buf.starts[i], buf.ends[i],
                )

    def write(self, path):
        """Save every span as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id,parent,op,thread,name,start_ns,end_ns\n")
            for row in self.rows():
                fh.write(",".join(map(str, row)) + "\n")

    def summarize(self, setup: bool) -> dict:
        """Per span name: count, covered seconds and self seconds, over the
        spans of the corpus set-up (`setup`) or of the operations."""
        rows = [r for r in self.rows() if (r[2] == SETUP_OP) == setup]
        children: dict[int, list] = {}
        for sid, parent, _, _, _, start, end in rows:
            children.setdefault(parent, []).append((start, end))
        out: dict[str, dict] = {}
        per_thread: dict[tuple, list] = {}
        for sid, _, _, thread, name, start, end in rows:
            entry = out.setdefault(name, {"count": 0, "covered_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["self_s"] += (end - start - _union(children.get(sid, ()))) / 1e9
            per_thread.setdefault((name, thread), []).append((start, end))
        for (name, _), intervals in per_thread.items():
            out[name]["covered_s"] += _union(intervals) / 1e9
        return out


def _union(intervals) -> int:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
