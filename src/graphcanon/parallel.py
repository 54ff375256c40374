"""Order-preserving map, per-run statistics and structured diagnostics.

`parallel_map` runs sequentially on the calling thread. A thread pool under the
GIL was slower than this at every worker count measured, so `workers` is
accepted for compatibility and ignored; output never depended on it, because
every selection downstream is a min-reduction under a total order with a
data-deterministic tie-break.
"""

from __future__ import annotations

from typing import NamedTuple


def parallel_map(fn, items, workers: int = 1) -> list:
    """`[fn(x) for x in items]`, in input order; `workers` is ignored."""
    return [fn(x) for x in items]


FALLBACK = "fallback"
INVARIANT_FAILURE = "invariant-failure"


class Diagnostic(NamedTuple):
    """One event a run reports: its kind (FALLBACK or INVARIANT_FAILURE), the
    recursion depth and order of the scope it concerns, and the message text.
    str() of a diagnostic is its message. A named tuple, because defining
    one costs a tenth of a frozen dataclass at import time."""

    kind: str
    depth: int
    n: int
    detail: str

    def __str__(self):
        return self.detail


class RunStats:
    """Accumulator for one canonization or bench run. The diagnostics are
    those of the labeling returned, not of separator candidates tried and
    dropped; the counters and max_depth count all the work done."""

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.invariant_calls = 0
        self.auto_limit_hits = 0  # automorphisms mincode dropped at _AUTO_LIMIT
        self.wl_rounds: list[int] = []
        self.max_depth = 0
        self.diagnostics: list[Diagnostic] = []
        self.wall_ms: float | None = None

    def count_invariant(self):
        self.invariant_calls += 1

    def count_auto_limit(self):
        self.auto_limit_hits += 1

    def note_wl_rounds(self, rounds: int):
        self.wl_rounds.append(rounds)

    def observe_depth(self, depth: int):
        self.max_depth = max(self.max_depth, depth)

    def diagnose(self, kind: str, depth: int, n: int, detail: str):
        self.diagnostics.append(Diagnostic(kind, depth, n, detail))

    @property
    def had_fallback(self) -> bool:
        return any(d.kind == FALLBACK for d in self.diagnostics)
