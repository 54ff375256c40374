"""Order-preserving map and per-run statistics.

`parallel_map` runs sequentially on the calling thread. A thread pool under the
GIL was slower than this at every worker count measured, so `workers` is
accepted for compatibility and ignored; output never depended on it, because
every selection downstream is a min-reduction under a total order with a
data-deterministic tie-break.
"""

from __future__ import annotations


def parallel_map(fn, items, workers: int = 1) -> list:
    """`[fn(x) for x in items]`, in input order; `workers` is ignored."""
    return [fn(x) for x in items]


class RunStats:
    """Accumulator for one canonization or bench run."""

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.invariant_calls = 0
        self.wl_rounds: list[int] = []
        self.max_depth = 0
        self.diagnostics: list[str] = []
        self.wall_ms: float | None = None

    def count_invariant(self):
        self.invariant_calls += 1

    def note_wl_rounds(self, rounds: int):
        self.wl_rounds.append(rounds)

    def observe_depth(self, depth: int):
        self.max_depth = max(self.max_depth, depth)

    def diagnose(self, message: str):
        self.diagnostics.append(message)

    @property
    def had_fallback(self) -> bool:
        return any("fallback" in d for d in self.diagnostics)
