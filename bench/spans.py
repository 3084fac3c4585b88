"""In-memory span recorder with counters and self-time aggregation.

A span is ``[name, start, end, parent]``: the parent is the index of the
span that was open when this one began (-1 for a root).  Spans are kept in
a list while the traced code runs and summarised or written out after it.

Wrappers installed with :meth:`Tracer.patch` replace an attribute of a
module or class and are undone by :meth:`Tracer.restore`.  They only read
the clock and count; arguments and results pass through untouched, so the
traced code computes exactly what it computes untraced.
"""

from __future__ import annotations

import time
from collections import defaultdict


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct child
    spans.  Spans come from one begin/end stack, so the children of a span
    never overlap.
    """
    out: dict[str, dict[str, float]] = {}
    for name, start, end, _parent in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start
    for _name, start, end, parent in spans:
        if parent >= 0:
            out[spans[parent][0]]["self_s"] -= end - start
    return out


class Tracer:
    """Records nested spans and named counters for one traced region."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._open.pop()

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return wrapper

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(original)``."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
