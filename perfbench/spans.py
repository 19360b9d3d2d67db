"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its calls into each layer's
public functions; nothing inside ``src/repro`` is instrumented.  A span
is ``(id, name, layer, start, end, parent, task)`` with ``start`` and
``end`` read from :func:`time.perf_counter`, which on Linux is the
system-wide monotonic clock, so spans returned by pool workers line up
with the parent's.  Spans stay in memory and are written out once, when
the run ends.
"""

import time
from contextlib import contextmanager

__all__ = ["NULL", "Tracer", "self_times"]


class Tracer:
    """Records spans while *enabled*; a disabled tracer records nothing.

    Args:
        enabled: record spans (``False`` gives the untraced run).
        prefix: span-id prefix, unique per process that records spans.
        task: task label stamped on every span this tracer records.
    """

    def __init__(self, enabled=True, prefix="s", task=None):
        self.enabled = bool(enabled)
        self.prefix = prefix
        self.task = task
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, layer):
        """Time the enclosed block as one span; yields the span's id."""
        if not self.enabled:
            yield None
            return
        span_id = f"{self.prefix}{len(self.spans)}"
        record = {"id": span_id, "name": name, "layer": layer,
                  "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "task": self.task}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name, layer, start, end, parent):
        """Record a span measured by other means (a program counter)."""
        if self.enabled:
            self.spans.append({"id": f"{self.prefix}{len(self.spans)}",
                               "name": name, "layer": layer,
                               "start": start, "end": end,
                               "parent": parent, "task": self.task})

    def adopt(self, spans, parent):
        """Take in spans recorded elsewhere; their roots hang off *parent*."""
        if not self.enabled:
            return
        for record in spans:
            record = dict(record)
            if record["parent"] is None:
                record["parent"] = parent
            self.spans.append(record)


#: The untraced run's recorder.
NULL = Tracer(enabled=False)


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's.

    Children of one span may overlap (parallel pool tasks), so the part
    of the parent they cover is the length of their union, clipped to
    the parent.

    Returns:
        ``{layer: seconds}``.
    """
    children = {}
    for record in spans:
        children.setdefault(record["parent"], []).append(record)
    out = {}
    for record in spans:
        start, end = record["start"], record["end"]
        inner = [(max(c["start"], start), min(c["end"], end))
                 for c in children.get(record["id"], ())]
        covered = _covered([(a, b) for a, b in inner if b > a])
        out[record["layer"]] = (out.get(record["layer"], 0.0)
                                + (end - start) - covered)
    return out
