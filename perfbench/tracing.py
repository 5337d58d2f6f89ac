"""Spans recorded from outside the program, and the statistics built on them.

The traced run replaces layer entry points (module attributes and class
methods) with thin wrappers.  Each call records one span: name, parent
span id, start and end (``time.perf_counter`` seconds).  The span id is
the span's index in ``Tracer.spans``, so spans are stored in the order
their calls started.  Spans stay in memory until the run writes them out.

``Tracer.patched`` restores every original attribute on exit, also when
the body raises, so passes outside it run the program's own code.

This module uses the standard library only, so its tests need neither
numpy nor the package under test.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time

class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[tuple[str, int, float, float] | None] = []
        self._stack: list[int] = []
        self._clock = clock

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float):
        end = self._clock()
        self._stack.pop()
        self.spans[sid] = (name, parent, start, end)

    def wrap(self, name: str, fn, after=None):
        """Wrap fn so every call records a span named `name`.

        `after(result, exc)` runs once the span is closed, so work it does
        is not charged to the span; `exc` is the exception the call raised,
        or None.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = self._clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self._close(sid, parent, name, start)
                if after is not None:
                    after(result, exc)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid, parent = self._open()
        start = self._clock()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for (owner, attribute, span name, after) targets.

        `owner` is a module or a class; the attribute is read from its
        ``__dict__`` so a class method is wrapped as the plain function it
        is, and it is put back exactly as found.
        """
        saved = []
        try:
            for owner, attr, name, after in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path, first: int = 0):
        """Write spans from id `first` on as gzip CSV: id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid in range(first, len(self.spans)):
                name, parent, start, end = self.spans[sid]
                fh.write(f"{sid},{parent},{name},{start!r},{end!r}\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - covered(children.get(sid, ()))
            for sid, (name, parent, start, end) in enumerate(spans)]


def summarize(spans, selfs=None) -> dict[str, dict]:
    """Per span name: call count, total duration and total self time.

    `selfs` is ``self_times(spans)`` when the caller has it already.
    """
    out: dict[str, dict] = {}
    for (name, parent, start, end), self_s in zip(spans, selfs or self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
    return out


def tail(samples):
    """The highest percentile with at least 10 samples above it.

    Returns (percentile, value), or None when there are not more than 10
    samples.  The value is the sample at sorted position n - 10
    (1-based), so exactly 10 samples sort after it.
    """
    beyond = 10
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return None
    k = n - beyond
    return 100.0 * k / n, xs[k - 1]
