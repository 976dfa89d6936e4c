"""In-memory spans that time calls into the program from outside it.

A span is one timed call: its name, start and end (``time.perf_counter``
seconds), the span that was open when it began (its parent), the trace id it
shares with the other spans of one unit of work (a trial, a moment cell, a
verify job), the type of any exception that escaped it, and free attributes.

The program itself is not instrumented. ``Tracer.patch`` replaces a module or
class attribute of the program with a wrapper that opens a span around each
call, and ``Tracer.restore`` puts every original back. Spans stay in memory
until ``Tracer.dump`` writes them out when the run ends.
"""

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "trace", "name", "attrs", "start", "end", "error")

    def __init__(self, sid, parent, trace, name, attrs):
        self.id = sid
        self.parent = parent
        self.trace = trace
        self.name = name
        self.attrs = attrs
        self.start = self.end = 0.0
        self.error = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, name, new_trace, attrs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        trace = parent.trace if parent is not None and not new_trace else sid
        span = Span(sid, parent.id if parent is not None else None, trace, name, attrs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span, exc):
        span.end = time.perf_counter()
        if exc is not None:
            span.error = type(exc).__name__
        self._stack.pop()

    @contextmanager
    def span(self, name, new_trace=False, **attrs):
        span = self._open(name, new_trace, attrs)
        try:
            yield span
        except BaseException as exc:
            self._close(span, exc)
            raise
        self._close(span, None)

    def current(self):
        return self._stack[-1].name if self._stack else None

    def patch(self, owner, attr, name, new_trace=False, only_under=None):
        """Time every call of ``owner.attr`` as a span called ``name``.

        With ``only_under``, a call opens a span only when the innermost open
        span has one of those names; other calls pass straight through.
        """
        original = vars(owner)[attr]  # the attribute must be owner's own

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if only_under is not None and self.current() not in only_under:
                return original(*args, **kwargs)
            span = self._open(name, new_trace, {"fn": attr})
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            self._close(span, None)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, timed)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_seconds(self):
        """Self time of every span: its duration minus its children's durations.

        Calls run on one thread, so children never overlap and the part of a
        span that its children cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        return [span.seconds - covered[span.id] for span in self.spans]

    def summary(self):
        """Per span name: call count, total and self milliseconds."""
        out = {}
        for span, own in zip(self.spans, self.self_seconds()):
            row = out.setdefault(span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += span.seconds * 1e3
            row["self_ms"] += own * 1e3
        return out

    def dump(self, path):
        """Write every span as one JSON line, times in ms from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for span, own in zip(self.spans, self.self_seconds()):
                fh.write(json.dumps({
                    "id": span.id,
                    "parent": span.parent,
                    "trace": span.trace,
                    "name": span.name,
                    "start_ms": round((span.start - origin) * 1e3, 4),
                    "dur_ms": round(span.seconds * 1e3, 4),
                    "self_ms": round(own * 1e3, 4),
                    "error": span.error,
                    "attrs": span.attrs,
                }) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced runs: spans cost one no-op context."""

    @contextmanager
    def span(self, name, new_trace=False, **attrs):
        yield None
