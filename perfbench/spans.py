"""In-memory spans for the traced run, written out when the run ends.

Spans come from wrapping the program's own public functions where the
program looks them up (module attributes and class methods), so a traced
call runs the real code path; nested wrapped calls become child spans.
"""

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans as [id, parent id, trace id, name, start ns, end ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self._traces = 0  # traces started so far; ids run from 1
        self._trace = 0  # id of the trace now running
        self._open: list[int] = []  # ids of the spans now running, innermost last

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else 0
        self.spans.append([len(self.spans) + 1, parent, self._trace, name,
                           time.perf_counter_ns(), 0])
        self._open.append(len(self.spans))
        return len(self.spans)

    def _end(self, span: int) -> None:
        self.spans[span - 1][5] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def root(self, name: str):
        """A root span that starts a new trace; traced calls inside join it."""
        self._traces += 1
        self._trace = self._traces
        span = self._start(name)
        try:
            yield
        finally:
            self._end(span)

    def wrap(self, name: str, fn):
        """``fn`` with each call inside a span called ``name``."""
        def traced(*args, **kwargs):
            span = self._start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span)
        return traced

    @contextmanager
    def patch(self, targets):
        """Trace ``(owner, attribute, span name)`` targets while inside.

        Each attribute is replaced by its wrapped self and restored on exit.
        """
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _children_ns(self) -> dict[int, int]:
        out = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent:
                out[parent] += end - start
        return out

    def per_trace(self, name: str, own: bool = False) -> dict[int, int]:
        """Total ns of the spans called ``name`` in each trace.

        With ``own``, the time their traced children took is left out.
        """
        children = self._children_ns() if own else {}
        out = defaultdict(int)
        for sid, _, trace, span_name, start, end in self.spans:
            if span_name == name:
                out[trace] += end - start - children.get(sid, 0)
        return out

    def median_ns(self, name: str, own: bool = False) -> float:
        """Median over traces of ``per_trace``."""
        return statistics.median(self.per_trace(name, own).values())

    def extend(self, spans) -> None:
        """Append spans recorded by another process, renumbering their ids."""
        base = len(self.spans)
        for sid, parent, trace, name, start, end in spans:
            self.spans.append([sid + base, parent + base if parent else 0,
                               trace + self._traces, name, start, end])
        self._traces += max((s[2] for s in spans), default=0)

    def write(self, path) -> None:
        keys = ("id", "parent", "trace", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
