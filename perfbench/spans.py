"""In-memory spans recorded around calls into tailica.

A span is (name, start, end, parent).  Spans are kept in a list while the
traced replay runs and written out once at the end of the run.  The
benchmark wraps public functions from outside the package; nothing inside
``tailica`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    """Records nested spans; ``span`` is a context manager."""

    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent (index or None), attrs
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap ``module.attr`` for each (module, attr, span name) while active.

        Calls the package makes internally through those module globals then
        record spans too.  Attributes a module no longer has are skipped, so
        the metric reads zero instead of the replay failing.
        """
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


class NullTracer:
    """Tracing off: ``span`` records nothing."""

    @contextlib.contextmanager
    def span(self, name, **attrs):
        yield None


def durations(spans, root):
    """Total and self time per span name under the span with index ``root``.

    A span's self time is its duration minus the time its direct children
    cover.  Returns {name: [total_s, self_s, calls]}.
    """
    inside = {root}
    child_time = {}
    for i, s in enumerate(spans):
        if i > root and s["parent"] in inside:
            inside.add(i)
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for i in sorted(inside):
        s = spans[i]
        total = s["end"] - s["start"]
        entry = out.setdefault(s["name"], [0.0, 0.0, 0])
        entry[0] += total
        entry[1] += total - child_time.get(i, 0.0)
        entry[2] += 1
    return out


def write_spans(spans, path):
    """One JSON object per line, times relative to the first span's start."""
    t0 = spans[0]["start"] if spans else 0.0
    with open(path, "w") as handle:
        for i, s in enumerate(spans):
            row = dict(s, id=i, start=s["start"] - t0, end=s["end"] - t0)
            handle.write(json.dumps(row, sort_keys=True) + "\n")
