"""In-memory span tracer that wraps the library's public entry points.

Spans are recorded from the benchmark's side of each call: the library
source is untouched.  Functions are patched where they are bound, so a name
imported into another module (`reallocsched.fleet.align_window`) is wrapped
there too.  A span is (name, request id, parent span, start ns, end ns,
phase, count); self time is the span's duration minus that of its direct
children, which never overlap in this single-threaded closed loop.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        #: Request id stamped on new spans; -1 outside any request.
        self.request = -1
        #: Run phase stamped on new spans: "setup", "timed" or "gate".
        self.phase = "setup"

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, parent, start, count) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, self.request, parent, start, end, self.phase, count)

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span per call; `count(result)` is stored with it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, name, parent, start,
                            None if count is None or result is None else count(result))
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, name, parent, start, None)

    @contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name[, count]) for the block."""
        saved = []
        try:
            for owner, attr, name, *count in targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, *count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        """Self time in ns of every span, in recording order."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s is not None and s[2] >= 0:
                child_ns[s[2]] += s[4] - s[3]
        return [0 if s is None else s[4] - s[3] - child_ns[i] for i, s in enumerate(spans)]

    def summary(self, include):
        """name -> [calls, inclusive ns, self ns, summed count] over the
        spans for which `include(span, parent span or None)` is true."""
        spans = self.spans
        selfs = self.self_times()
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        for i, s in enumerate(spans):
            if s is None:
                continue
            parent = spans[s[2]] if s[2] >= 0 else None
            if not include(s, parent):
                continue
            row = out[s[0]]
            row[0] += 1
            row[1] += s[4] - s[3]
            row[2] += selfs[i]
            row[3] += s[6] or 0
        return out

    def write_jsonl(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, request, parent, start, end, phase, count = s
                fh.write(json.dumps({
                    "id": i, "name": name, "request": request, "parent": parent,
                    "phase": phase, "start_ns": start, "end_ns": end,
                    "self_ns": selfs[i], "count": count,
                }) + "\n")
