"""In-memory spans around the benchmark's calls into the program.

A span records its name, start, end, parent span and request id.  Spans
are kept in a list and written out once, when the run ends.  The layer
of a span is the first dotted component of its name (``cli.main`` is in
``cli``).  Probe spans time one public function on a request's own
inputs, outside the request; they are named ``probe:<layer>.<function>``
and kept in layers of their own.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    rid = None

    def span(self, name: str):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, rid]
        self._stack: list[int] = []
        self.rid = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, self.rid]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[layer_of(name)] += end - start - child[idx]
        return dict(out)

    def dump(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "request": r}
            for n, s, e, p, r in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def layer_of(name: str) -> str:
    """``cli.main`` -> ``cli``; ``probe:oracle.mat_inv`` -> ``probe:oracle``."""
    head, sep, rest = name.rpartition(":")
    return head + sep + rest.split(".", 1)[0]
