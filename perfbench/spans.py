"""Span recorder for the traced run.

Wrappers are installed from outside the program, on the attribute each
caller looks up (a module global or a name a module bound at import), and
removed when the run ends.  Spans stay in memory until then: each holds a
name, a start, an end, the span that caused it and a few attributes read
from the call's result.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict


class SpanRecorder:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = self.clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, annotate=None, **kwargs):
        """Run ``fn`` inside a span; ``annotate(args, kwargs, result)`` adds attributes."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if annotate is not None:
            span.update(annotate(args, kwargs, result))
        return result

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` with a spanned version until :meth:`restore`."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            return self.call(name, original, *args, annotate=annotate, **kwargs)

        setattr(owner, attr, spanned)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``s`` (total) and ``self_s`` (minus children)."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            dur = span["end"] - span["start"]
            entry = out[span["name"]]
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - child_time[span["id"]]
        return out

    def attr_sum(self, name: str, key: str) -> float:
        return sum(span[key] for span in self.spans if span["name"] == name)
