"""In-memory spans and counts, recorded from outside the program.

A :class:`Tracer` replaces a function at the name its caller looks it up
under with a wrapper that records one span per call: name, start, end and
the span that was open when it began. Counts are attached to the root span
of the call stack, so every count belongs to one benchmark operation.
Nothing is written while a run measures; the spans are dumped at the end.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float | None
    parent: int  # index of the enclosing span, -1 for a root
    root: int    # index of the root span of this call stack

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent].root if parent >= 0 else idx
        self.spans.append(Span(name, self.clock(), None, parent, root))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, name: str, value=1) -> None:
        """Add to a counter of the operation that is running now."""
        root = self._stack[0] if self._stack else -1
        self.counts.setdefault(root, Counter())[name] += value

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `hook(tracer, result, *args, **kwargs)` runs after the call returns,
        outside the span, to record counts derived from its arguments and
        result.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Put back every original, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """One JSON object per span, then one per (root, counter)."""
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "root": s.root,
                }) + "\n")
            for root, counter in self.counts.items():
                for name, value in sorted(counter.items()):
                    fh.write(json.dumps({"root": root, "count": name, "value": value}) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(idx)
    out = []
    for idx, s in enumerate(spans):
        covered = _union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(idx, ())
        )
        out.append(s.duration - covered)
    return out


def child_time(spans: list[Span]) -> list[float]:
    """Sum of each span's direct children's durations."""
    out = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            out[s.parent] += s.duration
    return out
