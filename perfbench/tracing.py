"""In-memory span tracer for the fournls benchmark.

The tracer wraps public fournls functions at the names their callers
resolve (``fournls.experiments.integrate``, ``fournls.cli.save_trajectory``,
...), records one span per call with name, start, end, parent and a few
attributes, and counts ``FourierState`` constructions. Spans stay in memory
until the run ends. Everything is undone when the ``installed`` block exits,
so untraced rounds run the unmodified program.

Self time of a span is its duration minus the part of it covered by its
child spans, so work that no wrapper catches stays with the parent.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; the parent of a span is the innermost
    span open when it started."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None, result_attrs=None):
        """Return fn wrapped in a span. attrs(*args, **kw) and
        result_attrs(result, *args, **kw) add attributes to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None,
                        attrs(*args, **kwargs) if attrs else {})
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if result_attrs:
                span.attrs.update(result_attrs(result, *args, **kwargs))
            return result

        return traced

    def count(self, name, fn):
        """Return fn wrapped so that each call increments counter name."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, patches):
        """Apply (owner, attribute, wrapper factory) patches for the block."""
        saved = []
        try:
            for owner, attr, make in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(self, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def dump(tracers, path) -> None:
    """Write the spans and counters of each tracer (one per round) as JSON."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump([{"counters": dict(t.counters), "spans": [vars(s) for s in t.spans]}
                   for t in tracers], fh)
        fh.write("\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover,
    each child clipped to its parent's interval."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    return [s.duration - _covered(children.get(i, ())) for i, s in enumerate(spans)]
