"""Span tracing from outside the program.

``Tracer.install`` replaces every public function of the given modules with
a wrapper that records a span (label, start, end, parent index). Calls made
through the module attribute, including calls between functions of the same
module, are therefore traced without editing the program. ``uninstall``
puts the original functions back; spans and counts are kept.

A span's self time is its duration minus the durations of its direct child
spans; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    label: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level


@dataclass
class LabelStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects spans in memory; one tracer per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.labels: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []  # (module, name, original, wrapper)
        self._hooks: dict = {}
        self._paused = False

    # -- installation -------------------------------------------------------

    def install(self, modules, hooks=None):
        """Wrap the public functions defined in each module.

        ``hooks`` maps a label ("module.function") to a callable
        ``hook(args, kwargs, result)`` that runs after the span has closed,
        so counts derived from arguments and results cost no span time.
        Installing again after ``uninstall`` reuses the same wrappers.
        """
        if not self._installed:
            self._hooks = dict(hooks or {})
            for module in modules:
                short = module.__name__.rsplit(".", 1)[-1]
                for name, fn in inspect.getmembers(module, inspect.isfunction):
                    if name.startswith("_") or fn.__module__ != module.__name__:
                        continue
                    label = f"{short}.{name}"
                    self._installed.append((module, name, fn, self._wrap(label, fn)))
                    self.labels.append(label)
        for module, name, _, wrapper in self._installed:
            setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, fn, _ in self._installed:
            setattr(module, name, fn)

    def _wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = Span(label, clock(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            hook = self._hooks.get(label)
            if hook is not None:
                with self.paused():
                    hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (used for counting work)."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    # -- analysis -----------------------------------------------------------

    def stats(self) -> dict:
        return label_stats(self.spans)


def label_stats(spans) -> dict:
    """Per-label call count, busy time and self time over a span list."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out = defaultdict(LabelStats)
    for idx, span in enumerate(spans):
        duration = span.end - span.start
        entry = out[span.label]
        entry.calls += 1
        entry.busy_s += duration
        entry.self_s += duration - child_time[idx]
    return dict(out)
