"""Spans recorded around the package's public entry points, from outside.

A :class:`Tracer` swaps module attributes (functions, methods, dict entries)
for timing wrappers and puts every original back on :meth:`Tracer.restore`.
The package source is never edited: the wrappers call the very objects they
replace, with the same arguments. Spans live in memory and are reduced to
per-layer figures after the timed part of a run.

Each span is ``(name, start, end, depth, info)``. ``depth`` counts enclosing
traced spans, so depth-0 spans are the top-level calls a loop makes. A
wrapper built with ``phase=`` sets :attr:`Tracer.phase` before it runs, and a
wrapper built with ``phased=True`` appends the current phase to its name:
this is how ``backward`` and ``Adam.step`` are told apart between phase 1,
phase 2 and teacher training, which call the same objects.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from statistics import median


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.depth = 0
        self.phase = ""
        self._starts: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def swap(self, owner, attr: str, new) -> object:
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = new
        else:
            old = getattr(owner, attr)
            setattr(owner, attr, new)
        self._undo.append((owner, attr, old))
        return old

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def span(self, name: str, fn, phase: str | None = None, phased: bool = False, info=None):
        """A wrapper of ``fn`` that records one span per call.

        ``info(args, kwargs)``, when given, is stored with the span (sizes,
        tape lengths); it runs outside the timed interval.
        """
        tracer = self

        def traced(*args, **kwargs):
            if phase is not None:
                tracer.phase = phase
            label = f"{name}@{tracer.phase}" if phased else name
            depth = tracer.depth
            tracer.depth = depth + 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.depth = depth
                extra = info(args, kwargs) if info is not None else None
                tracer.spans.append((label, t0, t1, depth, extra))

        return traced

    def wrap(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]``) by a traced wrapper."""
        current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self.swap(owner, attr, self.span(name, current, **kw))

    def wrap_backward(self, owner) -> None:
        """Trace ``backward`` and record the tape length of each loss.

        The wrapper builds the tape with ``Tape.trace`` and hands it to the
        real ``backward``, which would otherwise build the same tape itself,
        so the work inside the span is unchanged.
        """
        from simdistill.nnkit.tensor import Tape

        real = owner.backward
        tracer = self

        def traced(loss, params=None, tape=None):
            depth = tracer.depth
            tracer.depth = depth + 1
            t0 = time.perf_counter()
            try:
                tape = tape if tape is not None else Tape.trace(loss)
                return real(loss, params, tape=tape)
            finally:
                t1 = time.perf_counter()
                tracer.depth = depth
                tracer.spans.append((f"backward@{tracer.phase}", t0, t1, depth, len(tape)))

        self.swap(owner, "backward", traced)

    # -- reduction ----------------------------------------------------------

    def finish(self) -> None:
        """Order spans by start time; call once, after the traced part."""
        self.spans.sort(key=lambda s: s[1])
        self._starts = [s[1] for s in self.spans]

    def between(self, t0: float, t1: float, depth: int | None = None):
        """Spans that lie inside [t0, t1], optionally at one depth."""
        lo, hi = bisect_left(self._starts, t0), bisect_right(self._starts, t1)
        return [s for s in self.spans[lo:hi] if s[2] <= t1 and (depth is None or s[3] == depth)]

    def calls(self, name: str):
        return [s for s in self.spans if s[0] == name]

    def call_median_ms(self, name: str) -> float:
        """Median duration of one call, or 0.0 when the layer never ran."""
        durations = [(s[2] - s[1]) * 1e3 for s in self.calls(name)]
        return median(durations) if durations else 0.0


def total_ms(spans, name: str) -> float:
    return sum((s[2] - s[1]) * 1e3 for s in spans if s[0] == name)


def median_or_zero(values) -> float:
    values = list(values)
    return median(values) if values else 0.0
