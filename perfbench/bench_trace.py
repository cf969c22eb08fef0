"""Spans around calls into the library's public functions.

The tracer replaces module attributes with timing wrappers while it is
installed and puts the originals back on ``uninstall``.  A module that
imported a function by name holds its own binding (``fluct`` binds
``key_rate_strong`` and ``maximize_scalar``, ``bounds`` binds
``linprog``), so every binding a caller looks up is wrapped, not only
the one in the defining module.

Spans are not kept one by one: ``finite_scan`` makes about 1e5 per
query.  Each finished span is folded into the statistics of its
(parent name, name) pair, in memory, and the report is built from those
at the end of the run.  A span's self time is its duration minus the
durations of its direct children; spans nest strictly (one thread), so
children never overlap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

ROOT = "query"


@dataclass
class SpanStats:
    """Aggregate of every span with one (parent, name) pair."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: Dict[str, int] = field(default_factory=dict)
    flags: Dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[List] = []  # [name, seconds spent in children]
        self._patches: List[Tuple[object, str, object]] = []
        self.spans: Dict[Tuple[Optional[str], str], SpanStats] = {}

    # --- recording ---------------------------------------------------

    def _enter(self, name: str) -> Tuple[Optional[str], List, float]:
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        return parent, frame, self._clock()

    def _exit(self, parent, frame, start, error=None, flag=None) -> None:
        duration = self._clock() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        stats = self.spans.get((parent, frame[0]))
        if stats is None:
            stats = self.spans[(parent, frame[0])] = SpanStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame[1]
        if error is not None:
            stats.errors[error] = stats.errors.get(error, 0) + 1
        if flag is not None:
            stats.flags[flag] = stats.flags.get(flag, 0) + 1

    @contextmanager
    def span(self, name: str = ROOT):
        parent, frame, start = self._enter(name)
        try:
            yield
        finally:
            self._exit(parent, frame, start)

    def wrap(
        self,
        name: str,
        fn: Callable,
        flag_of: Optional[Callable[[object], Optional[str]]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``flag_of(result)`` may name a flag to count."""

        def traced(*args, **kwargs):
            parent, frame, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(parent, frame, start, error=type(exc).__name__)
                raise
            self._exit(parent, frame, start, flag=flag_of(result) if flag_of else None)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installation ------------------------------------------------

    def install(self, targets: Iterable[Tuple[object, str, str]], flags=None) -> None:
        """Wrap ``module.attr`` as span ``name`` for each target triple."""
        flags = flags or {}
        for module, attr, name in targets:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, flags.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # --- queries over the aggregate ----------------------------------

    def by_name(self, name: str) -> SpanStats:
        """Statistics of ``name`` summed over all its parents."""
        out = SpanStats()
        for (_, span_name), st in self.spans.items():
            if span_name != name:
                continue
            out.calls += st.calls
            out.total_s += st.total_s
            out.self_s += st.self_s
            for key, count in st.errors.items():
                out.errors[key] = out.errors.get(key, 0) + count
            for key, count in st.flags.items():
                out.flags[key] = out.flags.get(key, 0) + count
        return out

    def call_counts(self) -> Dict[str, int]:
        """Calls per span name, summed over parents."""
        counts: Dict[str, int] = {}
        for (_, name), st in self.spans.items():
            counts[name] = counts.get(name, 0) + st.calls
        return counts

    def table(self) -> List[dict]:
        """The (parent, name) aggregate as plain rows, largest self time first."""
        rows = [
            {
                "parent": parent,
                "name": name,
                "calls": st.calls,
                "total_s": st.total_s,
                "self_s": st.self_s,
                "errors": dict(st.errors),
                "flags": dict(st.flags),
            }
            for (parent, name), st in self.spans.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
