"""In-memory span recorder for the benchmark's traced runs.

A span is ``(span_id, parent_id, run_id, name, start_ns, end_ns)``. Spans are
recorded around calls into the library's public functions, from the
benchmark's side only: the library itself is never edited. Spans stay in
memory until :meth:`Tracer.write` dumps them at the end of a run.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int, str, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.run_id, name, start, end))

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result)`` adds to ``counts[name]``."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts[name] += count(result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` by a traced wrapper for the duration.

        ``targets`` holds ``(module, attr, span_name)`` or
        ``(module, attr, span_name, count)``. Wrapping the name where the
        caller looks it up records exactly the calls that caller makes.
        """
        saved = [(t[0], t[1], getattr(t[0], t[1])) for t in targets]
        try:
            for module, attr, name, *count in targets:
                setattr(module, attr,
                        self.wrap(name, getattr(module, attr), *count))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    # -- analysis -----------------------------------------------------------

    def durations(self, name: str, runs: set[int]) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [(end - start) / 1e9
                for _, _, run, n, start, end in self.spans
                if n == name and run in runs]

    def self_times(self, name: str, runs: set[int]) -> list[float]:
        """Span duration minus the time its direct children cover."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        return [(end - start - child_ns[sid]) / 1e9
                for sid, _, run, n, start, end in self.spans
                if n == name and run in runs]

    def median_us(self, name: str, runs: set[int]) -> float:
        return statistics.median(self.durations(name, runs)) * 1e6

    def write(self, path) -> None:
        """One CSV row per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,run,name,start_ns,end_ns\n")
            for sid, parent, run, name, start, end in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},"
                         f"{run},{name},{start},{end}\n")
