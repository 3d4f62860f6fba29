"""In-memory span tracer and function patching for the traced benchmark run.

A span is one call of a wrapped function (or one benchmark phase).  Spans
are aggregated by their path from the root phase, so every node of the call
tree keeps its call count, total time and self time (total minus the time
covered by its child spans).  Counters attach to the innermost open span.

Functions are wrapped where their callers look them up: a module attribute
(`rvf.harness.adam_step`) or a class attribute (`EnsembleCritic.member_params`).
A target that no longer exists is reported as absent instead of failing, so
renaming or deleting a traced function never breaks the benchmark.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []                 # open frames: [path, start, child_time]
        self.calls = defaultdict(int)    # path -> completed calls
        self.total = defaultdict(float)  # path -> seconds, inclusive
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)   # (path, counter) -> sum

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else ()
        self._stack.append([parent + (name,), self.clock(), 0.0])

    def exit(self) -> None:
        path, start, child = self._stack.pop()
        dur = self.clock() - start
        self.calls[path] += 1
        self.total[path] += dur
        self.self_time[path] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, counter: str, value: float = 1.0) -> None:
        """Add to a counter on the innermost open span."""
        if self._stack:
            self.counters[(self._stack[-1][0], counter)] += value

    # -- queries: sums over every tree node named `name` under root `roots`

    def _select(self, table, name, roots):
        return sum(v for path, v in table.items()
                   if path[-1] == name and (roots is None or path[0] in roots))

    def n_calls(self, name: str, roots=None) -> int:
        return int(self._select(self.calls, name, roots))

    def seconds(self, name: str, roots=None) -> float:
        return self._select(self.total, name, roots)

    def self_seconds(self, name: str, roots=None) -> float:
        return self._select(self.self_time, name, roots)

    def counter(self, name: str, counter: str, roots=None) -> float:
        return sum(v for (path, c), v in self.counters.items()
                   if c == counter and path[-1] == name
                   and (roots is None or path[0] in roots))

    def tree(self) -> list[dict]:
        """Every node of the aggregated call tree, in path order."""
        rows = []
        for path in sorted(self.calls):
            row = {"path": "/".join(path), "calls": self.calls[path],
                   "total_ms": self.total[path] * 1e3,
                   "self_ms": self.self_time[path] * 1e3}
            for (cpath, c), v in self.counters.items():
                if cpath == path:
                    row[c] = v
            rows.append(row)
        return rows


@dataclass(frozen=True)
class PatchTarget:
    """`module.attr` is wrapped in a span called `span`.

    `attr` is a name in the module or a dotted `Class.method`;
    `hook(tracer, args, kwargs)` may count things about the call and returns
    the (possibly wrapped) arguments.
    """

    module: object
    attr: str
    span: str
    hook: object = None


def wrap(tracer: Tracer, fn, span: str, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(span)
        try:
            if hook is not None:
                args, kwargs = hook(tracer, args, kwargs)
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return traced


class Patcher:
    """Installs wrappers on PatchTargets and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.installed: set[str] = set()
        self._undo = []

    def install(self, targets) -> None:
        for t in targets:
            *outer, name = t.attr.split(".")
            owner = t.module
            for part in outer:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(name) if owner is not None else None
            if not callable(fn):
                print(f"trace: {t.module.__name__}.{t.attr} not found; "
                      f"{t.span} reported absent")
                continue
            setattr(owner, name, wrap(self.tracer, fn, t.span, t.hook))
            self._undo.append((owner, name, fn))
            self.installed.add(t.span)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def absent(self, span: str) -> bool:
        """True when no wrapper for `span` could be installed."""
        return span not in self.installed
