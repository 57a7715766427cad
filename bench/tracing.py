"""In-memory span tracer installed around package functions from outside.

A boundary names a function of the package.  Installing it replaces that
function object under every name that any ``synideal`` module binds it to
(``harness._partition`` as well as ``dfa._partition``), so calls made through
module globals are seen too; ``restore`` puts every original back.  A name the
package no longer defines is reported absent instead of failing the run.

Each call through a span boundary records (name, start, end, parent) in flat
arrays; self time is a span's duration minus the durations of its direct
children, which nest inside it because the benchmark is single-threaded.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Boundary:
    """A package function to wrap.

    ``observe(tracer, parent, args, kwargs, result)`` updates ``tracer.counts``
    after each call; ``parent`` is the name of the enclosing span or None.
    With ``span=False`` the call is only observed, never timed, so its time
    stays in its caller's self time.  A call made directly inside a span named
    in ``fold_under`` is not a span of its own either.
    """

    name: str
    module: str
    attr: str
    observe: Callable | None = None
    span: bool = True
    fold_under: frozenset[str] = frozenset()


@dataclass
class Tracer:
    names: list[str] = field(default_factory=list)
    name_of: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    stack: list[int] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    keys: dict[str, set] = field(default_factory=dict)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def current(self) -> str | None:
        return self.names[self.name_of[self.stack[-1]]] if self.stack else None

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def by_name(self) -> dict[str, tuple[list[float], list[float]]]:
        """Per span name: (inclusive durations, self times), in call order."""
        own = self.self_times()
        out: dict[str, tuple[list[float], list[float]]] = {}
        for i, nid in enumerate(self.name_of):
            durations, selfs = out.setdefault(self.names[nid], ([], []))
            durations.append(self.end[i] - self.start[i])
            selfs.append(own[i])
        return out

    def write(self, path) -> None:
        """Spans as four native-endian arrays: name id (i32), parent index
        (i32, -1 for none), start and end (f64, perf_counter seconds)."""
        with open(path, "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def _wrap(tracer: Tracer, b: Boundary, fn: Callable) -> Callable:
    clock = time.perf_counter
    observe = b.observe
    if not b.span:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(tracer, tracer.current(), args, kwargs, result)
            return result
        return counted

    nid = tracer.name_id(b.name)
    fold = {tracer.name_id(n) for n in b.fold_under}
    names, stack = tracer.names, tracer.stack
    name_of, parents, starts, ends = tracer.name_of, tracer.parent, tracer.start, tracer.end

    def spanned(*args, **kwargs):
        parent = stack[-1] if stack else -1
        if parent >= 0 and name_of[parent] in fold:
            return fn(*args, **kwargs)
        i = len(starts)
        name_of.append(nid)
        parents.append(parent)
        ends.append(0.0)
        stack.append(i)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[i] = clock()
            stack.pop()
        if observe is not None:
            observe(tracer, names[name_of[parent]] if parent >= 0 else None, args, kwargs, result)
        return result

    return spanned


def install(tracer: Tracer, boundaries) -> tuple[Callable[[], None], list[str]]:
    """Wrap every boundary; returns (restore, names of absent boundaries)."""
    modules = [m for k, m in list(sys.modules.items()) if k == "synideal" or k.startswith("synideal.")]
    patched: list[tuple[object, str, Callable]] = []
    absent: list[str] = []
    for b in boundaries:
        fn = getattr(sys.modules.get(b.module), b.attr, None)
        if not callable(fn):
            absent.append(b.name)
            continue
        wrapper = _wrap(tracer, b, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, fn))

    def restore() -> None:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)

    return restore, absent
