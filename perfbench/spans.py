"""In-memory span tracing of irfkit, applied from outside the program.

Nothing in ``irfkit`` is edited.  :meth:`Tracer.wrap` replaces a function in
the module namespace where its callers look it up (``irfkit.session`` holds
its own references to the estimators and scorers, ``irfkit.cli`` to
``load_index``) with a wrapper that records a span, and :meth:`Tracer.restore`
puts the originals back.

Three kinds of wrapper trade detail for overhead:

* ``span``: one record per call, with name, start, end, parent span and the
  operation id shared by one session, CLI command or ingest pass;
* ``gen``: the same for a generator function, from its call until it is
  exhausted (the benchmark materializes every stage, so nothing else runs
  inside that interval);
* ``agg`` and ``leaf``: per-call work too fine for a record each
  (``normalize`` per document, ``stem`` per token, the judge per document).
  Calls, total and self time are added to the enclosing span instead;
  ``leaf`` is for functions that call nothing traced and skips the frame.

The benchmark opens one ``bench.<kind>`` span per timed operation with
:meth:`Tracer.op`, so every traced call has an enclosing span.

Every call's duration is also charged to its parent as child time, so a
span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import resource
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

# hook(span, arguments by parameter name, result) -> None; fills span.tag
# and span.counts after the span has closed
Hook = Callable[["Span", dict, Any], None]


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "child", "tag", "counts",
                 "leaves", "maxrss_kb")

    def __init__(self, span_id: int, name: str, op: str | None, parent: int | None) -> None:
        self.id = span_id
        self.name = name
        self.op = op
        self.parent = parent
        self.start = 0
        self.end = 0
        self.child = 0
        self.tag: str | None = None
        self.counts: dict[str, float] = {}
        # name -> [calls, total_ns, self_ns] of agg/leaf calls directly inside
        self.leaves: dict[str, list[int]] = {}
        self.maxrss_kb = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "op": self.op, "parent": self.parent,
            "start_ns": self.start, "end_ns": self.end, "self_ns": self.self_ns,
            "tag": self.tag, "counts": self.counts, "leaves": self.leaves,
            "maxrss_kb": self.maxrss_kb,
        }


class _Frame:
    """Stack entry of an ``agg`` call: collects child time, leaves no record."""

    __slots__ = ("child", "leaves")

    def __init__(self) -> None:
        self.child = 0
        self.leaves: dict[str, list[int]] = {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span | _Frame] = []
        self._op: str | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans made by the benchmark itself ---------------------------------

    def open(self, name: str) -> Span:
        parent = next((f.id for f in reversed(self._stack) if isinstance(f, Span)), None)
        span = Span(len(self.spans), name, self._op, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # an abandoned generator closes out of order
            self._stack.remove(span)
        if self._stack:
            self._stack[-1].child += span.end - span.start
        span.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    @contextlib.contextmanager
    def op(self, kind: str, op_id: str):
        """One timed operation: every span inside carries ``op_id``."""
        self._op = op_id
        span = self.open(f"bench.{kind}")
        try:
            yield span
        finally:
            self.close(span)
            self._op = None

    # -- wrapping program functions ------------------------------------------

    def wrap(self, module: Any, attr: str, name: str, kind: str = "span",
             hook: Hook | None = None) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`restore`."""
        factory = {"span": self._span_wrapper, "gen": self._gen_wrapper,
                   "agg": self._agg_wrapper, "leaf": self.leaf}[kind]
        self.patch(module, attr, factory(getattr(module, attr), name, hook))

    def patch(self, module: Any, attr: str, replacement: Any) -> None:
        original = getattr(module, attr)
        if callable(replacement) and callable(original):
            functools.update_wrapper(replacement, original)
        self._patches.append((module, attr, original))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _span_wrapper(self, fn, name, hook):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                hook(span, signature.bind(*args, **kwargs).arguments, result)
            return result
        return wrapper

    def _gen_wrapper(self, fn, name, hook):
        def traced(gen):
            span = self.open(name)
            try:
                yield from gen
            finally:
                self.close(span)

        def wrapper(*args, **kwargs):
            return traced(fn(*args, **kwargs))
        return wrapper

    def _record_leaf(self, name: str, total: int, self_ns: int) -> None:
        if not self._stack:  # called outside every span: not attributed
            return
        entry = self._stack[-1].leaves.get(name)
        if entry is None:
            self._stack[-1].leaves[name] = [1, total, self_ns]
        else:
            entry[0] += 1
            entry[1] += total
            entry[2] += self_ns

    def _agg_wrapper(self, fn, name, hook):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf_counter_ns() - start
                if stack[-1] is frame:
                    stack.pop()
                else:
                    stack.remove(frame)
                self._record_leaf(name, total, total - frame.child)
                if stack:
                    parent = stack[-1]
                    parent.child += total
                    # the callees' figures move up to where spans live
                    for leaf, figures in frame.leaves.items():
                        entry = parent.leaves.setdefault(leaf, [0, 0, 0])
                        for i, value in enumerate(figures):
                            entry[i] += value
        return wrapper

    def leaf(self, fn, name, hook=None):
        """``fn`` counted and timed into the enclosing span, without a frame."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf_counter_ns() - start
                if stack:
                    stack[-1].child += total
                self._record_leaf(name, total, total)
        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json(), sort_keys=True) + "\n")
