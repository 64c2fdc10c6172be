"""In-memory spans around the public entry points the benchmark calls.

Tracing lives entirely in the benchmark: :class:`Tracer` patches a named
attribute (a module function, a class method, a static method or one
object's bound method) with a wrapper that records a span, and puts every
original back on :meth:`Tracer.restore`.  Spans are kept in a list and only
written out, as JSONL, when the run ends.

A span records its name, start and end (``perf_counter_ns``), a trace id, its
own id and its parent's id.  The parent is the innermost open span of the
same thread; a span opened with no parent starts a new trace.  A span that
names no ``tenant`` attribute inherits its parent's.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "trace_id", "span_id", "parent_id", "attrs")

    def __init__(self, name, start, trace_id, span_id, parent_id, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            **self.attrs,
        }


class Tracer:
    """Collect spans from patched entry points; see the module docstring."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if parent is not None and "tenant" not in attrs and "tenant" in parent.attrs:
            attrs["tenant"] = parent.attrs["tenant"]
        span = Span(
            name,
            time.perf_counter_ns(),
            parent.trace_id if parent else span_id,
            span_id,
            parent.span_id if parent else None,
            attrs,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------ #
    def patch(
        self,
        owner,
        attr: str,
        name: str,
        attrs: Optional[Callable[..., Dict[str, object]]] = None,
        after: Optional[Callable[..., Dict[str, object]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(*args, **kwargs)`` adds span attributes before the call and
        ``after(result, *args, **kwargs)`` after it; both see the arguments
        as the wrapped callable receives them (``self`` first for a method
        patched on its class).
        """
        is_class = inspect.isclass(owner)
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, staticmethod):
            target = static.__func__
        elif is_class:
            target = static
        else:
            target = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name, **(attrs(*args, **kwargs) if attrs else {}))
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                span.attrs.update(after(result, *args, **kwargs))
            return result

        if isinstance(static, staticmethod):
            wrapper = staticmethod(wrapper)
        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        had_own = inspect.isclass(owner) or inspect.ismodule(owner) or attr in vars(owner)
        original = inspect.getattr_static(owner, attr) if had_own else None
        setattr(owner, attr, value)
        self._patches.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.as_dict(), default=float) + "\n")


class TimedIterable:
    """Iterable proxy that records a span around each ``next`` it serves."""

    def __init__(self, inner, tracer: Tracer, name: str):
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        iterator = iter(self._inner)
        while True:
            span = self._tracer.open(self._name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._tracer.close(span)
            yield item


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #
def self_seconds(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its direct children cover.

    Children of one span run in the span's own thread, nested and in
    sequence, so their durations add up without overlap.
    """
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] += span.seconds
    return {span.span_id: span.seconds - covered[span.span_id] for span in spans}


def select(
    spans: Iterable[Span],
    name: str,
    tenant: Optional[str] = None,
    window: Optional[tuple] = None,
) -> List[Span]:
    """Spans called ``name`` (of ``tenant``), starting inside ``window``."""
    out = []
    for span in spans:
        if span.name != name:
            continue
        if tenant is not None and span.attrs.get("tenant") != tenant:
            continue
        if window is not None and not window[0] <= span.start < window[1]:
            continue
        out.append(span)
    return out


def mean_ms(spans: List[Span]) -> float:
    return 1e3 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0
