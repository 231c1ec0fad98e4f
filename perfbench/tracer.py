"""In-memory span tracer that wraps public callables from outside.

The benchmark measures layers without touching the program: it
replaces a public method on an *instance* (``engine.tick``) or a
function on a *module* (``serialize.encode_ping_reply``) with a
wrapper that records one span per call, then puts the original back.
Call sites that look the name up at call time (``self.tick()``,
``serialize.encode_ping_reply(...)``) see the wrapper; nothing else
changes, which the benchmark checks by comparing output digests of a
traced and an untraced run.

A span is ``(name, start, end, parent, rid)``: ``parent`` is the index
of the enclosing span on the same thread (``-1`` for none) and ``rid``
a request id joining spans of one request.  Spans stay in memory and
are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

Span = Tuple[str, float, float, int, Any]

#: ``rid_of(args, kwargs) -> request id`` for one call.
RidOf = Callable[[Tuple[Any, ...], Dict[str, Any]], Any]
#: ``on_call(args, kwargs, result)``, run after each call returns.
OnCall = Callable[[Tuple[Any, ...], Dict[str, Any], Any], None]


def covered_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = lo
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """A span's duration minus the part of it its children cover."""
    _, start, end, _, _ = span
    covered = covered_length(((c[1], c[2]) for c in children), start, end)
    return (end - start) - covered


class Tracer:
    """Record spans around wrapped callables; undo with :meth:`restore`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: Span names whose callable no longer exists in the program.
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        rid_of: Optional[RidOf] = None,
        on_call: Optional[OnCall] = None,
    ) -> bool:
        """Trace ``owner.attr`` as span *name*; ``False`` if it is gone.

        *owner* is an instance or a module.  Coroutine functions get an
        async wrapper whose spans cover the awaited call; they take no
        parent, since a stack cannot follow a task across awaits.
        """
        if attr.startswith("_"):
            raise ValueError(f"only public callables are traced: {attr}")
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(name)
            return False
        had_own = attr in getattr(owner, "__dict__", {})
        if inspect.iscoroutinefunction(original):
            wrapper = self._async_wrapper(original, name, rid_of, on_call)
        else:
            wrapper = self._sync_wrapper(original, name, rid_of, on_call)
        setattr(owner, attr, wrapper)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)
        return True

    def _sync_wrapper(
        self,
        fn: Callable[..., Any],
        name: str,
        rid_of: Optional[RidOf],
        on_call: Optional[OnCall],
    ) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            rid = None if rid_of is None else rid_of(args, kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent, rid))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, rid)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def _async_wrapper(
        self,
        fn: Callable[..., Any],
        name: str,
        rid_of: Optional[RidOf],
        on_call: Optional[OnCall],
    ) -> Callable[..., Any]:
        spans = self.spans
        clock = self.clock

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            rid = None if rid_of is None else rid_of(args, kwargs)
            start = clock()
            try:
                result = await fn(*args, **kwargs)
            finally:
                spans.append((name, start, clock(), -1, rid))
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- queries -------------------------------------------------------

    def named(self, name: str) -> List[int]:
        """Indices of the spans called *name*, in start order."""
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def children_of(self) -> Dict[int, List[Span]]:
        """Parent index -> its child spans."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span[3] >= 0:
                children.setdefault(span[3], []).append(span)
        return children

    def self_times(self, name: str) -> List[float]:
        """Self time of every span called *name*."""
        children = self.children_of()
        return [
            self_time(self.spans[i], children.get(i, []))
            for i in self.named(name)
        ]

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, rid in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "rid": rid,
                        }
                    )
                    + "\n"
                )
