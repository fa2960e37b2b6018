"""Thread-safe span tracer that wraps functions from the outside.

Each wrapped call records a span: name, start, end, parent span,
request id and thread.  Spans and counters live in per-thread buffers
(registered once under a lock), so the hot path takes no lock; they are
merged only when the run ends.  Work handed to another thread keeps its
parent through `context()` / `adopted()`.  Counters only count inside a
request (a `span(..., request=k)` block or work adopted from one), and
spans outside a request carry request None, so work the benchmark does
between requests, such as checking outputs, can be left out.  Nothing
here knows about dwde; `layers.py` decides what to wrap.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    request: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState:
    __slots__ = ("stack", "request", "spans", "counts", "thread")

    def __init__(self, thread: int):
        self.stack: list[int] = []
        self.request: int | None = None
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.thread = thread


# after-hook: (add, args, kwargs, result) -> None, where add(name, n) bumps a counter
AfterHook = Callable[[Callable[[str, float], None], tuple, dict, object], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)  # next() is atomic in CPython
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    # -- recording -----------------------------------------------------

    def _open(self, st: _ThreadState) -> tuple[int, int | None]:
        sid = next(self._ids)
        parent = st.stack[-1] if st.stack else None
        st.stack.append(sid)
        return sid, parent

    def _close(self, st: _ThreadState, sid, parent, name, t0, t1) -> None:
        st.stack.pop()
        st.spans.append(Span(sid, parent, name, t0, t1, st.request, st.thread))

    @contextmanager
    def span(self, name: str, request: int | None = None):
        """Span around a block; with `request`, the block is that request."""
        st = self._state()
        saved = st.request
        if request is not None:
            st.request = request
        sid, parent = self._open(st)
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(st, sid, parent, name, t0, self.clock())
            st.request = saved

    def add(self, name: str, n: float = 1) -> None:
        st = self._state()
        if st.request is not None:
            st.counts[name] = st.counts.get(name, 0) + n

    def timed(self, name: str, fn: Callable, after: AfterHook | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            sid, parent = tracer._open(st)
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(st, sid, parent, name, t0, tracer.clock())
            if after is not None:
                after(tracer.add, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Count calls without timing them, for per-step scalars."""
        key = name + ".calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            if st.request is not None:
                st.counts[key] = st.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def timed_generator(
        self, name: str, fn: Callable, after: AfterHook | None = None
    ) -> Callable:
        """Span from the first item to exhaustion; the consumer runs inside
        it, so consume with a C-level loop such as list()."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            sid = next(tracer._ids)
            parent = st.stack[-1] if st.stack else None
            items = 0
            t0 = tracer.clock()
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                st.spans.append(
                    Span(sid, parent, name, t0, tracer.clock(), st.request, st.thread)
                )
                if after is not None:
                    after(tracer.add, args, kwargs, items)

        return wrapper

    # -- context across threads ----------------------------------------

    def context(self) -> tuple[int | None, int | None]:
        st = self._state()
        return (st.stack[-1] if st.stack else None), st.request

    @contextmanager
    def adopted(self, ctx: tuple[int | None, int | None]):
        """Run a block on this thread as if called under `ctx`."""
        st = self._state()
        saved = st.stack, st.request
        parent, request = ctx
        st.stack = [parent] if parent is not None else []
        st.request = request
        try:
            yield
        finally:
            st.stack, st.request = saved

    # -- patching ------------------------------------------------------

    def patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def spans(self) -> list[Span]:
        with self._lock:
            states = list(self._states)
        out = [s for st in states for s in st.spans]
        out.sort(key=lambda s: (s.start, s.id))
        return out

    def counts(self) -> dict[str, float]:
        with self._lock:
            states = list(self._states)
        total: dict[str, float] = {}
        for st in states:
            for k, v in list(st.counts.items()):
                total[k] = total.get(k, 0) + v
        return total


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part covered by child spans, on any thread.

    Children on other threads may overlap each other; their union is
    subtracted once, so a parent waiting on two parallel children is
    not charged negative time.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans in `names` with no ancestor in `names` (recursion counted once)."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def busy_by_name(spans: list[Span]) -> dict[str, float]:
    """Per name, summed duration of its spans not nested in a same-name span."""
    by_id = {s.id: s for s in spans}
    busy: dict[str, float] = {}
    for s in spans:
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            busy[s.name] = busy.get(s.name, 0.0) + s.duration
    return busy
