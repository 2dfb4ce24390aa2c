"""In-memory span recorder and the wrappers that feed it.

A span is one call into a layer: ``(id, parent id, root id, name, start,
end, meta)``.  Spans are opened by wrappers the traced run installs around
the public names each layer exposes (module functions, class methods, or
one object's methods) and are kept in memory until the run writes them out.
A wrapped name that no longer exists is recorded in :attr:`Tracer.missing`
instead of failing, so the trace survives layers being deleted.  The
untraced run never builds a :class:`Tracer`, so it installs nothing.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager, nullcontext

_ABSENT = object()

#: Column order of one recorded span.
FIELDS = ("id", "parent", "root", "name", "start", "end", "meta")


class Tracer:
    """Records spans; parentage follows the synchronous call stack."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------ #

    def traced(self, fn, name: str, annotate=None):
        """``fn`` wrapped so every call records one span named ``name``.

        ``annotate(args, kwargs, result)`` computes the span's ``meta``
        after the end time is taken, so it never counts in the span.
        """
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            root = stack[0] if stack else sid
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                meta = annotate(args, kwargs, result) if annotate else None
                spans.append((sid, parent, root, name, t0, t1, meta))

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span (used around setup steps)."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        root = self._stack[0] if self._stack else sid
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, root, name, t0, t1, None))

    # -- installing wrappers --------------------------------------------- #

    def wrap(self, owner, attr: str, name: str, annotate=None) -> bool:
        """Replace ``owner.attr`` by its traced version until :meth:`unwrap_all`.

        ``owner`` is a module, a class or one object.  Returns ``False`` and
        notes ``name`` in :attr:`missing` when the attribute is gone.
        """
        try:
            original = getattr(owner, attr)
        except AttributeError:
            if name not in self.missing:
                self.missing.append(name)
            return False
        own = vars(owner).get(attr, _ABSENT)
        setattr(owner, attr, self.traced(original, name, annotate))
        self._patches.append((owner, attr, own))
        return True

    def wrap_result(self, owner, attr: str, name: str) -> bool:
        """Like :meth:`wrap`, for a function that *returns* the callable to
        trace (``get_jit_kernel``): the returned callable is traced, while
        the lookup itself is not."""
        try:
            original = getattr(owner, attr)
        except AttributeError:
            if name not in self.missing:
                self.missing.append(name)
            return False
        wrapped: dict[int, object] = {}

        def lookup(*args, **kwargs):
            fn = original(*args, **kwargs)
            traced = wrapped.get(id(fn))
            if traced is None:
                traced = wrapped[id(fn)] = self.traced(fn, name)
            return traced

        own = vars(owner).get(attr, _ABSENT)
        setattr(owner, attr, lookup)
        self._patches.append((owner, attr, own))
        return True

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- output ----------------------------------------------------------- #

    def write(self, path) -> None:
        """Write the spans as JSON lines (times in microseconds)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": FIELDS, "missing": self.missing}) + "\n")
            for sid, parent, root, name, t0, t1, meta in self.spans:
                if meta is not None and not isinstance(meta, (int, float, str)):
                    meta = None
                out.write(
                    json.dumps([sid, parent, root, name, round(t0 * 1e6, 3),
                                round(t1 * 1e6, 3), meta]) + "\n"
                )


def maybe_span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op context when not tracing."""
    return nullcontext() if tracer is None else tracer.span(name)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _root, _name, t0, t1, _meta in spans:
        if parent:
            children.setdefault(parent, []).append((t0, t1))
    return {
        sid: (t1 - t0) - covered(children.get(sid, ()), t0, t1)
        for sid, _parent, _root, _name, t0, t1, _meta in spans
    }
