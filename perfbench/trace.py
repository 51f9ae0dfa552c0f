"""Spans and counts recorded around calls into the library's layers.

A span is ``[name, start_ns, end_ns, parent]``: ``parent`` is the index
of the enclosing span, ``-1`` for a root span of this process and
``-2`` for a root span recorded in a pool worker (merged after the
task returned).  A layer's self time is the duration of its spans minus
the time their child spans cover.

With tracing off every entry point is a no-op: :meth:`Tracer.span`
hands back one shared null context, :meth:`Tracer.wrap` returns the
callable unchanged, :meth:`Tracer.patch` leaves the owner untouched and
:meth:`Tracer.count` returns at once.  :meth:`Tracer.restore` undoes
every patch.  The traced and untraced runs
therefore execute the same workload code.
"""

import contextlib
import functools
import time
from collections import Counter, defaultdict

LOCAL_ROOT = -1
REMOTE_ROOT = -2

_NULL = contextlib.nullcontext()
_ABSENT = object()


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.record = self.tracer._enter(self.name)

    def __exit__(self, *exc_info):
        self.tracer._exit(self.record)
        return False


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self, enabled):
        self.enabled = bool(enabled)
        self.spans = []
        self.counts = Counter()
        self._open = []
        self._replaced = []

    def span(self, name):
        """Context manager timing one call into layer ``name``."""
        if not self.enabled:
            return _NULL
        return _Span(self, name)

    def _enter(self, name):
        record = [name, time.perf_counter_ns(), 0,
                  self._open[-1] if self._open else LOCAL_ROOT]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def _exit(self, record):
        record[2] = time.perf_counter_ns()
        self._open.pop()

    def count(self, name, amount=1):
        if self.enabled:
            self.counts[name] += amount

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(tracer, result, args)`` may count
        from the return value."""
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(record)
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def patch(self, owner, attribute, name, after=None):
        """Replace ``owner.attribute`` (module function, class method or
        bound method of one instance) by its traced wrapper."""
        if self.enabled:
            self.replace(owner, attribute,
                         self.wrap(name, getattr(owner, attribute), after))

    def replace(self, owner, attribute, value):
        """Set ``owner.attribute`` until :meth:`restore`."""
        self._replaced.append(
            (owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, value)

    def restore(self):
        """Undo every :meth:`patch` and :meth:`replace`, newest first."""
        while self._replaced:
            owner, attribute, original = self._replaced.pop()
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def take(self, since):
        """Remove and return the spans recorded from index ``since`` on,
        with every count, re-rooted for :meth:`merge` in another
        process."""
        spans = [[name, start, end, parent - since if parent >= since
                  else REMOTE_ROOT]
                 for name, start, end, parent in self.spans[since:]]
        del self.spans[since:]
        counts = dict(self.counts)
        self.counts.clear()
        return spans, counts

    def merge(self, spans, counts):
        """Adopt spans and counts a pool worker recorded."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else REMOTE_ROOT])
        self.counts.update(counts)

    def self_times(self):
        """Seconds of self time per span name."""
        covered = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start - covered[index]) / 1e9
        return dict(totals)

    def coverage(self, start_ns, end_ns):
        """Share of ``[start_ns, end_ns]`` inside this process's root
        spans (which never overlap: one process runs one call at a
        time)."""
        inside = sum(min(end, end_ns) - max(start, start_ns)
                     for _name, start, end, parent in self.spans
                     if parent == LOCAL_ROOT and end > start_ns
                     and start < end_ns)
        return inside / max(end_ns - start_ns, 1)
