"""Spans and counters recorded from outside the package.

Each layer function is replaced, at the name its caller looks it up, by a
wrapper that records a span (name, parent, start, end) and, where asked,
calls a hook with the arguments and the result.  Spans are kept in flat
arrays while the run lasts and written out once when it ends; self time is a
span's duration minus the durations of its direct children.

The span arrays live in anonymous memory maps of their own, not in the
allocator's heap.  Growing arrays in the heap would stop it from shrinking
between the package's large temporaries, and so change how often the package
page-faults: a traced run would then time another program than the untraced
one.

Without spans (the untraced, timed run) only the hooks are installed, on the
few calls that the end-to-end metrics and the output checks need: one call per
filter run or per CLI command, so the cost is a function call per ~0.1 s of
work.  The untraced run also wraps the per-step functions in a
``SegmentClock``, which counts their returns and reads the clock at every
64th.
"""

import mmap
import struct
from time import perf_counter

import numpy as np


class SpanStore:
    """Fixed-width span columns in memory maps, doubled in size when full."""

    __slots__ = ("n", "cap", "name", "parent", "start", "end", "_maps")
    COLUMNS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))

    def __init__(self, cap=1 << 16):
        self.n = 0
        self.cap = 0
        self._maps = []
        self._allocate(cap)

    def _allocate(self, cap):
        old_maps, self._maps = self._maps, []
        for col, code in self.COLUMNS:
            mm = mmap.mmap(-1, cap * struct.calcsize(code),
                           flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            view = memoryview(mm).cast(code)
            if old_maps:
                old = getattr(self, col)
                view[:self.n] = old[:self.n]
                old.release()
            setattr(self, col, view)
            self._maps.append(mm)
        for mm in old_maps:
            mm.close()
        self.cap = cap

    def grow(self):
        self._allocate(2 * self.cap)

    def column(self, col, dtype):
        """A numpy copy of the first ``n`` entries of a column."""
        return np.frombuffer(getattr(self, col), dtype=dtype, count=self.n).copy()


def _mapped(n, code="d"):
    """A zeroed array of ``n`` items in an anonymous memory map of its own."""
    mm = mmap.mmap(-1, n * struct.calcsize(code), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return mm, np.frombuffer(mm, dtype=code)


class SegmentClock:
    """The fastest time of each stretch of a round, over a run's rounds.

    Every round runs the same command on the same seed, so it makes the same
    calls in the same order.  A tick is a return from one of the per-step
    functions wrapped with ``ticking``; every ``GROUP``-th tick of a round
    ends a segment, and so does the round's end.  Each segment is a few
    milliseconds to a tenth of a second of work.  ``wall_s`` is the sum over
    segments of the fastest time each took in any round.  A slow spell of the
    host that lasts seconds slows some rounds' segments, but each segment
    keeps its fastest reading, which the spell did not touch.

    The arrays live in memory maps, like the span store, so the clock adds
    nothing to the allocator's heap.
    """

    GROUP = 64
    CAP = 1 << 16  # marks per round: 4M ticks, over 160 times what a round makes now

    def __init__(self):
        self._maps = []
        for col in ("marks", "segs", "best"):
            mm, arr = _mapped(self.CAP)
            self._maps.append(mm)  # the arrays are views; keep their maps open
            setattr(self, col, arr)
        self.n = 0
        self.ticks = 0
        self.n_segments = None  # fixed by the first round
        self.consistent = True

    def ticking(self, fn):
        """Wrap ``fn`` so that each return is a tick."""
        group = self.GROUP

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.ticks += 1
            if self.ticks % group == 0 and self.n < self.CAP - 1:
                self.marks[self.n] = perf_counter()
                self.n += 1
            return result

        return wrapper

    def start(self):
        self.ticks = 0
        self.n = 1
        self.marks[0] = perf_counter()

    def stop(self):
        """End the round; returns its wall time."""
        self.marks[self.n] = perf_counter()
        return float(self.marks[self.n] - self.marks[0])

    def keep(self):
        """Fold the round just stopped into the per-segment fastest times."""
        m = self.n  # segments: n + 1 marks
        segs = self.segs[:m]
        np.subtract(self.marks[1:m + 1], self.marks[:m], out=segs)
        if self.n_segments is None:
            self.n_segments = m
            self.best[:m] = segs
        elif m == self.n_segments:
            np.minimum(self.best[:m], segs, out=self.best[:m])
        else:
            self.consistent = False

    def wall_s(self):
        """Sum of the per-segment fastest times, or NaN if rounds differed."""
        if self.n_segments is None or not self.consistent:
            return float("nan")
        return float(self.best[:self.n_segments].sum())


class Tracer:
    """Installs wrappers, keeps spans in memory and restores the originals."""

    def __init__(self, spans_on):
        self.spans_on = spans_on
        self.names = []
        self._name_ids = {}
        self.spans = SpanStore() if spans_on else None
        self._stack = []
        self._patched = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn, hook=None):
        """Return ``fn`` wrapped so that each call records a span."""
        if not self.spans_on:
            return fn if hook is None else _hooked(fn, hook)
        nid = self._name_id(name)
        st, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = st.n
            if idx == st.cap:
                st.grow()
            st.n = idx + 1
            st.name[idx] = nid
            st.parent[idx] = stack[-1] if stack else -1
            stack.append(idx)
            st.start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                # read through ``st``: a nested call may have grown the store
                st.end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr, name, hook=None, always=False):
        """Replace ``module.attr`` by a wrapper; ``always`` installs the hook untraced."""
        if self.spans_on or always:
            self.replace(module, attr, lambda fn: self.span(name, fn, hook))

    def replace(self, module, attr, wrap):
        """Replace ``module.attr`` by ``wrap(module.attr)`` until ``restore``."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrap(original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start, end, self time."""
        st = self.spans
        name, parent = st.column("name", np.int32), st.column("parent", np.int32)
        start, end = st.column("start", float), st.column("end", float)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        return name, parent, start, end, dur - child_time

    def write(self, path):
        name, parent, start, end, self_time = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end, self_time=self_time)


def _hooked(fn, hook):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(-1, args, kwargs, result)
        return result

    return wrapper


class SpanTable:
    """Per-name sums over a finished trace."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name, self.parent, self.start, self.end, self.self_time = tracer.arrays()
        self.dur = self.end - self.start

    def ids(self, name):
        return self.names.index(name) if name in self.names else -1

    def mask(self, name):
        return self.name == self.ids(name)

    def total(self, name):
        """Inclusive time of the outermost spans of ``name`` (nested repeats not counted twice)."""
        nid = self.ids(name)
        m = self.name == nid
        outer = m & ((self.parent < 0) | (self.name[np.maximum(self.parent, 0)] != nid))
        return float(self.dur[outer].sum())

    def self_total(self, name):
        return float(self.self_time[self.mask(name)].sum())

    def count(self, name):
        return int(self.mask(name).sum())

    def count_under(self, name, parent_name):
        m = self.mask(name) & (self.parent >= 0)
        return int((self.name[self.parent[m]] == self.ids(parent_name)).sum())
