"""Outside-in span tracing for the benchmark's traced pass.

The tracer replaces public names of transfer_knn where their callers look them
up (for example ``harness.fit``, ``cli.sweep`` and ``NeighborIndex.query_batch``
on the class) with wrappers that record one span per call: name, start, end,
thread and parent.  Nothing under ``src/`` changes, and ``uninstall`` puts every
original back, so tracing cannot change what it measures.

Spans live in per-thread columnar buffers (a parent is always on the same
thread) and are written out once, at the end.  A call nested directly inside a
span of the same name belongs to the outer span and is not recorded again.

A span costs a few microseconds, more than some hot leaf calls take, so those
are only counted (``count``): every call, with no span and no clock read.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class _ThreadLog:
    """Spans and counters recorded by one thread."""

    def __init__(self, thread: int):
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = []
        self.counts = Counter()
        # Neighbour cells fetched under each open predict_batch span.
        self.cells_under = Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self._names = []
        self._ids = {}
        self._patches = []
        self._counters = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._logs_lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    # -- installing and removing wrappers ---------------------------------
    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Record a span around every call of owner.attr.

        note(tracer, log, idx, args, kwargs, result) runs after a successful
        call and may add counters or rename the span.
        """
        original = vars(owner)[attr]
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            log = tracer.log()
            stack = log.stack
            if stack and log.name[stack[-1]] == nid:
                return original(*args, **kwargs)
            idx = len(log.start)
            log.name.append(nid)
            log.parent.append(stack[-1] if stack else -1)
            log.end.append(math.nan)
            stack.append(idx)
            log.start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                log.end[idx] = perf_counter()
                stack.pop()
            if note is not None:
                note(tracer, log, idx, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count every call of owner.attr, nested ones included, as
        ``<name>.calls``; no span, no clock read."""
        original = vars(owner)[attr]
        # next() on an itertools.count is one C call: cheap, and no call is
        # lost when threads race.
        counter = self._counters.setdefault(name, itertools.count())

        @functools.wraps(original)
        def counted(*args, **kwargs):
            next(counter)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    def spans(self) -> dict:
        """All spans as flat arrays; parent indexes are global."""
        names, start, end, thread, parent = [], [], [], [], []
        offset = 0
        for log in self._logs:
            n = len(log.start)
            p = np.frombuffer(log.parent, dtype=np.int64) if n else np.zeros(0, np.int64)
            names.append(np.frombuffer(log.name, dtype=np.int32) if n else np.zeros(0, np.int32))
            start.append(np.frombuffer(log.start) if n else np.zeros(0))
            end.append(np.frombuffer(log.end) if n else np.zeros(0))
            thread.append(np.full(n, log.thread, dtype=np.int32))
            parent.append(np.where(p >= 0, p + offset, -1))
            offset += n
        return {
            "names": np.array(self._names),
            "name": np.concatenate(names),
            "start": np.concatenate(start),
            "end": np.concatenate(end),
            "thread": np.concatenate(thread),
            "parent": np.concatenate(parent),
        }

    def counts(self) -> Counter:
        total = Counter()
        for log in self._logs:
            total.update(log.counts)
        for name, counter in self._counters.items():
            # repr(count) is "count(N)", N being the calls so far.
            total[f"{name}.calls"] += int(repr(counter)[len("count("):-1])
        return total

    def totals(self) -> tuple:
        """Per span name: (calls, busy seconds, self seconds).

        Self time is span time minus the time its child spans cover; children
        run on the parent's thread and inside it, so they never overlap.
        """
        s = self.spans()
        dur = s["end"] - s["start"]
        covered = np.zeros(len(dur))
        has_parent = s["parent"] >= 0
        np.add.at(covered, s["parent"][has_parent], dur[has_parent])
        calls, busy, own = Counter(), Counter(), Counter()
        for nid, name in enumerate(s["names"]):
            sel = s["name"] == nid
            calls[str(name)] = int(np.count_nonzero(sel))
            busy[str(name)] = float(dur[sel].sum())
            own[str(name)] = float((dur[sel] - covered[sel]).sum())
        return calls, busy, own

    def write(self, path: str) -> None:
        np.savez_compressed(path, **self.spans())
