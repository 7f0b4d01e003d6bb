"""In-memory span tracer that wraps functions from outside the program.

A span is (name, start, end, parent, pass id).  Wrappers are installed by
function identity in every given namespace, so a function re-exported or
imported by name into another module (``from .macsolver import
solve_wsr_mac``) is wrapped there too.  Spans stay in memory until the run
ends; self time is derived from them afterwards.
"""

import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, pass id)
        self.counts = defaultdict(lambda: defaultdict(int))  # pass -> key -> count
        self.times = defaultdict(lambda: defaultdict(float))  # pass -> key -> seconds
        self.pass_id = 0
        self._stack = []
        self._installed = []

    def count(self, key, amount=1):
        self.counts[self.pass_id][key] += amount

    def add_time(self, key, seconds):
        self.times[self.pass_id][key] += seconds

    def wrap(self, name, fn, hook=None):
        """Return a wrapper of ``fn`` that records a span named ``name`` and,
        when the call returns, calls ``hook(tracer, args, kwargs, result,
        seconds)``."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.pass_id)
            if hook is not None:
                hook(tracer, args, kwargs, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, namespaces, targets):
        """Replace every attribute of every namespace that *is* one of the
        target functions.  ``targets`` maps function -> (span name, hook).
        Returns the span names that were installed at least once."""
        by_id = {id(fn): (fn, name, self.wrap(name, fn, hook))
                 for fn, (name, hook) in targets.items()}
        seen = set()
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                fn, name, wrapper = by_id.get(id(value), (None, None, None))
                if fn is value:
                    self._installed.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
                    seen.add(name)
        return seen

    def uninstall(self):
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed = []

    def pass_spans(self, pass_id):
        """Spans of one pass, re-indexed from 0 with parents remapped."""
        keep = [i for i, s in enumerate(self.spans) if s is not None and s[4] == pass_id]
        index = {old: new for new, old in enumerate(keep)}
        return [(s[0], s[1], s[2], index.get(s[3], -1))
                for s in (self.spans[i] for i in keep)]

    def dump(self, path):
        """Write all spans as numpy arrays (names as a string table)."""
        table = sorted({s[0] for s in self.spans if s is not None})
        code = {n: k for k, n in enumerate(table)}
        rows = [s for s in self.spans if s is not None]
        np.savez_compressed(
            path,
            names=np.array(table),
            name=np.array([code[s[0]] for s in rows], dtype=np.int32),
            start=np.array([s[1] for s in rows]),
            end=np.array([s[2] for s in rows]),
            parent=np.array([s[3] for s in rows], dtype=np.int64),
            pass_id=np.array([s[4] for s in rows], dtype=np.int32),
        )


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals clipped to the span.  ``spans`` is a list of
    (name, start, end, parent index)."""
    children = defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def group_times(spans, group_of):
    """Inclusive and self time per group (for example per module).

    Inclusive time sums the spans of a group that have no ancestor in the
    same group, so nested calls within one group are not counted twice.
    ``group_of(name)`` maps a span name to its group."""
    selfs = self_times(spans)
    inclusive = defaultdict(float)
    self_sum = defaultdict(float)
    groups = [group_of(s[0]) for s in spans]
    for idx, (_, start, end, parent) in enumerate(spans):
        g = groups[idx]
        self_sum[g] += selfs[idx]
        p = parent
        while p >= 0 and groups[p] != g:
            p = spans[p][3]
        if p < 0:
            inclusive[g] += end - start
    return dict(inclusive), dict(self_sum)
