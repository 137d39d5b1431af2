"""Spans and counters recorded from outside `goeritz`.

The tracer swaps each traced function for a wrapper in every place that
refers to it (module namespaces, classes, the benchmark's oracle table)
and restores the originals on `uninstall`.  Three wrapper kinds:

* span: one record per call with name, start, end, parent span and op
  id; self time is the duration minus the time covered by child spans
  and by timed aggregates below it;
* timed aggregate: count and summed time per (parent span, name), for
  calls too frequent for a span each (the contraction oracles);
* counter: call count per (parent span, name) only, for calls that take
  under a microsecond (stabilizer arithmetic).

Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter, defaultdict
from math import log, log2
from statistics import linear_regression, median
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # a frame is [span id, start, time covered by children]
        self.stack: list[list] = []
        self.spans: list[tuple] = []  # (id, name, parent, op, start, end, self_s, size)
        self.timed: dict[str, defaultdict] = {}  # name -> parent -> [calls, seconds]
        self.counted: dict[str, Counter] = {}  # name -> parent -> calls
        self.op_id = -1
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------

    def span(self, name: str, fn, size=None):
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, perf_counter(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                n = size(args, result) if size is not None and result is not None else 0
                spans.append(
                    (sid, name, parent, self.op_id, frame[1], end, duration - frame[2], n)
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_aggregate(self, name: str, fn):
        stack = self.stack
        acc = self.timed.setdefault(name, defaultdict(lambda: [0, 0.0]))

        def wrapper(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                top = stack[-1]
                top[2] += duration
                slot = acc[top[0]]
                slot[0] += 1
                slot[1] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        stack = self.stack
        acc = self.counted.setdefault(name, Counter())

        def wrapper(*args):
            acc[stack[-1][0] if stack else -1] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def patch_function(self, original, wrapper, package: str = "goeritz") -> None:
        """Replace `original` by `wrapper` in every module of the package
        whose namespace refers to it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch_attr(module, attr, wrapper)

    def patch_attr(self, owner, attr: str, value) -> None:
        # from a class, keep the raw descriptor (function or classmethod)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def watch_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += perf_counter() - self._gc_start

    # -- summaries --------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, self seconds, summed size] over everything recorded."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        for s in self.spans:
            total = out[s[1]]
            total[0] += 1
            total[1] += s[6]
            total[2] += s[7]
        for name, per_parent in self.timed.items():
            for calls, seconds in per_parent.values():
                out[name][0] += calls
                out[name][1] += seconds
        for name, per_parent in self.counted.items():
            out[name][0] += sum(per_parent.values())
        return out

    def size_ladder(self, name: str) -> list[tuple[int, int, float]]:
        """(median size, span count, median self ms) per size bucket; a
        bucket spans a factor of sqrt(2) in size."""
        buckets: dict[int, list[tuple[int, float]]] = defaultdict(list)
        for s in self.spans:
            if s[1] == name and s[7] > 0:
                buckets[round(2 * log2(s[7]))].append((s[7], s[6]))
        rows = []
        for key in sorted(buckets):
            points = buckets[key]
            rows.append((
                median(p[0] for p in points),
                len(points),
                median(p[1] for p in points) * 1e3,
            ))
        return rows

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\top\tstart_s\tend_s\tself_s\tsize\n")
            for s in self.spans:
                fh.write("%d\t%s\t%d\t%d\t%.9f\t%.9f\t%.9f\t%d\n" % s)
            for kind, table in (("timed", self.timed), ("counted", self.counted)):
                for name, per_parent in table.items():
                    for parent, value in per_parent.items():
                        fh.write(f"# {kind}\t{name}\tparent={parent}\t{value}\n")


def log_log_slope(rows) -> float:
    """Least-squares slope of log(self time) against log(size) over the
    ladder rows; 0.0 when fewer than two rungs were seen."""
    points = [(log(size), log(ms)) for size, _, ms in rows if size > 0 and ms > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    return linear_regression([x for x, _ in points], [y for _, y in points]).slope
