"""In-memory span recorder that wraps functions of the package from outside.

A Tracer replaces a module or class attribute with a wrapper that records
(name, parent span, start, end) around each call while `active` is true
and passes the call straight through otherwise.  Spans stay in a list
until the run ends; `summary` turns them into per-name call counts, total
and self times (self = duration minus the time covered by direct
children), and `dump` writes them out as JSON lines.
"""

import json
import time


class Tracer:
    def __init__(self):
        self.spans = []        # [name, parent index, start, end]
        self.active = True
        self._stack = []
        self._patched = []

    def span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr, new):
        """Set owner.attr to `new` until restore()."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr, name):
        """Route owner.attr through a span named `name`."""
        self.patch(owner, attr, self.span(name, getattr(owner, attr)))

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, _, t0, t1), covered in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - covered
        return out

    def dump(self, path):
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent,
                                    "start_s": t0 - base,
                                    "end_s": t1 - base}) + "\n")
