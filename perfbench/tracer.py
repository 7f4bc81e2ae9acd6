"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping public functions of the qgamma modules from
the outside: every module-level reference to a wrapped function (including
names copied by ``from .x import f`` and entries of module-level lists such as
``verify.ALL_CRITERIA``) is replaced by a recording wrapper and restored by
``unpatch``.  Each span has an id, a name, the id of the span that was open
when it started, and start/end times from ``time.perf_counter``.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    def _open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def wrap(self, fn, name, count=None):
        """name is a string or a function of the call's positional args;
        count(args, result) returns {counter: increment}."""
        def traced(*args, **kwargs):
            rec = self._open(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                for key, n in count(args, out).items():
                    self.counts[key] += n
            return out
        return traced

    def patch(self, modules, owner, attr: str, name, count=None) -> None:
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, original))
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if item is original:
                            value[i] = wrapper
                            self._undo.append((list.__setitem__, value, i, original))

    def unpatch(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so recursion is not counted twice) and self seconds (span
        time not covered by child spans)."""
        by_id = {s["id"]: s for s in self.spans}
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"calls": 0, "inclusive_s": 0.0,
                                             "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child_time[s["id"]]
            parent = s["parent"]
            while parent is not None and by_id[parent]["name"] != s["name"]:
                parent = by_id[parent]["parent"]
            if parent is None:
                row["inclusive_s"] += dur
        return out
