"""Outside-in tracing: spans and call counts around public functions.

The tracer rebinds module attributes.  The program's callers look these
functions up through their module (``falsify.min_transversality``,
``rigor.verify``, ``sim.omega``), so the wrappers see every call without
any change to the program.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        # one span: [name, op, parent index or None, start, end]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recorded as a span named ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, self.op, stack[-1] if stack else None,
                          time.perf_counter(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][4] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def span(self, module, attr: str, on_result=None):
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        self._bind(module, attr, self.wrap(getattr(module, attr), name,
                                           on_result))

    def count(self, module, attr: str):
        """Count outermost calls only.

        Recursive functions call themselves through their module globals;
        the original is bound back for the duration of an outermost call
        so that inner calls are neither counted nor slowed.
        """
        fn = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2]}.{attr}.calls"
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            setattr(module, attr, fn)
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(module, attr, counted)

        self._bind(module, attr, counted)

    def _bind(self, module, attr: str, wrapper):
        self._bound.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._bound:
            module, attr, fn = self._bound.pop()
            setattr(module, attr, fn)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: summed duration, self time and call count.

        Self time is a span's duration minus the time its child spans
        cover; children never overlap in one thread.
        """
        total: Counter[str] = Counter()
        child: Counter[int] = Counter()
        calls: Counter[str] = Counter()
        for name, _op, parent, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_time: Counter[str] = Counter()
        for index, (name, _op, _parent, start, end) in enumerate(self.spans):
            self_time[name] += end - start - child[index]
        return total, self_time, calls

    def dump(self, path: Path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "op", "parent", "start", "end"]
        with path.open("w") as out:
            out.write(json.dumps({"meta": meta, "counts": self.counts}) + "\n")
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")
