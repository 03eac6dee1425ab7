"""In-memory spans and counters for the benchmark's traced run.

Spans are recorded from outside the library: `Tracer.wrap` replaces a stage
function at the module attribute its caller looks it up under (for example
`dialoforge.cli.read_dataset`), and `Tracer.uninstall` puts every original
back, so untraced ops run the library exactly as shipped.

A span's layer is the part of its name before the first dot.  Spans nest
strictly (one thread, one op at a time), so a span's self time is its
duration minus the durations of its direct children, and the self times of
all spans of an op add up to the op's root span.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional

COUNTER_SPAN = "trace.counters"


def process_cpu_s() -> float:
    """User+system CPU of this process and of its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Span:
    name: str
    op: str
    parent: int  # index into Tracer.spans, -1 for an op's root span
    start: float
    end: float = 0.0
    cpu_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


# A counter callback sees the finished span, the call's arguments and its
# result, and adds to the op's counters through `count(name, value)`.
CounterFn = Callable[[Callable[[str, float], None], Span, tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name=name, op=self.op, parent=parent, start=time.perf_counter())
        self.spans.append(sp)
        self._stack.append(index)
        cpu0 = process_cpu_s()
        try:
            yield sp
        finally:
            sp.cpu_s = process_cpu_s() - cpu0
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[self.op][name] += value

    def wrap(
        self,
        module,
        attr: str,
        name: str | Callable[[tuple], str],
        counter: Optional[CounterFn] = None,
    ) -> None:
        """Record a span around every call of `module.attr`.

        `name` may be a function of the positional arguments, for spans named
        after what the call does (a CLI subcommand).  Counters run in their
        own span, so their cost shows as tracing time, not as layer time.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            with self.span(span_name) as sp:
                result = original(*args, **kwargs)
            if counter is not None:
                with self.span(COUNTER_SPAN):
                    counter(self.count, sp, args, kwargs, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self, op: str) -> dict[str, float]:
        """Seconds of self time per span name within one op."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        child_total: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s.parent >= 0:
                child_total[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for i, s in spans:
            out[s.name] += s.duration - child_total[i]
        return dict(out)

    def dump(self, path) -> None:
        doc = {
            "spans": [asdict(s) for s in self.spans],
            "counters": {op: dict(c) for op, c in self.counters.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
