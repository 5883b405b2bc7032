"""In-memory span and counter recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into the
package's public functions. Each span holds a name, start and end times from
``time.perf_counter``, the id of the operation it belongs to, the number of
calls it covers, a source tag ("op" for the workload's own operations,
"probe" for the small fixed probe that covers layers the workload leaves
idle) and its duration at reference host speed: given a kernel timer (see
``hostspeed``), the recorder runs it before and after each span and divides
the span's time by the mean of the two over the reference. Values derived
from spans (self times, rates) are kept beside them. Counters are totals per
(name, source). Nothing is written out until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

SOURCES = ("op", "probe")


class Recorder:
    def __init__(self, kernel=None, reference: float = 1.0):
        self.spans = []  # (name, start, end, op_id, calls, source, scaled seconds)
        self.values = []  # (name, value, op_id, source): quantities derived from spans
        self.counters = {}
        self.source = "op"
        self.counting = True
        self.kernel = kernel
        self.reference = reference
        self._last_kernel = kernel() if kernel else reference

    @contextmanager
    def span(self, name: str, op_id: int, calls: int = 1):
        before = self._last_kernel
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if self.kernel:
                self._last_kernel = self.kernel()
            slowdown = (before + self._last_kernel) / 2 / self.reference
            self.spans.append(
                (name, start, end, op_id, calls, self.source, (end - start) / slowdown))

    def timed(self, name: str, op_id: int, func, *args):
        """Call func(*args) inside a span and return its result."""
        with self.span(name, op_id):
            return func(*args)

    def span_cost(self, batches: int = 9, size: int = 1000) -> list:
        """Seconds a span's own bookkeeping adds to the time it records, per
        batch of empty spans recorded into a scratch recorder. The kernel
        runs of a traced recorder fall outside the recorded times."""
        scratch = Recorder()
        out = []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(size):
                with scratch.span("empty", 0):
                    pass
            out.append((time.perf_counter() - t0) / size)
            scratch.spans.clear()
        return out

    def derive(self, name: str, op_id: int, value: float):
        self.values.append((name, value, op_id, self.source))

    def count(self, name: str, amount: int):
        if self.counting:
            key = (name, self.source)
            self.counters[key] = self.counters.get(key, 0) + amount

    def count_max(self, name: str, value: int):
        if self.counting:
            key = (name, self.source)
            self.counters[key] = max(self.counters.get(key, 0), value)

    def _chosen(self, name: str) -> list:
        """Spans of this name from the workload's own operations, else from the probe."""
        for source in SOURCES:
            chosen = [s for s in self.spans if s[0] == name and s[5] == source]
            if chosen:
                return chosen
        return []

    def per_call(self, name: str) -> list:
        return [seconds / calls for *_, calls, _, seconds in self._chosen(name)]

    def derived(self, name: str) -> list:
        for source in SOURCES:
            chosen = [v for n, v, _, src in self.values if n == name and src == source]
            if chosen:
                return chosen
        return []

    def counter(self, name: str):
        for source in SOURCES:
            if (name, source) in self.counters:
                return self.counters[(name, source)]
        return None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "op_id", "calls", "source", "seconds"],
                    "spans": self.spans,
                    "values": self.values,
                    "counters": [[n, s, v] for (n, s), v in sorted(self.counters.items())],
                },
                handle,
            )
