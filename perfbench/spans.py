"""Timing samples and spans recorded by the benchmark around calls into bb84eve.

A span is recorded at each call from the benchmark into a layer of the
package (the public function boundary); it holds its name, start, end, parent
span and a few attributes, and every span of one run shares the run id.
Spans stay in memory until the run ends.  With tracing off, ``wrap`` hands
back the package function itself, so untraced rounds pay nothing for it.
"""

from __future__ import annotations

import contextlib
import time
import uuid
from collections import defaultdict


class Recorder:
    """End-to-end timing samples always; spans only while ``tracing`` is set."""

    clock = staticmethod(time.perf_counter)

    def __init__(self, child_env: dict[str, str]):
        self.run_id = uuid.uuid4().hex
        self.child_env = child_env
        self.tracing = False
        self.round = 0
        # [id, parent id or None, name, start ns, end ns, attrs, round]
        self.spans: list[list] = []
        self._stack: list[int] = []
        # Samples of untraced rounds only: the end-to-end metrics.
        self.samples: dict[str, list[float]] = defaultdict(list)

    def sample(self, key: str, value: float) -> None:
        if not self.tracing:
            self.samples[key].append(value)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.tracing:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, name, time.perf_counter_ns(), 0, attrs, self.round]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = time.perf_counter_ns()

    def wrap(self, name: str, fn, **attrs):
        """``fn`` itself when not tracing, else ``fn`` inside a span per call."""
        if not self.tracing:
            return fn

        def traced(*args, **kwargs):
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[tuple[list, int]]:
        """Each span with its self time: its duration less its children's."""
        child_ns = [0] * len(self.spans)
        for sid, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        return [(s, s[4] - s[3] - child_ns[s[0]]) for s in self.spans]


def layer_totals(recorder: Recorder) -> dict[tuple, list[float]]:
    """Self time in ns and call count, keyed by (span name, sorted attributes)."""
    totals: dict[tuple, list[float]] = defaultdict(lambda: [0.0, 0])
    for span, self_ns in recorder.self_times():
        key = (span[2], tuple(sorted(span[5].items())))
        totals[key][0] += self_ns
        totals[key][1] += 1
    return totals
