"""The benchmark's clocks: the span recorder of the traced run, and the
two corrections for a shared host (steal and speed).

Spans are opened only by the benchmark's own thread, around its calls
into a layer of ``repro``; what the 16 rank threads do inside such a
call is the program's business (spans inside ``repro`` are a later
issue).  Nothing is written until the benchmark ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import statistics
import time
from typing import Iterator


def steal_seconds() -> float:
    """CPU seconds the hypervisor has withheld from this machine's
    virtual CPUs since boot (0.0 where the kernel does not account it).

    On the 2-vCPU review box steal comes in bursts that last minutes and
    stretch a 0.3 s pass to 0.5-1.4 s; over 352 passes wall time fitted
    ``0.494 + 0.98 x steal`` (r = 0.97).  The benchmark reports wall and
    CPU time *minus* the steal that accrued meanwhile: the time the
    program would have taken had the host not been busy elsewhere."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


#: What :func:`calibrate` takes on the review box when the host is quiet.
CALIBRATION_REFERENCE_S = 0.045


def calibrate() -> float:
    """Seconds, less steal, that a fixed single-thread mix of interpreter
    and numpy work takes right now: the machine's speed.

    Besides steal the review box has a second mode: for minutes at a
    time everything, imports included, runs 25-40 % slower with no steal
    showing.  Over 20 blocks of 40 ``sim16_light`` passes the pass
    median ranged 35 % and this loop 27 %, together: their ratio spread
    7.7 % (quartiles) where the raw medians spread 21.7 %.  Each
    interpreter spends 6 % of its time in this loop, between passes,
    and ``run.py`` scales its times by ``CALIBRATION_REFERENCE_S /
    median``.  The loop uses
    nothing of ``repro``, so no change to the program moves it."""
    import numpy as np

    steal, start = steal_seconds(), time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    a = np.sin(np.arange(6144 * 48, dtype=float)).reshape(6144, 48)
    for _ in range(10):
        a @ a[:48].T
        np.einsum("ij,ij->i", a, a)
        np.sort(a, axis=0)
    return time.perf_counter() - start - (steal_seconds() - steal)


@dataclasses.dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span
    (-1 at top level) and ``workload`` the id its pass or probe shares."""

    name: str
    workload: str
    parent: int
    start: float
    end: float = 0.0
    #: Process CPU seconds (user + sys, all threads) spent inside.
    cpu: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while ``enabled``; a disabled recorder costs one
    attribute test per call, so untraced passes run the same code."""

    def __init__(self) -> None:
        self.enabled = False
        self.workload = ""
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(
            Span(name, self.workload, parent, time.perf_counter())
        )
        self._open.append(index)
        cpu = time.process_time()
        try:
            yield
        finally:
            self.spans[index].cpu = time.process_time() - cpu
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def recording(self, workload: str) -> Iterator[None]:
        """Enable the recorder for one pass or probe of ``workload``."""
        self.enabled, self.workload = True, workload
        try:
            yield
        finally:
            self.enabled = False

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def self_seconds(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def layer_table(spans: list[Span]) -> str:
    """The per-layer table: one row per (workload id, span name) with
    call count, median and total duration, total self time, and self
    time as a share of the workload's pass spans."""
    own = self_seconds(spans)
    rows: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for s, self_s in zip(spans, own):
        rows.setdefault((s.workload, s.name), []).append((s.seconds, self_s))
    lines = [
        f"{'workload':<22}{'span':<24}{'calls':>6}{'median_s':>11}"
        f"{'total_s':>10}{'self_s':>10}{'self/pass':>10}"
    ]
    for (workload, name), pairs in rows.items():
        total = sum(p[0] for p in pairs)
        self_total = sum(p[1] for p in pairs)
        passes = sum(p[0] for p in rows.get((workload, "pass"), []))
        share = f"{self_total / passes:10.1%}" if passes else f"{'-':>10}"
        lines.append(
            f"{workload:<22}{name:<24}{len(pairs):>6}"
            f"{statistics.median(p[0] for p in pairs):>11.4f}"
            f"{total:>10.3f}{self_total:>10.3f}{share}"
        )
    return "\n".join(lines)


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome trace-event form (load in Perfetto): one thread row per
    workload id, complete ("X") events in microseconds."""
    if not spans:
        return {"traceEvents": []}
    origin = min(s.start for s in spans)
    tids: dict[str, int] = {}
    events: list[dict] = []
    for index, s in enumerate(spans):
        tid = tids.setdefault(s.workload, len(tids) + 1)
        events.append({
            "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
            "pid": 1, "tid": tid,
            "ts": (s.start - origin) * 1e6, "dur": s.seconds * 1e6,
            "args": {"id": index, "parent": s.parent, "workload": s.workload},
        })
    for workload, tid in tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": workload},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
