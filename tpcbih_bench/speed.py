"""Timings scaled to one fixed machine speed.

The benchmark runs on a few cores of a shared host, and the speed those
cores give a Python process changes under it: a fixed loop of interpreter
work takes between 0.7x and 1.5x of its median time, switching every few
seconds, and slower stretches can last minutes.  Wall-clock times of the
same work then differ by that much between runs, and between two sets of
runs made an hour apart.

:class:`Speedometer` measures that speed while the run goes on.  A
``SIGALRM`` handler runs a fixed slice of pure-Python work (the *probe*)
every :data:`PERIOD_S` and records how long it took; it touches nothing of
the engine's.  :meth:`Speedometer.work` then converts a wall-clock interval
into the time it would have taken at the reference speed, the speed at
which the probe takes :data:`REFERENCE_S`::

    work = sum over the interval's stretches of  length * REFERENCE_S / probe

where *probe* is the median probe time around that stretch.  The probes'
own time is left out.  The engine's code is Python too and slows down with
the probe: over five key_audit seeds the interquartile range of the raw
throughput was 0.13 of its median, that of the scaled throughput 0.02
(set-up time: 0.18 and 0.01).  An engine change moves the scaled time by
the same factor as the wall time, because the probe runs no engine code.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from typing import List

_clock = time.perf_counter

#: how often the probe runs
PERIOD_S = 0.01
#: probes on each side whose median is the speed around a moment
WINDOW = 5
#: the probe's time at the reference speed, about its time on an idle core
#: of a 2-core x86 container
REFERENCE_S = 50e-6


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def weight(self) -> int:
        return self.key * 3 + self.value


def _probe() -> int:
    """The fixed slice of work: allocation, attribute access, calls, dict
    updates and a keyed sort, the operations the engine's Python is made of."""
    cells = [_Cell(i, i & 15) for i in range(100)]
    counts = {}
    for cell in cells:
        counts[cell.value] = counts.get(cell.value, 0) + cell.weight()
    cells.sort(key=lambda cell: -cell.value)
    return cells[0].key + len(counts)


class Speedometer:
    """Probe the machine's speed while the ``with`` block runs.

    Only clock readings taken inside the block can be converted, and only
    after it has ended.  Must be entered from the main thread.
    """

    def __init__(self):
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None
        # reference-speed work done before each probe; probes add none
        self._before: List[float] = []
        self._local: List[float] = []

    def _tick(self, _signum, _frame) -> None:
        # With the collector off, the probe's objects, all freed before it
        # returns, cannot set off a collection: the engine's collections
        # fall where they would without the probe.
        collecting = gc.isenabled()
        gc.disable()
        started = _clock()
        _probe()
        ended = _clock()
        if collecting:
            gc.enable()
        self.starts.append(started)
        self.durations.append(ended - started)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._build()

    def _build(self) -> None:
        count = len(self.starts)
        self._local = [
            statistics.median(self.durations[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(count)
        ]
        total = 0.0
        self._before = []
        for i in range(count):
            if i:
                gap = self.starts[i] - self._end(i - 1)
                total += gap * REFERENCE_S / self._gap_speed(i - 1)
            self._before.append(total)

    def _end(self, i: int) -> float:
        return self.starts[i] + self.durations[i]

    def _gap_speed(self, i: int) -> float:
        """Probe time over the stretch after probe *i*."""
        if i + 1 < len(self._local):
            return (self._local[i] + self._local[i + 1]) / 2.0
        return self._local[i]

    def _cumulative(self, t: float) -> float:
        if not self.starts:
            return t
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return -(self.starts[0] - t) * REFERENCE_S / self._local[0]
        after = max(0.0, t - self._end(i))
        return self._before[i] + after * REFERENCE_S / self._gap_speed(i)

    def work(self, start: float, end: float) -> float:
        """Seconds the interval ``[start, end]`` of clock readings would
        have taken at the reference speed, leaving out the probes."""
        return self._cumulative(end) - self._cumulative(start)

    def probe_s(self) -> float:
        """Median probe time of the whole block."""
        return statistics.median(self.durations) if self.durations else REFERENCE_S
