"""Host CPU steal: the stretches of a run in which the host took CPU away.

On a shared virtual machine the host also runs other guests on the cores
it lends this one.  Linux counts the time a runnable vCPU waited for the
host in the ``steal`` column of ``/proc/stat``.  On the 2-core VM this
benchmark was built on, the cache-hit read rate through the router in a
half-second fell from about 960 to 320 req/s as the host stole from 0 to
over 30% of the CPU, and a busy host could cover a whole timed window.

:class:`StealMonitor` samples the counter every :data:`SLICE_S` seconds
for the whole run, and every time metric is taken over the quiet part of
what it measured (:func:`quietest`): whatever the host stole at most 2%
of the CPUs from, or, if that is less than a quarter, the quietest
quarter.  Timed reads keep the quiet slices of the timed window and count
the reads that completed in them; a commit, a fresh read or a set-up is
charged the share stolen over its own span.  On a quiet host every sample
is kept.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time
from typing import Callable, List, Sequence, Tuple, TypeVar

SLICE_S = 0.25
#: Every sample the host stole at most this share of the CPUs from is quiet.
QUIET_FLOOR = 0.02
#: When fewer samples are that quiet, the quietest this share of them is kept.
QUIET_SHARE = 0.25
_STAT = "/proc/stat"
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")
_CPUS = len(os.sched_getaffinity(0))

T = TypeVar("T")


def _steal_ticks() -> int:
    """Cumulative steal of all CPUs, in clock ticks."""
    with open(_STAT, encoding="ascii") as handle:
        return int(handle.readline().split()[8])


class StealMonitor:
    """Samples the cumulative steal counter from a background thread."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.ticks: List[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped, daemon=True)

    def __enter__(self) -> "StealMonitor":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _sample(self) -> None:
        self.ticks.append(_steal_ticks())
        self.times.append(time.monotonic())

    def _sample_until_stopped(self) -> None:
        while not self._stop.wait(SLICE_S):
            self._sample()

    def share(self, start: float, end: float) -> float:
        """Share of the CPUs' time the host stole over the sampled slices
        that ``[start, end]`` overlaps; for an instant, the slice it is in."""
        last = len(self.times) - 1
        if last < 1:
            return 0.0
        first = min(max(bisect.bisect_right(self.times, start) - 1, 0), last - 1)
        stop = min(max(bisect.bisect_left(self.times, end), first + 1), last)
        span = self.times[stop] - self.times[first]
        if span <= 0:
            return 0.0
        return (self.ticks[stop] - self.ticks[first]) / _TICKS_PER_S / _CPUS / span

    def slices(self, window: Tuple[float, float]) -> List[Tuple[float, float, float]]:
        """``(start, end, stolen share)`` of each sampled slice, clipped to ``window``."""
        lo, hi = window
        out = []
        for left, right in zip(self.times, self.times[1:]):
            start, end = max(left, lo), min(right, hi)
            if end > start:
                out.append((start, end, self.share(left, right)))
        return out


def quietest(items: Sequence[T], share_of: Callable[[T], float]) -> List[T]:
    """The items the host stole at most :data:`QUIET_FLOOR` from, or, when
    they are fewer than :data:`QUIET_SHARE` of them, the quietest
    :data:`QUIET_SHARE` (ties with the last one included); in order."""
    if not items:
        return []
    shares = [share_of(item) for item in items]
    keep = max(1, math.ceil(QUIET_SHARE * len(items)))
    threshold = max(sorted(shares)[keep - 1], QUIET_FLOOR)
    return [item for item, share in zip(items, shares) if share <= threshold]
