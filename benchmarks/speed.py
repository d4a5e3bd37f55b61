"""Host-speed probe: scales measured times to a fixed reference speed.

The 2-vCPU VM this benchmark was built on runs the same Python code at
speeds that differ by up to 2x from one minute to the next (see
README.md, "Machine and noise").  Seconds measured there say as much
about the host as about flowinv.  ``SpeedProbe`` runs a fixed
pure-Python routine (``probe``, which calls no flowinv code) on a
``SIGALRM`` timer every ``PERIOD_S`` of wall time, inside the process
being measured, so it shares the vCPU and the moment with the work
around it.  ``seconds(a, b)`` then gives the time between ``a`` and
``b`` with the probe's own runs taken out and each stretch scaled by
``REFERENCE_S / (the probe's duration nearby)``: the seconds the work
would have taken on a host where the probe takes ``REFERENCE_S``.

A change to flowinv moves these times as it moves raw seconds; a change
in host speed moves the probe as well and cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

PERIOD_S = 0.01         # wall time between probe runs
REFERENCE_S = 0.0005    # probe duration that defines the reference speed
SMOOTH = 2              # probe runs on each side in the local median

_KEYS = tuple(f"k{i:02d}" for i in range(40))


class _Node:
    __slots__ = ("key", "rank", "tag")

    def __init__(self, key, rank, tag):
        self.key = key
        self.rank = rank
        self.tag = tag


def probe() -> int:
    """A fixed mix of the operations flowinv spends its time on: small
    dicts and tuples, slotted objects, sorting with a key, sets."""
    total = 0
    for r in range(10):
        nodes = [_Node(k, (i * 7 + r) % 13, (k, i)) for i, k in
                 enumerate(_KEYS)]
        index = {n.tag: n for n in nodes}
        order = sorted(nodes, key=lambda n: (n.rank, n.key))
        word = tuple(index[n.tag].rank for n in order)
        total += len({w % 5 for w in word}) + (hash(word) & 1)
        for i in range(len(word)):
            total += word[i] * (i % 3)
    return total


class SpeedProbe:
    """Probe runs recorded on ``time.perf_counter()`` while started."""

    def __init__(self):
        self.starts = []    # perf_counter at the start of each probe run
        self.ends = []
        self._local = []    # smoothed probe duration after each run
        self._previous = None

    def _run(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._run()
        self._previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._run()
        self.smooth()

    def smooth(self) -> None:
        """Take the local median of the probe durations around each run."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        self._local = [
            statistics.median(durations[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(len(durations))]

    def probe_seconds(self, a: float, b: float) -> float:
        """Raw seconds the probe ran between ``a`` and ``b``."""
        lo, hi = bisect_left(self.starts, a), bisect_right(self.ends, b)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def seconds(self, a: float, b: float) -> float:
        """Reference-speed seconds of work between ``a`` and ``b``."""
        if not self._local:
            raise RuntimeError("SpeedProbe.seconds() before stop()")
        i = max(0, bisect_right(self.ends, a) - 1)
        total, t = 0.0, a
        while t < b:
            nxt = self.starts[i + 1] if i + 1 < len(self.starts) else b
            piece = min(nxt, b) - t
            if piece > 0:
                total += piece * REFERENCE_S / self._local[i]
            if nxt >= b:
                break
            i += 1
            t = max(t, self.ends[i])   # skip the probe run itself
        return total

    def factor(self, a: float, b: float) -> float:
        """Reference seconds per raw second of the work in ``[a, b]``."""
        work = (b - a) - self.probe_seconds(a, b)
        return self.seconds(a, b) / work if work > 0 else 1.0
