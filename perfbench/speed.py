"""Host-speed probe: rescales measured times to a steady reference speed.

A shared host's speed drifts by 30-40% over seconds and minutes, so raw
seconds of the same code spread far more than a change worth measuring. The
probe runs a fixed piece of pure-Python work (set inserts, tuple allocation
and a sort; nothing from wilfgraph) from a SIGALRM timer every
``INTERVAL_S`` while the workload runs, in the sample process and in every
process it forks. A phase's time is then

    (raw time - probe time) * REFERENCE_PROBE_S / mean probe time in the phase

that is, the phase's seconds on a host where the probe takes
``REFERENCE_PROBE_S``. The probe is interleaved with the work it measures,
so it sees the same slow and fast stretches; a change to the library moves
the raw time but not the probe.

Forked children (the census fork pool) write their probe totals to an
anonymous shared mapping, one slot each; a phase that runs a fork pool marks
itself parallel, so the idle parent does not probe on the workers' cores.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
from time import perf_counter

INTERVAL_S = 0.025
# about the mean probe time on a 2-core Xeon microVM with CPython 3.11.7
# (0.87-1.36 ms as the host drifts); the choice only scales every
# normalised time by one constant
REFERENCE_PROBE_S = 0.00100
_PROBE_ITEMS = 1400
_SLOT = struct.Struct("dd")     # probes taken, seconds spent in them
_SLOTS = 64                     # slot 0: the sample process; then children


def probe_work() -> int:
    seen: set[int] = set()
    found = []
    for i in range(_PROBE_ITEMS):
        x = (i * 2654435761) & 0xFFFF
        if x not in seen:
            seen.add(x)
            found.append((x, i))
    found.sort()
    return len(found)


class SpeedProbe:
    """Times ``probe_work`` from a timer in this process and its forks."""

    def __init__(self):
        self._shared = mmap.mmap(-1, _SLOTS * _SLOT.size)
        self._slot = 0
        self._next_slot = 1
        self._interval = INTERVAL_S
        self._probes = 0
        self._seconds = 0.0
        self.paused = False
        os.register_at_fork(before=self._before_fork,
                            after_in_child=self._after_fork_in_child)

    def start(self, interval_s: float = INTERVAL_S):
        self._interval = interval_s
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _on_alarm(self, signum, frame):
        if self.paused or self._slot < 0:
            return
        start = perf_counter()
        probe_work()
        self._probes += 1
        self._seconds += perf_counter() - start
        _SLOT.pack_into(self._shared, self._slot * _SLOT.size,
                        self._probes, self._seconds)

    def _before_fork(self):
        self._fork_slot = self._next_slot if self._next_slot < _SLOTS else -1
        self._next_slot += 1

    def _after_fork_in_child(self):
        # a child starts its own totals in its own slot; timers do not
        # survive a fork, so it re-arms one
        self._slot = self._fork_slot
        self._probes, self._seconds = 0, 0.0
        self.paused = False
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)

    def mark(self) -> list[tuple[float, float]]:
        return [_SLOT.unpack_from(self._shared, i * _SLOT.size)
                for i in range(_SLOTS)]

    def since(self, mark) -> tuple[int, float, float, int]:
        """Probes, their seconds, this process's share of those seconds
        and the number of other processes that probed since ``mark``."""
        probes, seconds, own, others = 0, 0.0, 0.0, 0
        for i, ((p0, s0), (p1, s1)) in enumerate(zip(mark, self.mark())):
            if p1 > p0:
                probes += int(p1 - p0)
                seconds += s1 - s0
                if i == self._slot:
                    own = s1 - s0
                else:
                    others += 1
        return probes, seconds, own, others

    def mean_probe_s(self) -> float:
        """Mean probe time of this process so far; the reference if none."""
        return (self._seconds / self._probes if self._probes
                else REFERENCE_PROBE_S)

    def normalize(self, raw_s: float, mark) -> float:
        """``raw_s``, measured since ``mark``, at the reference speed.

        Probe time is taken out of the raw time: all of this process's, and
        the children's divided by their number, as they ran side by side.
        A span too short to hold a probe uses this process's mean so far.
        """
        probes, seconds, own, others = self.since(mark)
        work = raw_s - own - (seconds - own) / max(1, others)
        mean = seconds / probes if probes else self.mean_probe_s()
        return max(0.0, work) * REFERENCE_PROBE_S / mean
