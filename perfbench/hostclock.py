"""Host-speed calibration for the benchmark's timings.

The host this benchmark was defined on (a 2-vCPU VM shared with other
tenants, CPython 3.11.7) changes speed while it runs:

* a fixed pure-Python loop, timed back to back for one minute, ran
  between 0.77x and 1.19x its median speed over 2-second windows;
* six 20-second runs of one fixed baseline input gave 136 to 195
  kcycles/s;
* an hour later the same input ran at about 120 kcycles/s.

Repetition and medians inside one run cannot remove a slowdown that
lasts longer than the run.  So every timed interval is paired with a
fixed calibration job run next to it, and the benchmark reports
*calibrated* seconds::

    calibrated = measured * NOMINAL_S / (calibration job time around it)

``NOMINAL_S`` is the job's median time on that host while it was quiet,
so there a calibrated second is about a measured second.  The job does
the simulator's kind of work -- slot-attribute reads and writes, dict
updates, integer arithmetic -- and allocates no container objects, so
no garbage collection left over from the simulator lands in it.  In the
runs above, the hour-later runs read 162 to 181 calibrated kcycles/s,
against 175 for the earlier batch.  Run to run, calibrated throughput
still varies by about 5%.
"""

from __future__ import annotations

import time
from typing import List

#: Median seconds of one calibration job on the reference host.
NOMINAL_S = 0.0147

_SIZE = 509


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int):
        self.key = key
        self.value = 0


class HostClock:
    """Times the calibration job and converts measured seconds."""

    def __init__(self):
        self._slots = [_Slot(key) for key in range(_SIZE)]
        self._table = dict.fromkeys(range(_SIZE), 0)
        #: Every calibration time taken, in seconds.
        self.samples: List[float] = []

    def _job(self) -> int:
        slots, table, total = self._slots, self._table, 0
        for i in range(40_000):
            slot = slots[(i * 7919) % _SIZE]
            slot.value = (slot.value + i) & 0xFFFF
            table[slot.key] ^= slot.value
            if slot.value & 1:
                total += slot.key
        return total

    def sample(self, count: int = 1) -> float:
        """Mean time of *count* calibration jobs, run now."""
        times = []
        for _ in range(count):
            start = time.perf_counter()
            self._job()
            times.append(time.perf_counter() - start)
        self.samples += times
        return sum(times) / count

    @staticmethod
    def calibrated(seconds: float, reference: float) -> float:
        """*seconds* measured while a calibration job took *reference*
        seconds, in calibrated seconds."""
        return seconds * NOMINAL_S / reference

    def speed(self) -> float:
        """Host speed over every sample so far (1.0 = reference host)."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)
