"""The host's pace, gauged by a fixed pure-Python reference kernel.

On a shared host the interpreter's speed drifts by a quarter or more
over tens of seconds, and a median over a 30 s window moves with it.
So while a run is timed, :class:`PaceSampler` interrupts it every
:data:`PERIOD_S` of wall time and times one slice of
:func:`reference_kernel`, which imports nothing from the program: no
change to the program can move the slice's time.  The run's host
seconds, less the slices, are rescaled to a nominal host on which a
slice takes exactly :data:`NOMINAL_S`:

    paced_s = (host_s - slices_s) * NOMINAL_S / mean slice seconds

Both are interpreter- and cache-bound and sampled over the same seconds,
so the drift cancels in the ratio while any change in the program's own
cost remains.
"""

from __future__ import annotations

import random
import signal
import time

#: Loop trips of one kernel slice.
TRIPS = 10_000
#: Slice seconds of the nominal host: about its median on a 2.0 GHz
#: Xeon vCPU under CPython 3.11.
NOMINAL_S = 0.006
#: Wall seconds between two slices (slices cost a few per cent of the run).
PERIOD_S = 0.2
#: Objects the kernel walks (a power of two): a few MB, like the
#: simulator's own heap, so the kernel also feels cache contention.
CELLS = 1 << 15


class _Cell:
    __slots__ = ("weight", "value")

    def __init__(self, weight):
        self.weight = weight
        self.value = 0

    def step(self, x):
        self.value = (self.value + x * self.weight) & 0xFFFF
        return self.value


_cells = [_Cell(i) for i in range(CELLS)]
random.Random(1).shuffle(_cells)   # walk order != allocation order
_table = {}


def reference_kernel():
    """Method calls, attribute and dict traffic and integer arithmetic
    over objects scattered across a few MB: what the simulator spends
    on.  The cells and the table persist from slice to slice."""
    cells, table, mask = _cells, _table, CELLS - 1
    acc, idx = 0, 1
    for i in range(TRIPS):
        idx = (idx * 1103515245 + 12345) & mask
        acc ^= cells[idx].step(i)
        table[idx] = acc
        if acc & 1:
            acc += table.get((idx + 1) & mask, 0) & 7
    return acc


def time_kernel():
    """Seconds of one kernel slice."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class PaceSampler:
    """Times one kernel slice every :data:`PERIOD_S` while the ``with``
    block runs, from a ``SIGALRM`` handler in the main thread (so the
    slice runs alone, between two bytecodes of the program).

    ``slices`` holds ``(start, seconds)`` of every slice."""

    def __init__(self):
        self.slices = []
        self._previous = None

    def _sample(self, signum, frame):
        self.slices.append((time.perf_counter(), time_kernel()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S / 2, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:
            # A block shorter than half a period: gauge it right after.
            self._sample(None, None)
        return False

    def spent(self, start, end):
        """Slice seconds that began between ``start`` and ``end``."""
        return sum(seconds for began, seconds in self.slices
                   if start <= began < end)

    @property
    def kernel_s(self):
        """Mean seconds of one slice."""
        return sum(seconds for _, seconds in self.slices) / len(self.slices)
