"""Host-speed correction of the benchmark's wall times.

The benchmark's host is a virtual machine on a shared server whose
processors slow down and speed up by up to 2x, in phases lasting seconds
to minutes, with no time stolen from the guest: CPU time and wall time
move together. A fixed loop timed back to back shows it; so does every
op of every workload, in step with the loop.

:class:`HostClock` therefore runs a short fixed probe (pure Python that
runs no program code) from a ``SIGALRM`` timer every
``INTERVAL_S`` seconds while a run measures, and keeps each probe's start
and end. :meth:`HostClock.scaled` converts a wall-time interval into the
time it would have taken on a host where the probe takes ``REFERENCE_S``:
every stretch of wall time between two probes is multiplied by
``REFERENCE_S`` over the probe time there (a running median of five
probes), and the probes' own time is left out. A program change that
saves work lowers the scaled time as it lowers the wall time; a host that
slows down lowers the probe rate as it lowers the op rate, and cancels.

Code does not slow exactly as the probe does. Regressing the log of op
wall time on the log of the probed slowdown over 13-27 ops in one process
gave a slope of 1.09-1.33 on the case-study workloads (object-heavy
Python) and 0.82-1.01 on ``block_scale`` (NumPy), in two calibrations
each. ``scaled`` therefore takes the workload's slope as an exponent on
the probed slowdown (see ``Workload.host_exponent``).
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

import numpy as np

#: The probe time the scaled times refer to: about the probe's time when
#: the 2-vCPU host in ``NOTES.md`` runs at its fastest.
REFERENCE_S = 0.38e-3

#: Probes per second while a clock runs.
INTERVAL_S = 0.05

#: Probes smoothed into one speed reading (a running median).
SMOOTHING = 5


class _Node:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


#: Objects in shuffled memory order, for the probe's pointer-chasing part.
_NODES = [_Node(i) for i in range(20_000)]
random.Random(0).shuffle(_NODES)


def probe() -> int:
    """The fixed work whose duration measures the host's speed: an
    arithmetic loop, then attribute reads over objects in shuffled order.

    The ops do not all slow alike. Learning and serving slow with the
    loop; blocking and the warm store replays, which walk large object
    graphs, slow more, with the reads. Over 7 minutes of every op
    interleaved with both parts, this mix (the reads about a quarter of
    the probe's time) left the least spread in the scaled times of all
    workloads together; the loop alone, a NumPy sort, a gather from a
    64 MB array and dict lookups each left more on some workload."""
    total = 0
    for i in range(5_000):
        total += i * i % 7
    for node in _NODES[:1_000]:
        total += node.value
    return total


class HostClock:
    """Probe the host's speed in the background of a measurement.

    Use as ``start()``; measure with ``perf_counter()``; ``stop()``; then
    ``scaled(start, end)`` for each measured interval.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._previous = None
        self._integrals: dict[float, tuple] = {}

    def _tick(self, signum, frame) -> None:
        started = perf_counter()
        probe()
        self.probes.append((started, perf_counter()))

    def start(self) -> None:
        self.probes = []
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._tick(None, None)

    def _integral(self, exponent: float) -> tuple:
        """The scaled time elapsed since the first probe, as a piecewise
        linear function of wall time: (break points, values, and the rates
        before the first and after the last probe)."""
        if exponent in self._integrals:
            return self._integrals[exponent]
        starts = np.array([s for s, _ in self.probes])
        ends = np.array([e for _, e in self.probes])
        durations = ends - starts
        half = SMOOTHING // 2
        padded = np.pad(durations, half, mode="edge")
        smoothed = np.median(
            np.lib.stride_tricks.sliding_window_view(padded, SMOOTHING), axis=1
        )
        factor = (REFERENCE_S / smoothed) ** exponent
        # Between probe k-1's end and probe k's start the host ran at the
        # mean speed of the two readings; inside a probe nothing counts.
        gap_factor = (factor[:-1] + factor[1:]) / 2
        breaks = np.empty(2 * len(starts))
        breaks[0::2], breaks[1::2] = starts, ends
        rates = np.zeros(len(breaks) - 1)
        rates[1::2] = gap_factor
        integral = np.concatenate(([0.0], np.cumsum(np.diff(breaks) * rates)))
        self._integrals[exponent] = (breaks, integral, factor[0], factor[-1])
        return self._integrals[exponent]

    def scaled(self, start: float, end: float, exponent: float = 1.0) -> float:
        """Scaled duration of the wall-time interval ``[start, end]``, the
        probed slowdown raised to *exponent*."""
        return self._at(end, exponent) - self._at(start, exponent)

    def _at(self, t: float, exponent: float) -> float:
        breaks, integral, first, last = self._integral(exponent)
        if t < breaks[0]:
            return (t - breaks[0]) * first
        if t > breaks[-1]:
            return integral[-1] + (t - breaks[-1]) * last
        return float(np.interp(t, breaks, integral))

    @property
    def slowdown(self) -> float:
        """Median probe time over ``REFERENCE_S``: how much slower than the
        reference the host ran during the measurement."""
        durations = [e - s for s, e in self.probes]
        return float(np.median(durations)) / REFERENCE_S
