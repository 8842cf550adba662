"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on a few cores of a shared host whose single-thread
speed drifts with the load of other guests: on a 2-vCPU VM the same
scan-ex41 job took from 2.9 s to 5.6 s within four minutes. Raw wall
times of runs minutes apart then differ more than any change worth
gating.

So the host's speed is measured with a fixed pure-Python kernel that
touches nothing of boxcorr: small tuples, float comparisons, a dict
keyed by tuples and a sort, the operations boxcorr's interval code is
made of. It is measured two ways around each timed job:

* ``measure()`` runs ``PASSES`` full kernel passes just before and just
  after the job;
* ``Sampler`` interrupts the job every ``INTERVAL_S`` seconds of wall
  time (``SIGALRM``) and times one short kernel pass, so that speed
  changes during the job are seen too. The sampler's own time is taken
  out of the job's wall time.

``scaled`` turns a wall time into reference seconds: the time the job
would take on a host where the kernel runs at the reference speed
(``REF_S`` per full pass, ``REF_SAMPLE_S`` per short pass), using the
geometric mean of the two speed estimates. A change to the program moves
the wall time and not the kernel, so it moves the scaled time by the same
factor; a change of host speed moves both and cancels out.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time

# Seconds of one full and one short kernel pass on the reference host: scales, not measurements.
REF_S = 0.025
REF_SAMPLE_S = 0.0016
# Full passes per calibration, about 0.45 s in all on the 2-vCPU VM.
PASSES = 20
# One short pass every this many seconds of a job costs about 4% of its wall time.
INTERVAL_S = 0.05

_rng = random.Random(1304)
# Small enough that calibration leaves peak_rss_mb as the jobs set it.
_PAIRS = [(_rng.random(), _rng.random()) for _ in range(4000)]
_SHORT = _PAIRS[:1000]


def _kernel(pairs) -> int:
    table: dict = {}
    boxes = []
    for a, b in pairs:
        lo, hi = (a, b) if a <= b else (b, a)
        key = (round(lo, 3), round(hi, 1))
        table[key] = table.get(key, 0) + 1
        boxes.append((lo, hi))
    boxes.sort()
    return len(table)


def _full_pass() -> None:
    for _ in range(4):
        _kernel(_PAIRS)


def measure(passes: int = PASSES) -> float:
    """Mean seconds of one full kernel pass, right now."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        _full_pass()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


class Sampler:
    """Times one short kernel pass every ``INTERVAL_S`` s while the block runs."""

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler, to subtract from the wall time

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel(_SHORT)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "Sampler":
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)


def scaled(wall: float, before: float, after: float, sampler: Sampler | None = None) -> float:
    """``wall`` seconds in reference seconds, given the kernel times around and during it."""
    slowdown = (before + after) / 2 / REF_S
    if sampler is not None and sampler.samples:
        slowdown = math.sqrt(slowdown * statistics.fmean(sampler.samples) / REF_SAMPLE_S)
        wall -= sampler.spent
    return wall / slowdown
