"""CPU-contention probe.

On a shared host the same op can take 1.7x longer while neighbours compete
for the CPU, in phases lasting seconds. A wall-clock median of a short run
then measures the neighbours as much as the program. The probe samples how
fast this process runs *during* the ops. Every ``PERIOD_S``, a SIGALRM
handler runs a fixed loop twice and times the second pass, so that caches
the op just flushed do not count as contention. It alternates between a
pure-interpreter loop and a loop of small numpy operations, the two kinds
of work the program does. A sample's slowdown is its time over that
loop's reference time on an uncontended CPU. An op's corrected time is
its wall time divided by the mean slowdown of the samples taken while it
ran, averaged over the two loops.

The references are constants, not quantiles of the run's own samples,
because contention can last through a whole run. They were measured on an
uncontended vCPU of the host the benchmark was tuned on: Intel Xeon at
2.0 GHz, CPython 3.11, numpy 2.4. The handler runs between bytecodes, so
it is delayed, not lost, during long calls into numpy. It costs about 1 %
of the op time.
"""

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
# An op with fewer samples of a loop inside it is judged by that loop's
# nearest samples.
MIN_SAMPLES = 5
INTERPRETER_REFERENCE_S = 75e-6
ARRAY_REFERENCE_S = 165e-6


def interpreter_loop() -> None:
    total = 0
    for i in range(2000):
        total += i


class ArrayLoop:
    """Twelve rounds of the per-bucket numpy pattern on 64x64 arrays."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.a = np.linspace(0.0, 1.0, 4096).reshape(64, 64)
        self.b = self.a.T.copy()

    def __call__(self) -> None:
        np = self.np
        for _ in range(12):
            float(np.sum(self.a * self.b))
            float(np.max(np.abs(self.a)))


class Probe:
    """Samples the loops while started; ``correct`` rescales spans.

    ``with_arrays=False`` samples only the interpreter loop: a process
    that is still importing numpy must not call into it.
    """

    def __init__(self, with_arrays: bool = True):
        self.loops = [(interpreter_loop, INTERPRETER_REFERENCE_S)]
        if with_arrays:
            self.loops.append((ArrayLoop(), ARRAY_REFERENCE_S))
        self.ends = [[] for _ in self.loops]  # per loop: clock at each sample's end
        self.slowdowns = [[] for _ in self.loops]  # per loop: time / reference
        self._turn = 0
        self._previous = None

    def _sample(self, signum, frame):
        kind = self._turn % len(self.loops)
        self._turn += 1
        loop, reference = self.loops[kind]
        loop()
        start = time.perf_counter()
        loop()
        end = time.perf_counter()
        self.ends[kind].append(end)
        self.slowdowns[kind].append((end - start) / reference)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def samples(self) -> int:
        return sum(len(s) for s in self.slowdowns)

    def median_slowdown(self) -> float:
        return statistics.median(x for s in self.slowdowns for x in s)

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown between ``start`` and ``end``, averaged over loops."""
        means = []
        for ends, slowdowns in zip(self.ends, self.slowdowns):
            if not ends:
                continue
            lo = bisect.bisect_left(ends, start)
            hi = bisect.bisect_right(ends, end)
            if hi - lo < MIN_SAMPLES:
                hi = max(hi, min(MIN_SAMPLES, len(ends)))
                lo = max(0, hi - MIN_SAMPLES)
            means.append(statistics.fmean(slowdowns[lo:hi]))
        return statistics.fmean(means) if means else 1.0

    def correct(self, spans: list[tuple[float, float]]) -> list[float]:
        """Contention-corrected seconds of each (start, end) span."""
        return [(end - start) / self.slowdown(start, end) for start, end in spans]
