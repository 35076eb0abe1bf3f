"""Host-speed sampling, so op costs can be compared across runs.

The benchmark runs on shared virtual CPUs whose speed drifts: on a 2-vCPU
Xeon VM the same op ran anywhere from 1.2 s to 2.5 s of CPU time, in phases
of a few seconds to minutes.  Wall times from runs a few minutes apart
therefore differ by more than any useful regression bound.

A :class:`SpeedSampler` runs a fixed *reference kernel* from a ``SIGALRM``
handler every ``interval`` seconds while it is installed, and keeps the
kernel's wall time with the time it ended.  The kernel (about 12 ms) is a
real matrix product, a complex FFT and a complex exponential on fixed
inputs into fixed outputs, then a pure-Python loop: nfchan's ops mix native numpy work with
interpreter-bound geometry, and the two kinds of work do not slow by the
same factor when the host does.  The kernel belongs to the benchmark, not
to nfchan, so a change to the program does not move it.
An op's cost in ``ref`` units is its wall time, less the time the sampler
took inside it, over the mean kernel time sampled during it: the host's
drift cancels, a change in the program's own work does not.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
PY_LOOP = 75_000


class SpeedSampler:
    """Reference-kernel samples taken on a timer (``with sampler:``).

    ``samples`` holds ``(end, seconds)`` per kernel run and ``busy`` the
    total time spent sampling, which callers subtract from what they time.
    """

    def __init__(self, interval=INTERVAL_S):
        rng = np.random.default_rng(0)
        self.interval = interval
        # Inputs and outputs are allocated once: a kernel that allocated
        # would interleave its blocks with the program's at random points
        # and move the peak resident set from run to run.
        self._m = rng.standard_normal((64, 512))
        self._n = rng.standard_normal((512, 128))
        self._a = self._m + 1j * rng.standard_normal((64, 512))
        self._jn = 1j * self._n
        self._prod = np.empty((64, 128))
        self._fft = np.empty_like(self._a)
        self._exp = np.empty_like(self._jn)
        self.samples = []
        self.busy = 0.0
        self._previous = None

    def kernel(self):
        """One run of the reference kernel; returns its wall time."""
        t0 = time.perf_counter()
        # The real product goes first: after a complex one, OpenBLAS leaves
        # the CPU in a state that makes the complex exp about ten times
        # slower, and the program may have just run one when the alarm came.
        np.matmul(self._m, self._n, out=self._prod)
        np.fft.fft(self._a, axis=1, out=self._fft)
        np.exp(self._jn, out=self._exp)
        acc = 0
        for i in range(PY_LOOP):
            acc += i * i
        return time.perf_counter() - t0

    def sample(self):
        seconds = self.kernel()
        self.samples.append((time.perf_counter(), seconds))
        self.busy += seconds

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.kernel()  # warm the FFT plan and the allocator
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.sample()
        return False

    def ref_s(self, start, end):
        """Mean kernel time over samples that ended in ``[start, end]``.

        Falls back to the sample that ended nearest the interval when none
        fell inside it (an op shorter than the sampling interval).
        """
        inside = [s for t, s in self.samples if start <= t <= end]
        if inside:
            return statistics.fmean(inside)
        mid = 0.5 * (start + end)
        return min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]
