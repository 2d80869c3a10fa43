"""A fixed numpy kernel that measures how fast the machine runs right now.

On a 2-vCPU Xeon VM shared with other tenants, other load slows every
process by up to 1.6x for seconds at a time, so raw wall-clock throughput
varies 10-20% from run to run.  The benchmark times this kernel before,
during and after every op and set-up, and scales each measured time by
REF_QUIET_S over the mean kernel time measured with it: the result is the
time on a quiet machine.  The kernel does the kinds of work the workloads
do: elementwise sinc and cos, an FFT and a matmul shaped like the
receiver's.
"""

import signal
import statistics
import time

# Time of one Reference() call on a quiet machine: about 7.5 ms on a
# 2-vCPU Intel Xeon VM with OpenBLAS 0.3.31 and one BLAS thread.
REF_QUIET_S = 0.008

# Seconds between samples taken during ops and set-ups.
SAMPLE_PERIOD_S = 0.25


class Reference:
    """The kernel; calling it returns the seconds one run of it took."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((48, 960))
        self.a = rng.standard_normal((1000, 160))
        self.w = rng.standard_normal((160, 160))
        self()  # first calls pay for FFT plans and BLAS start-up

    def __call__(self):
        np = self.np
        t = time.perf_counter()
        for _ in range(2):
            np.sinc(self.x) * np.cos(self.x)
            np.fft.fft(self.x, axis=1)
            self.a @ self.w
        return time.perf_counter() - t

    def sample(self):
        """Median of three timings, for points taken once."""
        return statistics.median(self() for _ in range(3))


def scaled(seconds, ref_s):
    """`seconds` measured while the kernel took `ref_s`, on a quiet machine."""
    return seconds * REF_QUIET_S / ref_s


class Sampler:
    """Times the reference kernel every SAMPLE_PERIOD_S from a SIGALRM
    handler, so that long ops get samples from the middle as well as the
    ends.  The op is paused while the handler runs; `paused_s` adds up the
    pauses so the caller can take them off the op's time."""

    def __init__(self, ref):
        self.ref = ref
        self.samples = []
        self.paused_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.ref())
        self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def held_ref(self):
        """A kernel timing that no sample interrupts."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self.ref()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
