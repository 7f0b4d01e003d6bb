"""The machine's speed, measured by a fixed kernel next to every timing.

The benchmark runs on a share of a host whose throughput drifts: on the
2-vCPU machine of the baseline, the median time of one fixed piece of work
moved by 60% between 40-second windows a few minutes apart, and CPU time
moved with wall time, so the drift is throughput, not scheduling.  A run's
median cannot average that away, because it lasts the whole run.

So the kernel below runs while the program runs: from a timer signal's
handler, once every ``SAMPLE_EVERY_S`` of wall time, between two of the
program's bytecodes, its own time taken out of the timing.  It also runs
between items and beside each set-up probe.  A time is reported in seconds
of a reference machine on which one kernel call takes ``REF_KERNEL_S``:

    scaled = measured * REF_KERNEL_S / (mean kernel time over the same stretch)

An untraced pass is scaled by the calls made during it.  A set-up probe
runs in another process and a traced pass must keep the kernel out of its
spans, so both are scaled by the mean over the whole run.  A run's median
rides out what the kernel does not follow.
"""

import signal
import time

import numpy as np
from numpy.linalg import eigh, inv, slogdet

REF_KERNEL_S = 0.005  # one kernel call on the reference machine
SAMPLE_EVERY_S = 0.1  # wall seconds between kernel calls during timed work

_rng = np.random.default_rng(20080924)
_MATS = []
for _n in (2, 4, 8):
    _a = _rng.normal(size=(_n, _n)) + 1j * _rng.normal(size=(_n, _n))
    _MATS.append(_a @ _a.conj().T + _n * np.eye(_n))


def kernel():
    """One unit of reference work, about 5 ms on the baseline machine."""
    acc = 0.0
    for _ in range(40):
        for a in _MATS:
            w, _v = eigh(a)
            acc += float(w[0]) + float(slogdet(a)[1]) + float(inv(a)[0, 0].real)
            acc += sum(x * x for x in w.tolist())
    return acc


class Meter:
    """Kernel calls and their total seconds over one stretch of timed work."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def sample(self, calls):
        start = time.perf_counter()
        for _ in range(calls):
            kernel()
        self.seconds += time.perf_counter() - start
        self.calls += calls

    def time(self, fn):
        """Run ``fn()`` with one kernel call every ``SAMPLE_EVERY_S`` of wall
        time, made by a timer signal's handler between two of the program's
        bytecodes, and return the seconds of ``fn`` without the kernel's."""
        before = self.seconds
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted calls
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        return end - start - (self.seconds - before)

    def _on_alarm(self, signum, frame):
        self.sample(1)

    def add(self, other):
        self.seconds += other.seconds
        self.calls += other.calls

    def scale(self):
        """Factor from measured seconds to reference seconds."""
        return REF_KERNEL_S * self.calls / self.seconds
