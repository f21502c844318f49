"""Wall time corrected for the speed of a shared host.

On a shared VM the same pass can take twice as long from one second to the
next, whatever the code does: the host this benchmark was tuned on (a 2-vCPU
Intel Xeon VM) switches every second or so between full speed and about half
of it, and whole runs fall in slower or faster stretches. Wall time alone
then moves by more between two runs of one commit than most changes move it.

``HostClock.measure`` times a call and samples the host's speed while it
runs: a fixed calibration kernel runs just before and just after the call,
and every ``SAMPLE_INTERVAL_S`` during it from a SIGALRM handler. A sample's
speed is the kernel's reference time over its time. The call's host seconds
are its wall seconds, with the samples taken inside it removed, times the
mean speed of its samples: what the call would take on the reference host
at full speed. The kernels are the benchmark's own code, the same on every
commit compared, so a change to the program moves host seconds as it moves
wall seconds.

The slow state does not slow all code alike. On the reference host it
roughly doubled the time of small numpy calls made one by one from Python
(the ``small`` kernel: one-row products in a Python loop), and that of
rollouts, CSV handling and the set-up with it, but multiplied the time of a
batched MLP update (forward, backward and Adam arithmetic on a 64-row batch)
by only about 1.3, and that of ``ecofollow train``, which does both, by
about 1.6. So each timed call names its kernel: ``small``, or ``mixed``
(the two run back to back) for training.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

SAMPLE_INTERVAL_S = 0.05
# the kernels' times at full speed on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4, OpenBLAS 0.3); each scales every host time alike
REFERENCE_KERNEL_S = {"small": 0.0009, "mixed": 0.0018}


class Timing(NamedTuple):
    seconds: float        # wall time of the call, samples inside it removed
    host_seconds: float   # the same at the reference host's full speed
    samples: int


class HostClock:
    """Install once per process: SIGALRM then belongs to the clock."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._row = rng.standard_normal((64, 1))
        self._square = rng.standard_normal((64, 64))
        self._batch = rng.standard_normal((64, 3))
        # the policy network's layer sizes, 3-64-64-1
        self._weights = [rng.standard_normal(shape) / 8.0
                         for shape in ((3, 64), (64, 64), (64, 1))]
        self._kernels = {"small": self._small, "mixed": self._mixed}
        self._kernel = self._small
        self._inside: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _small(self) -> None:
        a, x = self._square, self._row
        total = 0.0
        for _ in range(300):
            total += float((a @ x).sum())

    def _batch_update(self) -> None:
        x, ws = self._batch, self._weights
        for _ in range(6):
            hs = [x]
            for w in ws:
                hs.append(np.maximum(hs[-1] @ w, 0.0))
            g = hs[-1] - 1.0
            for h, w in zip(reversed(hs[:-1]), reversed(ws)):
                grad = h.T @ g
                g = (g @ w.T) * (h > 0)
                m, v = 0.1 * grad, 0.001 * grad * grad
                _ = m / (np.sqrt(v) + 1e-8)   # an Adam step's arithmetic, not applied

    def _mixed(self) -> None:
        self._small()
        self._batch_update()

    def kernel_s(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def _sample(self, signum, frame) -> None:
        self._inside.append(self.kernel_s())

    def measure(self, fn, *args, kernel: str = "small"):
        """Call ``fn(*args)``; return its result and its :class:`Timing`."""
        self._kernel = self._kernels[kernel]
        before = self.kernel_s()
        self._inside = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
        inside, self._inside = self._inside, []
        samples = [before, *inside, self.kernel_s()]
        seconds -= sum(inside)
        reference = REFERENCE_KERNEL_S[kernel]
        speed = statistics.fmean(reference / s for s in samples)
        return out, Timing(seconds, seconds * speed, len(samples))
