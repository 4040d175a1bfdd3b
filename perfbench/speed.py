"""Machine-speed probe, to take a shared host's speed swings out of timings.

On a shared virtual machine the library's small-array numpy code runs at one
of two speeds that alternate in phases of seconds to minutes, about 1.7x
apart, while a pure-Python loop stays within 3%. A call's wall time then
mostly says which phases it caught. ``Sampler`` interrupts the measured
thread every ``INTERVAL_S`` with SIGALRM and times a fixed burst of the same
kind of work there, so the samples see the speed the call saw, on the same
core, at the same moments. ``normalise`` turns a wall time into seconds at
the reference speed: the wall time less the probes' own time, scaled by
``NOMINAL_S`` over the mean probe time.

Measured on readme-6, 300 s of back-to-back passes: the admm call's wall
time varied 16% (standard deviation over mean), its normalised time 3.7%.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# about one probe's mean time on the reference machine (2-CPU Xeon VM,
# Python 3.11, numpy 2.4), so normalised seconds read close to wall
# seconds there; it only sets their scale
NOMINAL_S = 0.0005

_A = np.random.default_rng(0).random((24, 24))
_V = np.ones(24)


def probe():
    """One burst of small-array numpy work; returns its wall time."""
    start = time.perf_counter()
    v = _V
    for _ in range(40):
        v = np.clip(np.maximum(_A @ v, 0.1) * 0.05, 0.0, 1.0)
        float(np.linalg.norm(v))
    return time.perf_counter() - start


class Sampler:
    """Probe samples taken every ``INTERVAL_S`` between ``start`` and
    ``stop``, in the main thread (signal handlers run there)."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(probe())

    def start(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        samples, self.samples = self.samples, []
        return samples


def normalise(wall_s, samples):
    """Seconds at the reference speed, for a wall time and the probe
    samples taken during it (a fresh probe if there are none)."""
    if not samples:
        return wall_s * NOMINAL_S / probe()
    return (wall_s - sum(samples)) * NOMINAL_S / statistics.fmean(samples)
