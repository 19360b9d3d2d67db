"""Host-speed probe: scales measured times to a nominal host.

This benchmark runs on shared virtual machines whose speed drifts with
other tenants' load.  On the 2-vCPU Xeon guest the benchmark was tuned
on, the host flipped between a fast and a slow state every few seconds:
a 20 ms reference kernel read either 25-30 ms or 40-45 ms, and twenty
reps of one and the same VanLAN input ran at 47 to 73 simulated seconds
per CPU second.  Kernel runs between reps cannot follow such flips, so
:class:`SpeedProbe` runs a small kernel *inside* the measured work,
every ``PERIOD_S`` of wall time from a ``SIGALRM`` handler, and a rep's
times are scaled by :func:`scale`: ``NOMINAL_S`` over the mean CPU time
of the rep's kernel runs, to the power ``EXPONENT``.  They read as
seconds on a host where the kernel takes ``NOMINAL_S``.  The run report
keeps the raw values and the kernel time beside the scaled ones.

The simulator slows down more than the kernel does.  Over 51 reps of
one VanLAN input on that guest, the log of a rep's CPU time moved with
the log of its mean kernel time at slope 1.5 (correlation 0.93) for
the run, and at slope 1.6 (correlation 0.62) for the set-up; kernels
that walk an 8 MB or a 32 MB list did no better (slope 1.7-1.8).  So
the exponent is 1.5: it left the CPU rate with a rep-to-rep variation
of about 5%, against 14% raw and 7% with a plain ratio.

The kernel is dict reads and float arithmetic (the simulator's mix)
that allocates no container, so it never sets off the cyclic garbage
collector inside the program's run.  It takes about 1.5% of the
process's CPU while a probe is on, inside the timed region.
"""

import signal
import time

__all__ = ["EXPONENT", "NOMINAL_S", "PERIOD_S", "SpeedProbe", "scale"]

#: Kernel CPU seconds on the nominal host; it sets the scale only.
NOMINAL_S = 0.0004

#: Power of the kernel-time ratio that scales the simulator's times.
EXPONENT = 1.5

#: Wall seconds between kernel runs while a probe is on.
PERIOD_S = 0.05

_TABLE = {i: float(i) for i in range(4096)}


def _kernel():
    table = _TABLE
    total = 0.0
    for i in range(1500):
        total += table[(i * 2654435761) & 4095] * 0.5
    return total


class SpeedProbe:
    """Samples the host's speed while the ``with`` block runs.

    On entry and then every ``PERIOD_S`` of wall time, the kernel runs
    in the main thread and its CPU seconds go to :attr:`samples`.  The
    timer is a wall-clock one: while a process CPU-time timer is armed,
    Linux reads the process CPU clock in scheduler ticks (4 ms on the
    tuning host), which would blur the set-up times the benchmark
    measures.  Probes nest: leaving one restores the handler and timer
    it found.  Use it from the main thread only.
    """

    def __init__(self):
        self.samples = []

    def __enter__(self):
        self._tick()
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        self._timer = signal.setitimer(signal.ITIMER_REAL, PERIOD_S,
                                       PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, *self._timer)
        signal.signal(signal.SIGALRM, self._handler)

    def _tick(self, *_):
        start = time.process_time()
        _kernel()
        self.samples.append(time.process_time() - start)


def scale(samples):
    """Factor that takes times measured beside kernel runs of *samples*
    CPU seconds to the nominal host (rates are divided by it)."""
    return (NOMINAL_S * len(samples) / sum(samples)) ** EXPONENT
