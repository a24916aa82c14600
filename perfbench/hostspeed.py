"""Host-speed adjustment: a fixed reference kernel timed beside every op.

On a shared host the speed of this process drifts by up to 1.5x over
seconds to minutes, and CPU time tracks wall time, so the process is slowed
rather than descheduled.  A run of 10 s cannot average that out.  The
benchmark therefore blocks each op with a control: a fixed kernel of small
numpy calls and an interpreter loop (the library's own mix, without calling
the library) is timed right before and right after the op, and the op's
times are scaled by ``NOMINAL_S`` over the mean of those two kernel times.

An adjusted time reads as wall time on a host that runs the kernel in
``NOMINAL_S``; on the host the committed numbers come from, that is its
unloaded speed.  The runner prints the raw figures beside the adjusted ones.
"""

import time

import numpy as np

NOMINAL_S = 2.8e-4      # the kernel's time on the reference host, unloaded
_REPEATS = 3            # a sample is the mean of these

_V = np.arange(8.0)


def _kernel() -> float:
    acc = 0.0
    for i in range(12):
        a = np.exp(2j * np.pi * _V * i / 64)
        b = np.kron(a[:4], a[4:])
        acc += float(np.abs(b @ b.conj()))
        acc += sum(k * k for k in range(20))
    return acc


def kernel_seconds() -> float:
    """One sample of the kernel's time.  The mean tracks the host's speed
    more closely than the fastest repeat, which favours brief fast spells."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        _kernel()
    return (time.perf_counter() - start) / _REPEATS


def scale(before: float, after: float) -> float:
    """Factor that turns an op's measured time into adjusted time."""
    return NOMINAL_S / ((before + after) / 2)
