"""The speed of the host while the benchmark runs, from a fixed kernel.

The benchmark shares a few cores of a busy host, whose speed drifts: a
fixed pure-Python loop and a whole run of the link workload both took up
to 1.5-1.7 times longer a few minutes apart on a 2-core VM.  Such drift is
the same for any version of the program, so the end-to-end times are
scaled by it: between points the benchmark times a fixed reference kernel
(about 5 ms), and a run's times are divided by the median reference sample
over ``REFERENCE_S``.  The kernel spends about four fifths of its time in
the interpreter and the rest in small numpy operations.  Interpreter-bound
work (the link's one-message decodes) follows its drift closely;
numpy-bound work (batched spinal cohorts) drifts less, so the scaling
over-corrects it somewhat, and a kernel with a larger numpy share
over-corrected it more.  Scaled times read as seconds on a host where one
sample takes ``REFERENCE_S``; the kernel is the benchmark's own and no
change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference sample time that scaled times are expressed against.
REFERENCE_S = 0.005

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((64, 64))
_VECTOR = _RNG.standard_normal(4096)


def reference_sample() -> float:
    """Wall time of one pass of the fixed reference kernel."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(40):
        np.sort(_VECTOR)
        _MATRIX @ _MATRIX
    return time.perf_counter() - t0


class HostSpeed:
    """Reference samples taken through a run; ``factor`` is their median
    over ``REFERENCE_S`` (above 1 on a host slower than the reference)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, n: int = 3) -> None:
        self.samples += [reference_sample() for _ in range(n)]

    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_S
