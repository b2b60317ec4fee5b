"""The calibration slice that scales the benchmark's timings.

The box's speed swings by up to 1.8x for seconds to minutes at a time
(README.md).  Every timing t is scaled by ``REFERENCE / c``, where c is the
time of this slice measured next to it.  The slice is the benchmark's own
code, a fixed amount of small numpy/scipy work, so a change to avbeam does
not move it and a change in the box's speed does.
"""

import statistics
import time

import numpy as np
import scipy.linalg

#: The slice's time on the uncontended box, in seconds.
REFERENCE = 0.75e-3


class Calibration:
    """Times the slice; binds scipy.linalg.expm when created.

    Create it before a tracer wraps expm, so the slice's calls are not
    counted as the program's.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._expm = scipy.linalg.expm
        self._A = 0.1 * rng.normal(size=(4, 4))
        self._T = rng.normal(size=(4, 4, 4))
        self._v = rng.normal(size=4)

    def __call__(self):
        """Median of three timings of 40 x (4x4 expm, 4x4x4 einsum)."""
        out = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(40):
                self._expm(self._A)
                np.einsum("ijk,j,k->i", self._T, self._v, self._v)
            out.append(time.perf_counter() - t0)
        return statistics.median(out)
