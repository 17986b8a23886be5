"""Host speed reference: a fixed piece of the two kinds of work a newcart op
does, interpreted float arithmetic and small numpy calls.

On a shared VM the host switches, for seconds to minutes at a time, between
speeds 1.4 to 1.7 times apart, with the program and its inputs unchanged.
Timed beside the ops, this reference changes speed with them (README.md,
"Host speed scaling").  Nothing here imports newcart, so a change to the
library never changes the reference.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about what one reference takes between ops on a 2-vCPU Xeon VM; only the
# unit of the scaled times depends on it
REF_S = 0.005
LOOP = 20_000
NUMPY_CALLS = 80


def reference_seconds():
    """Time one run of the reference work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(LOOP):
        acc += i * 0.5 - acc * 1e-6
    a = np.eye(4) + 0.1
    for _ in range(NUMPY_CALLS):
        np.array([[a[0, 0], a[0, 1]], [a[1, 0], a[1, 1]]])
        np.linalg.det(a)
        a = np.linalg.inv(a) * 0.5 + np.eye(4)
    return time.perf_counter() - start


def local_medians(values, half_width):
    """Per index, the median of the values within half_width of it."""
    return [statistics.median(values[max(0, k - half_width):k + half_width + 1])
            for k in range(len(values))]
