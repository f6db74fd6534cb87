"""Host-speed calibration of the measured times.

The host the benchmark was set on changes speed by up to 2x over seconds to
minutes, in process CPU time as much as in wall time (see README.md).  So
``run.py`` times a fixed pure-Python loop right before and right after each
worker, on the CPU the worker is pinned to, and scales the worker's times
by ``REFERENCE_S`` over the mean of the two loop times.  That gives them in
seconds at the reference speed: the speed at which the loop takes
``REFERENCE_S``.  The loop is part of the benchmark, not of the program, so
a change to the program moves the scaled times as it moves the raw ones.

The loop has two halves.  Integer arithmetic follows the speed of the core;
a pointer chase through a list far larger than the core's L2 cache follows
the shared cache and memory, which the program (tens of MB of Python
objects) depends on too, and which busy neighbours slow down more.
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: iterations of the arithmetic half
ARITH_LOOP = 300_000
#: entries of the pointer-chase list (8 MB of slots, ~28 MB of int objects)
CHASE_ENTRIES = 1 << 20
#: steps of the pointer chase
CHASE_LOOP = 120_000
#: the loop's time at the reference speed (a quiet minute of the 2-vCPU
#: host the benchmark was set on)
REFERENCE_S = 0.040

_chase: List[int] = []


def _chase_list() -> List[int]:
    """One cycle through every entry, in a fixed random order."""
    if not _chase:
        order = list(range(CHASE_ENTRIES))
        random.Random(0).shuffle(order)
        _chase.extend([0] * CHASE_ENTRIES)
        for here, there in zip(order, order[1:] + order[:1]):
            _chase[here] = there
    return _chase


def loop_time() -> float:
    """Seconds the calibration loop takes now."""
    chase = _chase_list()
    start = time.perf_counter()
    acc = 0
    for i in range(ARITH_LOOP):
        acc += i * i % 7
    j = 0
    for _ in range(CHASE_LOOP):
        j = chase[j]
    return time.perf_counter() - start


def calibrated(run: Callable[[], T]) -> Tuple[T, float]:
    """``run()`` between two calibrations: its result, and the mean of the
    two loop times."""
    before = loop_time()
    result = run()
    return result, (before + loop_time()) / 2
