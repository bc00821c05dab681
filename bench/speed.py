"""Wall time scaled to a reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
half again within a minute, with no process of ours running: a fixed loop
takes 150 ms in one second and 230 ms a few seconds later.  A wall time alone
then says more about the moment than about the program.  So every timed
stretch of work is bracketed by a calibration slice, a fixed piece of pure
Python work that resembles the package's own (small integers, fractions,
tuples, dicts), run in the same thread or on the same CPU.  A stretch that
took `wall` seconds while the slices around it took `cal` seconds on average
reports

    scaled = wall * NOMINAL_S / cal

that is, the time the stretch would have taken at the speed at which the
slice takes NOMINAL_S.  The slice never calls the package, so a change to the
package moves `scaled` exactly as it moves `wall`; only the machine's drift
cancels.  Raw wall times go to the run record beside the scaled ones.
"""
from __future__ import annotations

import os
import time
from fractions import Fraction

# Seconds one slice takes at the reference speed: about its median on a 2-vCPU
# Intel Xeon virtual machine with Python 3.11.7.
NOMINAL_S = 0.0072
_ROUNDS = 12000


def reference_work() -> int:
    """The calibration slice: fixed work that never touches the package."""
    table: dict[int, tuple] = {}
    acc, frac = 0, Fraction(0)
    for i in range(_ROUNDS):
        acc = (acc * 31 + i * i) % 1_000_003
        table[i & 255] = (acc, i, acc ^ i)
        if i % 16 == 0:
            frac += Fraction(i % 7 + 1, i % 5 + 2)
    return acc + len(table) + frac.denominator


def calibrate() -> float:
    """Seconds one calibration slice takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU.

    Then the slices the parent runs between two children measure the CPU the
    children ran on.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})
    except (AttributeError, OSError):
        pass        # no affinity control: slices and work may share less


class SpeedClock:
    """Times stretches of work, each between two calibration slices."""

    def __init__(self) -> None:
        calibrate()                 # warm the slice's code paths
        self.last = calibrate()
        self.wall = 0.0             # raw seconds of all stretches timed
        self.scaled = 0.0           # the same, scaled to the reference speed

    def time(self, fn, *args):
        """Run fn(*args); return its result, wall and scaled seconds."""
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        cal = calibrate()
        scaled = wall * NOMINAL_S * 2 / (self.last + cal)
        self.last = cal
        self.wall += wall
        self.scaled += scaled
        return result, wall, scaled
