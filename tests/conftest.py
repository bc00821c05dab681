"""Shared generators for the randomized suites (seeded, no global state),
the hypothesis profile every property test runs under, and a runner for
checks that need a fresh interpreter."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

from wrapsurg import (
    MontesinosTangle,
    NotAKnotError,
    Slope,
    WrappedKnot,
    make_slope,
    make_wrapped,
)

# Derandomized, so each run draws the same examples in the same time; no
# example database, so no earlier run's failures change what a run draws.
settings.register_profile(
    "tier1", derandomize=True, max_examples=200, deadline=None, database=None
)
settings.load_profile("tier1")


def random_slope(rng: random.Random, max_num: int, max_den: int) -> Slope:
    while True:
        p = rng.randint(-max_num, max_num)
        q = rng.randint(1, max_den)
        if (p, q) != (0, 0):
            return make_slope(p, q)


def random_tangle(
    rng: random.Random, max_entries: int = 3, bound: int = 20
) -> MontesinosTangle:
    k = rng.randint(1, max_entries)
    return MontesinosTangle.from_slopes(
        [random_slope(rng, bound, bound) for _ in range(k)]
    )


def random_knot(
    rng: random.Random, max_entries: int = 3, bound: int = 20
) -> WrappedKnot:
    while True:
        tangle = random_tangle(rng, max_entries, bound)
        a = rng.randint(0, 1)
        try:
            return make_wrapped(a, tangle)
        except NotAKnotError:
            continue


def run_python(script: str, *options: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter with this checkout's src/ first on
    PYTHONPATH, for checks that need their own process state."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *options, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
