"""Shared generators for the randomized suites (seeded, no global state),
the hypothesis profile every property test runs under, the `Fraction`
reference value of a sum of slopes, a runner for checks that need a fresh
interpreter, and a counter of a function's calls."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path

from hypothesis import settings

from wrapsurg import (
    MontesinosTangle,
    NotAKnotError,
    Slope,
    WrappedKnot,
    make_slope,
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
    return MontesinosTangle([random_slope(rng, bound, bound) for _ in range(k)])


def random_knot(
    rng: random.Random, max_entries: int = 3, bound: int = 20
) -> WrappedKnot:
    while True:
        tangle = random_tangle(rng, max_entries, bound)
        a = rng.randint(0, 1)
        try:
            return WrappedKnot(a, tangle)
        except NotAKnotError:
            continue


def fraction_sum(slopes: Iterable[Slope], start: int = 0) -> Fraction:
    """`start` plus the finite `slopes`, in `Fraction` arithmetic: the
    reference that tests compare the package's `Slope` arithmetic with."""
    return sum((Fraction(s.p, s.q) for s in slopes), Fraction(start))


def python_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_python(script: str, *options: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter under `python_env()`, for checks
    that need their own process state."""
    return subprocess.run(
        [sys.executable, *options, "-c", script],
        env=python_env(), capture_output=True, text=True, timeout=60,
    )


def count_calls(monkeypatch, calls, owner, name):
    """Count the calls of owner.name, rebound in every module of the package
    that holds it, into calls[name]."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    holders = [owner] + [module for key, module in sys.modules.items()
                         if key.partition(".")[0] == "wrapsurg"]
    for holder in holders:
        if vars(holder).get(name) is original:
            monkeypatch.setattr(holder, name, counting)
