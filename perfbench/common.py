"""Helpers shared by the runner, the worker and the self-tests.

Standard library only, so the runner can use them without importing numpy.
"""

from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"  # holds the package under test
TAIL_BEYOND = 10  # samples that must lie above the reported tail latency


def package_env() -> dict:
    """The environment with the absolute `src` directory first on PYTHONPATH,
    so a child started in any working directory imports the package under
    test (a relative `PYTHONPATH=src` breaks as soon as the cwd changes)."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def tail(latencies, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Latency at the highest percentile that leaves `beyond` samples above it.

    Returns (value, percentile, samples_beyond).  The percentile is the
    nearest-rank one: with n samples the value at rank n - beyond (1-based)
    is the 100 * (n - beyond) / n percentile, and exactly `beyond` samples
    sit above it.  With `beyond` samples or fewer no such percentile exists;
    the maximum is returned as the 100th percentile with 0 samples beyond,
    so a caller can tell the tail is not resolved.
    """
    xs = sorted(float(x) for x in latencies)
    n = len(xs)
    if n == 0:
        raise ValueError("no latencies")
    if n <= beyond:
        return xs[-1], 100.0, 0
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n, beyond
