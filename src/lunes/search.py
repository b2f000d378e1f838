"""Vectorized golden-section maximization on per-element brackets."""

from __future__ import annotations

import numpy as np

INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - np.sqrt(5.0)) / 2.0


def golden_max(f, lo, hi, iters: int = 48):
    """Vectorized golden-section maximization on per-element brackets.

    f maps a parameter array to a value array of the same shape; lo and hi
    are arrays (or scalars) giving each element's bracket.  Each iteration
    keeps one interior point and evaluates f once, at the new one, so an
    element costs iters + 3 evaluations.  48 iterations shrink a bracket of
    ~2e-2 below 1e-10.  Returns (argmax, max).
    """
    a = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
    b = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
    c = a + INV_PHI2 * (b - a)
    d = a + INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(iters):
        keep_low = fc > fd
        # keep_low: [a, d] survives and c becomes its upper interior point;
        # otherwise [c, b] survives and d becomes its lower one
        a, b = np.where(keep_low, a, c), np.where(keep_low, d, b)
        c, d = (np.where(keep_low, a + INV_PHI2 * (b - a), d),
                np.where(keep_low, c, a + INV_PHI * (b - a)))
        fx = f(np.where(keep_low, c, d))
        fc, fd = np.where(keep_low, fx, fd), np.where(keep_low, fc, fx)
    x = 0.5 * (a + b)
    return x, f(x)
