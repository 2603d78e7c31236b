"""Sample-based KS and Levy distances, used only by the tests.

The package reads both distances from eigenvalue counts
(`speclab.stats.ks_distance`, `levy_distance`); these are the merge-scan and
bisection over two explicit samples that it must reproduce bit for bit.
"""
from __future__ import annotations

import numpy as np


def ks_distance(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic by merge scan."""
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    pts = np.concatenate([a, b])
    fa = np.searchsorted(a, pts, side="right") / a.size
    fb = np.searchsorted(b, pts, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def levy_distance(sample_a: np.ndarray, sample_b: np.ndarray, tol: float = 1e-6) -> float:
    """Levy metric between the two empirical CDFs, by bisection on epsilon.

    Feasibility of a given epsilon is decided exactly from the step
    structure: it suffices to check the defining inequalities at the jump
    points of each CDF. The result is an upper bound within `tol` of the
    true value and never exceeds the KS distance.
    """
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")

    def feasible(eps: float) -> bool:
        # F_b(x) <= F_a(x + eps) + eps at jumps x of F_b, and symmetrically.
        fb_at_b = np.arange(1, b.size + 1) / b.size
        fa_shift = np.searchsorted(a, b + eps, side="right") / a.size
        if np.any(fb_at_b > fa_shift + eps + 1e-15):
            return False
        fa_at_a = np.arange(1, a.size + 1) / a.size
        fb_shift = np.searchsorted(b, a + eps, side="right") / b.size
        return not np.any(fa_at_a > fb_shift + eps + 1e-15)

    hi = ks_distance(a, b)
    if feasible(0.0):
        return 0.0
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi

