"""Reference statistics, used only by the tests.

- Sample-based KS and Levy distances. The package reads both distances from
  eigenvalue counts (`speclab.stats.ks_distance`, `levy_distance`); these are
  the merge-scan and bisection over two explicit samples that it must
  reproduce bit for bit.
- `poisson_gof` and `poisson_joint_gof` as they were written on
  `scipy.stats`, which the package no longer loads; its own versions must
  return equal `Report`s.
- `kstwo_sf_mp`: the KS tail from the Durbin matrix at 50 digits, against
  which `speclab.stats.kstwo_sf` is measured, and `smirnov_mp`, the exact
  one-sided tail (twice it is the two-sided tail wherever d >= 1/2).
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.stats

from speclab.stats import Report, interval_intensity


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


def poisson_gof(per_trial_counts, interval, min_expected: float = 5.0) -> Report:
    """Chi-square test of observed counts against the limiting Poisson law.

    The reference pmf uses the *expected* mean nu([a, b)), not a fitted one,
    so the degrees of freedom are (number of cells - 1). Tail cells are
    pooled until every expected cell count reaches `min_expected`.
    """
    counts = np.asarray(per_trial_counts, dtype=np.int64)
    n = counts.size
    if n < 100:
        raise ValueError(f"need >= 100 trials, got {n}")
    a, b = float(interval[0]), float(interval[1])
    mean_expected = interval_intensity(a, b)
    observed_mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / math.sqrt(n))

    # pool the pmf tail so every expected cell is large enough
    kmax = int(np.max(counts))
    cut = kmax + 1
    while cut > 1:
        exp_cells = n * scipy.stats.poisson.pmf(np.arange(cut), mean_expected)
        exp_tail = n * scipy.stats.poisson.sf(cut - 1, mean_expected)
        if exp_tail >= min_expected and np.all(exp_cells >= min_expected):
            break
        cut -= 1
    exp_cells = n * scipy.stats.poisson.pmf(np.arange(cut), mean_expected)
    exp_tail = n * scipy.stats.poisson.sf(cut - 1, mean_expected)
    obs_cells = np.array([np.sum(counts == j) for j in range(cut)], dtype=np.float64)
    obs_tail = float(np.sum(counts >= cut))
    exp_all = np.append(exp_cells, exp_tail)
    obs_all = np.append(obs_cells, obs_tail)
    stat = float(np.sum((obs_all - exp_all) ** 2 / exp_all))
    dof = len(exp_all) - 1
    p_value = float(scipy.stats.chi2.sf(stat, dof)) if dof >= 1 else 1.0
    return Report(
        name=f"poisson_counts[{a},{b})",
        statistic=stat,
        p_value=p_value,
        expected=mean_expected,
        observed=observed_mean,
        n_trials=n,
        extra={
            "mean_se": se,
            "cells": len(exp_all),
            "dof": dof,
            "mean_within_3se": bool(abs(observed_mean - mean_expected) <= 3.0 * se),
        },
    )


def poisson_joint_gof(
    per_trial_counts: np.ndarray, intervals, min_expected: float = 5.0
) -> Report:
    """Chi-square test of joint interval counts against independent Poissons.

    The limiting process makes counts on disjoint intervals independent, so
    the joint pmf of a count tuple is the product of Poisson pmfs at the
    interval intensities. Tuple cells below `min_expected` are pooled into
    one residual cell.
    """
    counts = np.asarray(per_trial_counts, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[1] != len(intervals):
        raise ValueError("need one count per interval per trial")
    n = counts.shape[0]
    if n < 100:
        raise ValueError(f"need >= 100 trials, got {n}")
    means = [interval_intensity(a, b) for a, b in intervals]
    sup = [int(np.max(counts[:, i])) + 1 for i in range(len(intervals))]
    cells: list[tuple] = []
    probs: list[float] = []
    for tup in np.ndindex(*sup):
        p = float(np.prod([scipy.stats.poisson.pmf(c, m) for c, m in zip(tup, means)]))
        cells.append(tup)
        probs.append(p)
    probs_arr = np.array(probs)
    keep = n * probs_arr >= min_expected
    exp_all = list(n * probs_arr[keep])
    obs_all = [
        float(np.sum(np.all(counts == np.array(cell), axis=1)))
        for cell, k in zip(cells, keep) if k
    ]
    exp_rest = n * (1.0 - float(np.sum(probs_arr[keep])))
    obs_rest = n - sum(obs_all)
    if exp_rest > 0:
        exp_all.append(exp_rest)
        obs_all.append(obs_rest)
    exp_arr = np.array(exp_all)
    obs_arr = np.array(obs_all)
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    dof = len(exp_arr) - 1
    p_value = float(scipy.stats.chi2.sf(stat, dof)) if dof >= 1 else 1.0
    return Report(
        name=f"poisson_joint_{len(intervals)}intervals",
        statistic=stat,
        p_value=p_value,
        expected=float(np.sum(means)),
        observed=float(np.mean(np.sum(counts, axis=1))),
        n_trials=n,
        extra={"cells": len(exp_arr), "dof": dof},
    )


# Exact fixed-point arithmetic for the Durbin power. A matrix is a stack of
# _LIMBS integer limb matrices of _LIMB_BITS bits each, most significant
# first, and a power-of-two exponent: value = sum_a X[a] 2^(-_LIMB_BITS a + e),
# with the top limb's largest entry in [1, 2^_LIMB_BITS). Limb products are
# exact in float64 BLAS while m * _LIMBS * 2^(2 _LIMB_BITS) < 2^53, and each
# product keeps 220 bits below the top limb: 66 digits, 50 of them kept
# through the whole power (`mpmath.matrix` at m = 179 would take minutes).
_LIMB_BITS = 20
_LIMBS = 12
_LIMB_MASK = (1 << _LIMB_BITS) - 1


def _fixed_mul(x, y):
    (xa, ea), (xb, eb) = x, y
    limbs = np.array([sum(xa[a] @ xb[s - a] for a in range(s + 1))
                      for s in range(_LIMBS)]).astype(np.int64)
    for s in range(_LIMBS - 1, 0, -1):  # carry up from the least significant limb
        limbs[s - 1] += limbs[s] >> _LIMB_BITS
        limbs[s] &= _LIMB_MASK
    e = ea + eb
    while limbs[0].max() >> _LIMB_BITS:  # one more limb on top, the last dropped
        limbs = np.concatenate([limbs[:1] >> _LIMB_BITS, limbs[:1] & _LIMB_MASK, limbs[1:-1]])
        e += _LIMB_BITS
    while not limbs[0].any():
        limbs = np.concatenate([limbs[1:], np.zeros_like(limbs[:1])])
        e -= _LIMB_BITS
    return limbs.astype(np.float64), e


def _durbin_mp(d: float, n: int) -> tuple[int, list[list[mpmath.mpf]]]:
    """k and the rows of the Durbin matrix of `speclab.stats._durbin_cdf`
    (k = ceil(n d), h = k - n d, m = 2k - 1) at the working precision; n d is
    formed without rounding."""
    nd = n * mpmath.mpf(d)
    k = int(mpmath.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    rows = [[mpmath.mpf(int(i - j + 1 >= 0)) for j in range(m)] for i in range(m)]
    for i in range(m):
        rows[i][0] -= h ** (i + 1)
        rows[m - 1][i] -= h ** (m - i)
    if 2 * h > 1:
        rows[m - 1][0] += (2 * h - 1) ** m
    for i in range(m):
        for j in range(min(i + 2, m)):
            rows[i][j] /= mpmath.factorial(i - j + 1)
    return k, rows


def kstwo_sf_mp(d: float, n: int, dps: int = 50) -> mpmath.mpf:
    """P(D_n >= d) as 1 - n!/n^n (H^n)[k-1, k-1], H the Durbin matrix.

    The entries are taken in mpmath at `dps` + 10 digits, and the power by
    plain binary squaring from the top bit of n in the fixed-point
    arithmetic above.
    """
    if d <= 0.5 / n:
        return mpmath.mpf(1)
    if d >= 1.0:
        return mpmath.mpf(0)
    with mpmath.workdps(dps + 10):
        k, rows = _durbin_mp(d, n)
        if len(rows) * _LIMBS >= 2 ** (53 - 2 * _LIMB_BITS):
            raise ValueError(f"m = {len(rows)} is past exact limb products")
        scale = mpmath.mpf(2) ** (_LIMB_BITS * (_LIMBS - 1))
        ints = np.array([[int(mpmath.floor(x * scale)) for x in row] for row in rows],
                        dtype=object)
        H = (np.stack([((ints >> (_LIMB_BITS * (_LIMBS - 1 - a))) & _LIMB_MASK).astype(np.float64)
                       for a in range(_LIMBS)]), 0)
        power = H
        for bit in bin(n)[3:]:
            power = _fixed_mul(power, power)
            if bit == "1":
                power = _fixed_mul(power, H)
        limbs, e = power
        centre = sum(int(limbs[a][k - 1, k - 1]) << (_LIMB_BITS * (_LIMBS - 1 - a))
                     for a in range(_LIMBS))
        cdf = (mpmath.ldexp(centre, e - _LIMB_BITS * (_LIMBS - 1))
               * mpmath.factorial(n) / mpmath.mpf(n) ** n)
        return +(1 - cdf)


def kstwo_sf_mp_matrix(d: float, n: int, dps: int = 50) -> mpmath.mpf:
    """`kstwo_sf_mp` with an `mpmath.matrix` power in place of fixed point:
    the oracle's own check, at small m only."""
    with mpmath.workdps(dps + 10):
        k, rows = _durbin_mp(d, n)
        centre = (mpmath.matrix(rows) ** n)[k - 1, k - 1]
        return +(1 - centre * mpmath.factorial(n) / mpmath.mpf(n) ** n)


def smirnov_mp(d: float, n: int, dps: int = 50) -> mpmath.mpf:
    """P(D_n^+ >= d) by the Birnbaum-Tingey sum at `dps` + 10 digits."""
    with mpmath.workdps(dps + 10):
        d = mpmath.mpf(d)
        top = int(mpmath.floor(n * (1 - d)))
        return +(d * mpmath.fsum(mpmath.binomial(n, j) * (1 - d - mpmath.mpf(j) / n) ** (n - j)
                                 * (d + mpmath.mpf(j) / n) ** (j - 1) for j in range(top + 1)))
