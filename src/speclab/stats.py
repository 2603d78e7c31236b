"""Statistics on spectra: distances, rescaled extremes, and count tests.

Rescaled extremes f(E_j)/Gamma form, in the large-box limit, a Poisson point
process with intensity nu[x, inf) = 1/x on (0, inf). Consequences tested
here: interval counts are Poisson with mean 1/a - 1/b on [a, b), and the
largest rescaled point has limiting CDF exp(-1/x). For the diagonal operator
the distribution of the largest eigenvalue is an exact product over sites,
evaluated in log space; it brackets the full operator's maximum through the
2d norm bound of the hopping part.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy  # scipy.stats loads on first use, not at import

from .lattice import BoxSpec, check_capacity, walk_box
from .tails import DomainError, TailLaw, f_eval, tail_prob


@dataclass(frozen=True)
class Report:
    """Serializable result of one statistical test."""

    name: str
    statistic: float
    p_value: float
    expected: float
    observed: float
    n_trials: int
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "test": self.name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "expected": self.expected,
            "observed": self.observed,
            "n_trials": self.n_trials,
        }
        out.update(self.extra)
        return out


@dataclass(frozen=True)
class RescaledPointSet:
    """Descending rescaled extremes f(E_j)/gamma from one spectrum."""

    points: np.ndarray
    dropped_below_threshold: int

    @property
    def top(self) -> float:
        """Largest rescaled point; 0.0 when every eigenvalue was dropped."""
        return float(self.points[0]) if self.points.size else 0.0


def rescale(eigs_desc: np.ndarray, law: TailLaw, gamma: float) -> RescaledPointSet:
    """Apply f(.)/gamma to eigenvalues at or above the law's clamp point.

    Input must be positive and descending; order is preserved because f is
    increasing on the kept range. Eigenvalues below the clamp are counted in
    `dropped_below_threshold`.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    eigs = np.asarray(eigs_desc, dtype=np.float64)
    kept = eigs[eigs >= max(law.clamp_point, np.finfo(float).tiny)]
    points = f_eval(law, kept) / gamma if kept.size else np.empty(0)
    return RescaledPointSet(
        points=np.asarray(points, dtype=np.float64),
        dropped_below_threshold=int(eigs.size - kept.size),
    )


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


def validate_intervals(intervals) -> tuple[tuple[float, float], ...]:
    ivs = tuple((float(a), float(b)) for a, b in intervals)
    for a, b in ivs:
        if not (0.0 < a < b):
            raise ValueError(f"interval [{a}, {b}) must satisfy 0 < a < b")
    by_start = sorted(ivs)
    for (a1, b1), (a2, b2) in zip(by_start, by_start[1:]):
        if b1 > a2:
            raise ValueError(f"intervals [{a1},{b1}) and [{a2},{b2}) overlap")
    return ivs


def count_in_intervals(points: RescaledPointSet, intervals) -> np.ndarray:
    """Exact counts of points in disjoint intervals [a, b), by binary search."""
    ivs = validate_intervals(intervals)
    ascending = np.sort(points.points)
    counts = np.empty(len(ivs), dtype=np.int64)
    for i, (a, b) in enumerate(ivs):
        lo = np.searchsorted(ascending, a, side="left")
        hi = ascending.size if math.isinf(b) else np.searchsorted(ascending, b, side="left")
        counts[i] = hi - lo
    return counts


def interval_intensity(a: float, b: float) -> float:
    """nu([a, b)) = 1/a - 1/b for the limiting intensity nu[x, inf) = 1/x."""
    return 1.0 / a - (0.0 if math.isinf(b) else 1.0 / b)


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


def max_limit_cdf(x) -> np.ndarray:
    """Limiting CDF of the largest rescaled point: exp(-1/x) on x > 0."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(arr)
    pos = arr > 0
    out[pos] = np.exp(-1.0 / arr[pos])
    return float(out) if arr.ndim == 0 else out


def max_law_test(max_points, name: str = "max_law") -> Report:
    """One-sample KS of the per-trial maxima against exp(-1/x)."""
    xs = np.sort(np.asarray(max_points, dtype=np.float64))
    n = xs.size
    if n < 100:
        raise ValueError(f"need >= 100 trials, got {n}")
    F = max_limit_cdf(xs)
    i = np.arange(1, n + 1)
    stat = float(max(np.max(np.abs(i / n - F)), np.max(np.abs((i - 1) / n - F))))
    p_value = float(scipy.stats.kstwo.sf(stat, n))
    return Report(
        name=name,
        statistic=stat,
        p_value=p_value,
        expected=0.0,
        observed=stat,
        n_trials=n,
        extra={"critical_95": 1.358 / math.sqrt(n)},
    )


def exact_max_cdf(spec: BoxSpec, law: TailLaw, alpha: float, x: float) -> float:
    """P(max over the box of V(n) <= x), as an exact product over sites.

    Evaluated as exp of a sum of log(1 - tail) terms; returns 0.0 whenever
    some factor vanishes (x below the clamp at the origin).
    """
    return float(exact_max_cdf_ladder(spec, law, alpha, x, [spec.radius])[0])


def exact_max_cdf_ladder(
    spec: BoxSpec, law: TailLaw, alpha: float, x: float, radii: list[int]
) -> np.ndarray:
    """exact_max_cdf at several nested radii from one walk over the largest box.

    Every radius must lie in [1, spec.radius]. Sites are attributed to shells
    by their sup-norm radius, so the value at radius L accumulates exactly
    the shells s <= L; the values are nonincreasing in L by construction and
    are returned in the order of `radii`.
    """
    if x < 0:
        raise DomainError("x must be >= 0")
    if not all(1 <= r <= spec.radius for r in radii):
        raise ValueError(f"radii must lie in [1, {spec.radius}], got {list(radii)}")
    L_max = max(radii)
    big = BoxSpec(spec.dimension, L_max, spec.norm_kind)
    check_capacity(big)  # before the shell arrays, as long as a d = 1 box
    shell_logs = np.zeros(L_max + 1)
    zero_shell = np.zeros(L_max + 1, dtype=bool)
    for coords, weight in walk_box(big, alpha):
        shell = np.max(np.abs(coords), axis=1)
        tails = tail_prob(law, weight * x)
        dead = tails >= 1.0
        if np.any(dead):
            np.logical_or.at(zero_shell, shell[dead], True)
        terms = np.zeros_like(tails)
        terms[~dead] = np.log1p(-tails[~dead])
        np.add.at(shell_logs, shell, terms)
    log_cum = np.cumsum(shell_logs)
    dead_cum = np.cumsum(zero_shell) > 0
    return np.array([0.0 if dead_cum[r] else math.exp(log_cum[r]) for r in radii])


def fit_lower_envelope_constant(spec: BoxSpec, law: TailLaw, alpha: float, x_grid) -> float:
    """Least-squares c1 in log(1 - A(x)) = log(c1) - x**delta over the grid.

    A is the exact max CDF at the given box, standing in for its large-L
    limit (the product is Cauchy in L once the factors approach 1).
    """
    if law.family != "stretched_exp":
        raise ValueError("lower envelope fit applies to stretched_exp laws")
    logs = []
    for x in x_grid:
        a_val = exact_max_cdf(spec, law, alpha, float(x))
        if not 0.0 < a_val < 1.0:
            continue
        logs.append(math.log(1.0 - a_val) + float(x) ** law.delta)
    if not logs:
        raise ValueError("no usable grid points for the envelope fit")
    return math.exp(float(np.mean(logs)))
