"""Statistics on spectra: distances, rescaled extremes, and count tests.

The KS and Levy distances between a spectrum and a free sample read the
spectrum only through its counting function N(x) = #{lambda <= x}
(`SpectrumCounts`), counted where it decides them.

Rescaled extremes f(E_j)/Gamma form, in the large-box limit, a Poisson point
process with intensity nu[x, inf) = 1/x on (0, inf). Consequences tested
here: interval counts are Poisson with mean 1/a - 1/b on [a, b), and the
largest rescaled point has limiting CDF exp(-1/x). For the diagonal operator
the distribution of the largest eigenvalue is an exact product over sites,
evaluated in log space; it brackets the full operator's maximum through the
2d norm bound of the hopping part.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy  # scipy.special loads on first use, not at import

from .lattice import BoxSpec, orbit_table, orbit_weights
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

    @property
    def top(self) -> float:
        """Largest rescaled point; 0.0 when every eigenvalue was dropped."""
        return float(self.points[0]) if self.points.size else 0.0


def rescale(eigs_desc: np.ndarray, law: TailLaw, gamma: float) -> RescaledPointSet:
    """Apply f(.)/gamma to eigenvalues at or above the law's point floor
    (`TailLaw.point_floor`).

    Input must be positive and descending; order is preserved because f is
    increasing on the kept range. Eigenvalues below the floor are left out.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    eigs = np.asarray(eigs_desc, dtype=np.float64)
    kept = eigs[eigs >= law.point_floor]
    points = f_eval(law, kept) / gamma if kept.size else np.empty(0)
    return RescaledPointSet(points=np.asarray(points, dtype=np.float64))


# points per counting pass: the first pass of a KS distance counts this many
# of its decisive points, each later pass at most this many still open, and
# Levy's bisection counts at most this many of a level's undecided points at
# a time, looking ahead to the next levels while they fit in one pass
COUNT_BATCH = 512
LEVY_LOOKAHEAD = 6  # bisection levels one Levy pass may decide at most
_SIGN = np.int64(np.iinfo(np.int64).min)


def sorted_counter(values) -> Callable[[np.ndarray], np.ndarray]:
    """N(x) = #{v <= x} over a sample, at an array of points, by binary search."""
    return functools.partial(np.searchsorted, np.sort(np.asarray(values, dtype=np.float64)),
                             side="right")


class SpectrumCounts:
    """N(x) = #{lambda <= x} of a spectrum of `size` values, seen only through
    `count` (an array of points -> N at each, in one pass over the operator).

    Every count made is kept: a call counts only the points not known yet,
    in at most one call of `count`, and `bracket` bounds N anywhere between
    the nearest known points, N being nondecreasing. `window` gives the
    counts of the values in a closed interval alone, from the same memory.
    """

    def __init__(self, count: Callable[[np.ndarray], np.ndarray], size: int):
        self._count = count
        self._x = np.array([-np.inf, np.inf])
        self._n = np.array([0, size], dtype=np.int64)
        self.size = size

    def bracket(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds on N at each point; equal where N is known."""
        i = np.searchsorted(self._x, x, side="right")
        lo = self._n[i - 1]
        hi = np.where(self._x[i - 1] == x, lo, self._n[np.minimum(i, self._x.size - 1)])
        return lo, hi

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        lo, hi = self.bracket(x)
        new = np.sort(x[lo != hi])
        if new.size == 0:
            return lo
        new = new[np.append(True, new[1:] != new[:-1])]
        xs = np.concatenate([self._x, new])
        order = np.argsort(xs, kind="stable")
        self._x = xs[order]
        self._n = np.concatenate([self._n, self._count(new)])[order]
        return self.bracket(x)[0]

    def window(self, lo: float, hi: float) -> "WindowCounts":
        return WindowCounts(self, lo, hi)


class WindowCounts:
    """The values of a spectrum in [lo, hi]: N_w(x) = N(min(x, hi)) - #{lambda < lo}
    for x >= lo. Its two edges are counted with its first request and kept."""

    def __init__(self, whole: SpectrumCounts, lo: float, hi: float):
        self._whole = whole
        self._edges = np.array([np.nextafter(lo, -np.inf), hi])
        self._span = None  # N at the two edges, once counted

    def _clip(self, c) -> np.ndarray:
        if self._span is None:
            self(np.empty(0))
        below, top = self._span
        return np.minimum(np.maximum(c - below, 0), top - below)  # np.clip is slower

    @property
    def size(self) -> int:
        return int(self._clip(self._whole.size))  # N_w at +inf

    def bracket(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return tuple(self._clip(c) for c in self._whole.bracket(x))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self._span is not None:
            return self._clip(self._whole(x))
        c = self._whole(np.concatenate([x, self._edges]))
        self._span = c[-2:]
        return self._clip(c[:-2])


def _ordered(y: np.ndarray) -> np.ndarray:
    """Integers in the order of the floats y (both zeros map to 0)."""
    i = y.view(np.int64)
    return np.where(i < 0, -(i ^ _SIGN), i)


def _unordered(k: np.ndarray) -> np.ndarray:
    """The floats of `_ordered` integers."""
    return np.where(k < 0, (-k) ^ _SIGN, k).view(np.float64)


def _last_below(t: np.ndarray, eps: float) -> np.ndarray:
    """The largest float y with fl(y + eps) < t, at each t.

    A sample point a has fl(a + eps) < t exactly when a <= y, so the count
    at y is the number of points that eps shifts below t. fl(t - eps) is
    within an ulp or two of y, except where y is far smaller than eps; there
    y is found by bisection over the floats between two bounds.
    """
    y = t - eps
    for _ in range(2):
        over = y + eps >= t
        y[over] = np.nextafter(y[over], -np.inf)
        up = np.nextafter(y, np.inf)
        under = up + eps < t
        y[under] = up[under]
    bad = np.flatnonzero((y + eps >= t) | (np.nextafter(y, np.inf) + eps < t))
    if bad.size:
        tb = t[bad]
        span = 4.0 * np.spacing(np.maximum(np.abs(tb), eps))
        lo, hi = _ordered(tb - eps - span), _ordered(tb - eps + span)
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            ok = _unordered(mid) + eps < tb
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        y[bad] = _unordered(lo)
    return y


def _free_steps(free) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct free values u, and #{free <= u} and #{free < u} at each.

    In the sorted sample, #{free < u} is the first index of u, and
    #{free <= u} the next distinct value's first index, or the size."""
    s = np.sort(np.asarray(free, dtype=np.float64))
    if s.size == 0:
        raise ValueError("samples must be nonempty")
    first = np.flatnonzero(np.append(True, s[1:] != s[:-1]))
    return s[first], np.append(first[1:], s.size), first


def ks_distance(counts, free) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic between a spectrum, given
    by its `counts` (a SpectrumCounts or a window of one), and a free sample.

    The free CDF is constant between its distinct values u and N is
    nondecreasing, so the sup of |N/n_a - F_free| is attained at some u
    (against #{free <= u}) or just below one (N at the float below u,
    against #{free < u}); the value is the float c/n_a - k/n_f that the
    merge scan over both samples forms. Branch and bound: a first pass counts
    an even grid of these points, and each later pass counts only points
    whose bracket could still beat the best exact value.
    """
    u, upto, below = _free_steps(free)
    nb = upto[-1]
    pts = np.empty(2 * u.size)
    pts[0::2], pts[1::2] = np.nextafter(u, -np.inf), u
    fb = np.empty(pts.size)
    fb[0::2], fb[1::2] = below / nb, upto / nb
    grid = np.linspace(0, pts.size - 1, min(COUNT_BATCH, pts.size)).astype(np.int64)
    counts(pts[grid])
    na = counts.size
    if na == 0:
        raise ValueError("samples must be nonempty")
    while True:
        lo, hi = counts.bracket(pts)
        known = lo == hi
        best = np.max(np.abs(lo[known] / na - fb[known]))
        bound = np.maximum(hi / na - fb, fb - lo / na)
        open_ = np.flatnonzero(~known & (bound > best))
        if open_.size == 0:
            return float(best)
        counts(pts[open_[::-(-open_.size // COUNT_BATCH)]])


def levy_distance(counts, free, tol: float = 1e-6) -> float:
    """Levy metric between a spectrum's CDF, given by its `counts`, and a free
    sample's, by bisection on epsilon from the KS distance down to `tol`.

    Feasibility of an epsilon is decided exactly from the step structure:
    F_b(b) <= F_a(b + eps) + eps at each distinct free value b, and
    F_a(a) <= F_b(a + eps) + eps at the largest point a of the spectrum
    whose shift lands below each free value u, which is N at `_last_below(u,
    eps)` against #{free < u}. Each inequality is read from the bracket of
    its count where that decides it, and the undecided ones are counted, with
    those of the next bisection levels, in one pass; a level with more than
    COUNT_BATCH undecided first counts an even subset of them, pass by pass,
    until the rest fit. A constraint met at the lower end of the bracket
    stays met above it and is dropped. The result is an upper bound within
    `tol` of the true value and never exceeds the KS distance.
    """
    hi = ks_distance(counts, free)
    u, upto, below = _free_steps(free)
    na, nb = counts.size, upto[-1]
    fb_at, fb_below = upto / nb, below / nb
    slack = 1e-15

    def check(eps: float, c1: np.ndarray, c2: np.ndarray):
        # -> (surely infeasible, met at c1, met at c2, points still to count)
        x1, y2 = u[c1] + eps, _last_below(u[c2], eps)
        lo1, hi1 = counts.bracket(x1)
        lo2, hi2 = counts.bracket(y2)
        need2 = fb_below[c2] + eps + slack
        violated = bool(np.any(fb_at[c1] > hi1 / na + eps + slack) or np.any(lo2 / na > need2))
        met1 = fb_at[c1] <= lo1 / na + eps + slack
        met2 = hi2 / na <= need2
        return violated, met1, met2, np.concatenate([x1[~met1], y2[~met2]])

    def feasible(eps: float, lo: float, hi: float, c1: np.ndarray, c2: np.ndarray):
        violated, met1, met2, pending = check(eps, c1, c2)
        while not violated and pending.size > COUNT_BATCH:
            # too many for one pass: count an even subset and decide again
            counts(pending[::-(-pending.size // COUNT_BATCH)])
            violated, met1, met2, pending = check(eps, c1, c2)
        if not violated and pending.size:
            # count this level's open points with those of the bisection
            # levels below it, while they fit in one pass
            batch, spans = [pending], [(lo, eps), (eps, hi)]
            for _ in range(LEVY_LOOKAHEAD - 1):
                spans = [(a, b) for a, b in spans if b - a > tol]
                mids = [0.5 * (a + b) for a, b in spans]
                more = [check(m, c1, c2)[3] for m in mids]
                if not mids or sum(p.size for p in batch + more) > COUNT_BATCH:
                    break
                batch += more
                spans = [s for (a, b), m in zip(spans, mids) for s in ((a, m), (m, b))]
            counts(np.concatenate(batch))
            violated, met1, met2, _ = check(eps, c1, c2)
        return not violated, met1, met2

    c1, c2 = np.arange(u.size), np.arange(u.size)
    ok, met1, met2 = feasible(0.0, 0.0, hi, c1, c2)
    if ok:
        return 0.0
    lo = 0.0
    c1, c2 = c1[~met1], c2[~met2]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        ok, met1, met2 = feasible(mid, lo, hi, c1, c2)
        if ok:
            hi = mid
        else:
            lo = mid
            c1, c2 = c1[~met1], c2[~met2]
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


def _poisson_pmf(k: np.ndarray, mu: float) -> np.ndarray:
    """Poisson pmf at integers k >= 0, exp(k log mu - log k! - mu)."""
    return np.exp(scipy.special.xlogy(k, mu) - scipy.special.gammaln(k + 1) - mu)


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
    pmf = _poisson_pmf(np.arange(kmax + 1), mean_expected)
    cut = kmax + 1
    while cut > 1:
        exp_cells = n * pmf[:cut]
        exp_tail = n * scipy.special.pdtrc(cut - 1, mean_expected)
        if exp_tail >= min_expected and np.all(exp_cells >= min_expected):
            break
        cut -= 1
    exp_cells = n * pmf[:cut]
    exp_tail = n * scipy.special.pdtrc(cut - 1, mean_expected)
    obs_cells = np.array([np.sum(counts == j) for j in range(cut)], dtype=np.float64)
    obs_tail = float(np.sum(counts >= cut))
    exp_all = np.append(exp_cells, exp_tail)
    obs_all = np.append(obs_cells, obs_tail)
    stat = float(np.sum((obs_all - exp_all) ** 2 / exp_all))
    dof = len(exp_all) - 1
    p_value = float(scipy.special.chdtrc(dof, stat)) if dof >= 1 else 1.0
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
    # tuple probabilities in np.ndindex order, each the left-to-right
    # product of its intervals' pmfs
    probs_arr = functools.reduce(
        np.multiply.outer, [_poisson_pmf(np.arange(s), m) for s, m in zip(sup, means)]).ravel()
    cells = np.ndindex(*sup)
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
    p_value = float(scipy.special.chdtrc(dof, stat)) if dof >= 1 else 1.0
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


# n d^2 from which `kstwo_sf` is 2 smirnov(n, d). The neglected two-sided
# term P(D+ >= d, D- >= d) is then at most 3.1e-11 of the tail at n <= 2000;
# the Durbin matrix reads the tail as 1 - P(D_n < d), losing about n*eps/p of
# it, 5.5e-11 at n = 2000 just below 4 (both against a 50-digit evaluation)
_SMIRNOV_FROM = 4.0


def kstwo_sf(d: float, n: int) -> float:
    """P(D_n >= d) for the two-sided one-sample KS statistic D_n of n draws.

    Below n d^2 = 4 this is 1 - P(D_n < d), with P(D_n < d) from the Durbin
    matrix (Marsaglia, Tsang & Wang, J. Stat. Softw. 8(18), 2003). From
    there, and wherever d >= 1/2 (where it is exact), it is 2 smirnov(n, d).
    Against a 50-digit evaluation of the same matrix at n <= 2000 the error
    is at most 1e-12 absolute and 1e-10 relative. A Durbin evaluation costs
    about 2 (4 sqrt(n))^3 log2(n) flops: on one BLAS thread of a 2-vCPU
    Xeon, 5 ms at n = 2000, 80 ms at 10^4 and 2.3 s at 10^5.
    """
    if d <= 0.5 / n:  # D_n >= 1/(2n) always
        return 1.0
    if d >= 1.0:
        return 0.0
    if d >= 0.5 or n * d * d >= _SMIRNOV_FROM:
        return min(1.0, 2.0 * float(scipy.special.smirnov(n, d)))
    return 1.0 - _durbin_cdf(n, d)


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) for 1/(2n) < d < 1: n!/n^n times the centre entry of H^n.

    H is Durbin's m x m matrix, m = 2k - 1 with k = ceil(n d), h = k - n d:
    H[i, j] = 1/(i - j + 1)! on and below the superdiagonal, less h^(i+1)
    in the first column and h^(m-j) in the last row, all entries >= 0. The
    power is taken by squaring with a power-of-two exponent tracked apart,
    and n!/n^n is rounded once from exact integers, so nothing underflows.
    """
    nd = n * d
    k = math.ceil(nd)
    h = k - nd
    m = 2 * k - 1
    rows = np.arange(m)
    lag = rows[:, None] - rows + 1  # i - j + 1: the factorial of each entry
    inv_fact = np.empty(m + 1)
    fact = 1
    for j in range(m + 1):
        fact *= max(j, 1)
        inv_fact[j] = 1 / fact  # correctly rounded; 0.0 past 177!
    H = (lag >= 0).astype(np.float64)
    h_pow = h ** np.arange(1, m + 1)
    H[:, 0] -= h_pow
    H[-1] -= h_pow[::-1]
    if h > 0.5:
        H[-1, 0] += (2.0 * h - 1.0) ** m
    H *= inv_fact[np.maximum(lag, 0)]

    def rescaled(x: np.ndarray, exp2: int) -> tuple[np.ndarray, int]:
        shift = int(np.frexp(x.max())[1])
        return np.ldexp(x, -shift), exp2 + shift

    # H^n e_k by binary powers of H from the lowest bit of n
    v, v_exp = np.zeros(m), 0
    v[k - 1] = 1.0
    power, power_exp, bits = H, 0, n
    while True:
        if bits & 1:
            v, v_exp = rescaled(power @ v, v_exp + power_exp)
        bits >>= 1
        if not bits:
            break
        power, power_exp = rescaled(power @ power, 2 * power_exp)
    num, den = math.factorial(n), n ** n
    shift = den.bit_length() - num.bit_length() + 1
    return math.ldexp(float(v[k - 1]) * ((num << shift) / den), v_exp - shift)


def max_law_test(max_points, name: str = "max_law") -> Report:
    """One-sample KS of the per-trial maxima against exp(-1/x).

    The p-value is `kstwo_sf`: the exact Durbin-matrix tail below
    n D^2 = 4, 2 smirnov(n, D) from there, within 1e-12 absolute and 1e-10
    relative of a 50-digit evaluation at n <= 2000.
    """
    xs = np.sort(np.asarray(max_points, dtype=np.float64))
    n = xs.size
    if n < 100:
        raise ValueError(f"need >= 100 trials, got {n}")
    F = max_limit_cdf(xs)
    i = np.arange(1, n + 1)
    stat = float(max(np.max(np.abs(i / n - F)), np.max(np.abs((i - 1) / n - F))))
    p_value = kstwo_sf(stat, n)
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
    spec: BoxSpec, law: TailLaw, alpha: float, x, radii: list[int]
) -> np.ndarray:
    """exact_max_cdf at each x and several nested radii, from one orbit table.

    x is a scalar or an array; the result has one row per x, shape
    x.shape + (len(radii),). Every radius must lie in [1, spec.radius].
    Sites are attributed to shells by their sup-norm radius, the last
    coordinate of their orbit (`lattice.orbit_table`), so the value at
    radius L accumulates exactly the shells s <= L; each row is nonincreasing
    in L by construction and lists the radii in the order of `radii`. Each
    x's shell sums are one `np.bincount` of its own, so a row is bitwise the
    same whichever other x share the call.
    """
    xs = np.asarray(x, dtype=np.float64)
    if np.any(xs < 0):
        raise DomainError("x must be >= 0")
    if not all(1 <= r <= spec.radius for r in radii):
        raise ValueError(f"radii must lie in [1, {spec.radius}], got {list(radii)}")
    L_max = max(radii)
    big = BoxSpec(spec.dimension, L_max, spec.norm_kind)
    coords, counts = orbit_table(big)
    weights, shell = orbit_weights(big, alpha), coords[:, -1]
    table = np.zeros((xs.size, len(radii)))
    for row, x_row in zip(table, xs.ravel()):
        tails = tail_prob(law, weights * x_row)
        dead = tails >= 1.0
        tails[dead] = 0.0  # a vanishing factor: 0 from its shell on
        logs = np.cumsum(np.bincount(shell, weights=np.log1p(-tails) * counts,
                                     minlength=L_max + 1))
        first_dead = shell[dead].min() if dead.any() else L_max + 1
        row[:] = [math.exp(logs[r]) if r < first_dead else 0.0 for r in radii]
    return table.reshape(xs.shape + (len(radii),))


def fit_lower_envelope_constant(law: TailLaw, x_grid, cdf) -> float:
    """Least-squares c1 in log(1 - A(x)) = log(c1) - x**delta over the grid.

    `cdf` holds A at each x of the grid: the exact max CDF of a box, standing
    in for its large-L limit (the product is Cauchy in L once the factors
    approach 1).
    """
    if law.family != "stretched_exp":
        raise ValueError("lower envelope fit applies to stretched_exp laws")
    logs = [math.log(1.0 - a_val) + float(x) ** law.delta
            for x, a_val in zip(x_grid, cdf) if 0.0 < a_val < 1.0]
    if not logs:
        raise ValueError("no usable grid points for the envelope fit")
    return math.exp(float(np.mean(logs)))
