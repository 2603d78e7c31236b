"""Heavy-tail laws for the single-site disorder variable.

A law is described by the function f with survival mu[x, inf) = 1/f(x) on the
upper tail. Two families are supported: power laws with logarithmic
corrections, f(x) = x**p * log(x)**(-k), and stretched exponentials,
f(x) = exp(x**delta). Below the tail region the survival formula is not a
valid distribution for every family, so all sub-tail mass is concentrated in
an atom at `clamp_point`, the smallest point >= max(R, 1) where f reaches 1
and is increasing from there on. Sampling is exact inverse-transform above
the clamp: omega = f^{-1}(max(1/u, f(clamp_point))) for uniform u, which
makes P(omega >= x) = min(1, 1/f(x)) for every x above the clamp.
For k >= 1 the inverse of f has no elementary form; it is the larger root
of p*s - k*log(s) = log(y) in s = log(x), found by three real Newton steps
from a closed-form lower bound (see `_log_f_root`). The principal Lambert W
branch W_0 (Corless, Gonnet, Hare, Jeffrey & Knuth, Adv. Comput. Math. 5,
1996) inverts h_k(x) = x*log(x)**k in :mod:`speclab.scaling`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("power_log", "stretched_exp")

_TINY = float(np.finfo(float).tiny)


class DomainError(ValueError):
    """Argument outside the mathematical domain of the requested operation."""


@dataclass(frozen=True)
class TailLaw:
    """Tail function family with its derived clamp point.

    Construct through :func:`power_log` or :func:`stretched_exp`.
    """

    family: str
    p: float = 0.0
    k: int = 0
    delta: float = 0.0
    clamp_point: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.family == "power_log":
            if not (self.p > 0 and math.isfinite(self.p)):
                raise ValueError(f"p must be finite and > 0, got {self.p}")
            if self.k < 0 or int(self.k) != self.k:
                raise ValueError(f"k must be a nonnegative integer, got {self.k}")
            if self.k == 0:
                clamp = 1.0
            else:
                # f is increasing from R = e^(k/p) on
                clamp = math.exp(self.k / self.p)
                if _f_power_log(clamp, self.p, self.k) < 1.0:
                    clamp = math.exp(float(_log_f_root(self.p, self.k, 0.0)))
        elif self.family == "stretched_exp":
            if not 0.0 < self.delta <= 1.0:
                raise ValueError(f"delta must be in (0, 1], got {self.delta}")
            clamp = 0.0
        else:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "clamp_point", clamp)

    @functools.cached_property
    def f_at_clamp(self) -> float:
        """f(clamp_point), evaluated once per law."""
        return f_eval(self, self.clamp_point) if self.clamp_point > 0 else 1.0

    @property
    def point_floor(self) -> float:
        """Least value that rescales to a point: the clamp point, or the
        least normal float when the clamp point is 0."""
        return max(self.clamp_point, _TINY)

    def to_dict(self) -> dict:
        if self.family == "power_log":
            return {"family": "power_log", "p": self.p, "k": self.k}
        return {"family": "stretched_exp", "delta": self.delta}

    @staticmethod
    def from_dict(d: dict) -> "TailLaw":
        family = d["family"]
        if family == "power_log":
            return power_log(float(d["p"]), int(d.get("k", 0)))
        if family == "stretched_exp":
            return stretched_exp(float(d["delta"]))
        raise ValueError(f"unknown family {family!r}")


def power_log(p: float, k: int = 0) -> TailLaw:
    """Law with f(x) = x**p * log(x)**(-k)."""
    return TailLaw("power_log", p=p, k=k)


def stretched_exp(delta: float) -> TailLaw:
    """Law with f(x) = exp(x**delta)."""
    return TailLaw("stretched_exp", delta=delta)


def _f_power_log(x: float, p: float, k: int) -> float:
    return x ** p * math.log(x) ** (-k) if k else x ** p


def f_eval(law: TailLaw, x):
    """Evaluate f. Scalar in, scalar out; array in, array out."""
    arr = np.asarray(x, dtype=np.float64)
    if law.family == "power_log":
        lower = 1.0 if law.k >= 1 else 0.0
        if np.any(arr <= lower):
            raise DomainError(f"f_eval requires x > {lower} for this law")
        out = arr ** law.p
        if law.k:
            out = out * np.log(arr) ** (-law.k)
    else:
        if np.any(arr < 0):
            raise DomainError("f_eval requires x >= 0 for stretched_exp")
        out = np.exp(arr ** law.delta)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _log_f_root(p: float, k: int, log_y):
    """s = log(x) > k/p solving p*s - k*log(s) = log_y, for k >= 1.

    In t = s/r, r = k/p, the equation is h(t) = t - 1 - log(t) - a = 0, with
    a = (log_y - log(f(e^r)))/k = log_y/k + log(r) - 1 the height of log_y
    above f's minimum; h is convex and increasing on t > 1, and h(1) = -a.
    Newton in t is Newton on g(s) = p*s - k*log(s) - log_y, as g(s) = k*h(s/r).
    - Start: log(t) >= 2(t - 1)/(t + 1) for t >= 1, so h(t) is at most
      (t - 1)**2/(t + 1) - a, whose root t0 = 1 + (a + sqrt(a*(a + 8)))/2 is
      a lower bound on h's. It is within 7 % of the root for every a >= 0:
      it matches the branch-point series 1 + sqrt(2a) as a -> 0, and is off
      by O(log(a)/a) as a -> inf.
    - Steps: from below, the first Newton step on a convex increasing h
      lands right of the root and the next ones fall to it monotonically;
      the worst relative error goes 7e-2, 6e-4, 7e-8, then rounding, so
      three steps suffice.
    - a is floored at 2**-52: next to the branch point that moves log_y by at
      most k*2**-52, and it keeps t - 1 >= 2e-8, so every step is defined.
    """
    a = np.maximum(log_y / k + (math.log(k / p) - 1.0), 2.0 ** -52)
    t = 1.0 + 0.5 * (a + np.sqrt(a * (a + 8.0)))
    for _ in range(3):
        t = t * (np.log(t) + a) / (t - 1.0)
    return (k / p) * t


def f_inv(law: TailLaw, y: float) -> float:
    """Inverse of f on [clamp_point, inf); |f(result) - y| <= 1e-12*y."""
    fc = law.f_at_clamp
    if y < fc * (1.0 - 1e-13):
        raise DomainError(f"y = {y} below f(clamp_point) = {fc}")
    return float(_f_inv_array(law, np.float64(max(y, fc))))


def _f_inv_array(law: TailLaw, y):
    """f^{-1} of y >= f(clamp_point); y <= f(clamp_point) maps to clamp_point."""
    if law.family == "power_log" and law.k == 0:
        return y ** (1.0 / law.p)
    if law.family == "stretched_exp":
        return np.log(y) ** (1.0 / law.delta)
    y = np.asarray(y, dtype=np.float64)
    out = np.full(y.shape, law.clamp_point)
    above = y > law.f_at_clamp
    s = _log_f_root(law.p, law.k, np.log(y[above]))
    out[above] = np.maximum(np.exp(s), law.clamp_point)
    return out


def tail_prob(law: TailLaw, x):
    """min(1, 1/f(x)) above the clamp, 1 below it. Scalar or array.

    1/f is formed directly (exp(-x**delta), or x**(-p) * log(x)**k) so huge
    arguments underflow to 0 instead of overflowing f. It is formed at every
    x, in place in the result (k >= 1 adds one array, the log factor, and a
    mask of the infinities), and the x below the clamp are then set to 1: no
    compacted copies of x. There x**(-p) and log(x)**k can divide by zero or
    overflow, so those warnings are off. At x = inf, k >= 1 forms 0 * inf,
    and the result is set to its limit 0.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(arr < 0):
        raise DomainError("tail_prob requires x >= 0")
    if law.family == "power_log":
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = arr ** (-law.p)
            if law.k:
                logs = np.log(arr)
                logs **= law.k
                out *= logs
                np.copyto(out, 0.0, where=arr == np.inf)
    else:
        out = arr ** law.delta
        np.negative(out, out=out)
        np.exp(out, out=out)
    np.minimum(out, 1.0, out=out)
    np.copyto(out, 1.0, where=~(arr >= law.clamp_point))
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


def sample_omega_array(law: TailLaw, u: np.ndarray) -> np.ndarray:
    """Inverse-transform samples f^{-1}(max(1/u, f(clamp_point))); u in (0, 1]."""
    y = np.maximum(1.0 / np.asarray(u, dtype=np.float64), law.f_at_clamp)
    return _f_inv_array(law, y)
