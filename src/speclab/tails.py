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
The inverses are closed-form through the Lambert W function (Corless, Gonnet,
Hare, Jeffrey & Knuth, Adv. Comput. Math. 5, 1996): the lower branch W_{-1}
inverts f for k >= 1 here, and the principal branch W_0 inverts
h_k(x) = x*log(x)**k in :mod:`speclab.scaling`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy  # scipy.special loads on first use, not at import

FAMILIES = ("power_log", "stretched_exp")


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
                    clamp = math.exp(float(_log_f_root(self.p, self.k, 0.0, self.k / self.p)))
        elif self.family == "stretched_exp":
            if not 0.0 < self.delta <= 1.0:
                raise ValueError(f"delta must be in (0, 1], got {self.delta}")
            clamp = 0.0
        else:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "clamp_point", clamp)

    @property
    def f_at_clamp(self) -> float:
        return f_eval(self, self.clamp_point) if self.clamp_point > 0 else 1.0

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


# just above -1/e, the branch point of W_{-1}, where y reaches f(e^(k/p))
_W_BRANCH = float(np.nextafter(-1.0 / math.e, 0.0))


def _log_f_root(p: float, k: int, log_y, s_min: float):
    """s = log(x) >= s_min solving p*s - k*log(s) = log_y, for k >= 1.

    Closed form s = -(k/p) W_{-1}(-(p/k) y**(-1/k)). Next to the branch point
    W_{-1} keeps only half the digits, so the estimate is raised to the series
    (k/p)(1 + sqrt(2*gap/k)), gap = log(y) - log(f(e^(k/p))), which is a lower
    bound on the root, and floored at s_min >= k/p. Three Newton steps on the
    convex, increasing g(s) = p*s - k*log(s) - log_y then polish it.
    """
    r = k / p
    z = np.maximum(-(p / k) * np.exp(-log_y / k), _W_BRANCH)
    s = -r * scipy.special.lambertw(z, -1).real
    gap = np.maximum(log_y - k * (1.0 - math.log(r)), 0.0)
    s = np.maximum(np.maximum(s, r * (1.0 + np.sqrt(2.0 * gap / k))), s_min)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            slope = p - k / s
            step = np.where(slope > 0.0, (p * s - k * np.log(s) - log_y) / slope, 0.0)
            s = np.maximum(s - step, s_min)
    return s


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
    s = _log_f_root(law.p, law.k, np.log(y[above]), math.log(law.clamp_point))
    out[above] = np.maximum(np.exp(s), law.clamp_point)
    return out


def tail_prob(law: TailLaw, x):
    """min(1, 1/f(x)) above the clamp, 1 below it. Scalar or array.

    1/f is formed directly (exp(-x**delta), or x**(-p) * log(x)**k) so huge
    arguments underflow to 0 instead of overflowing f.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(arr < 0):
        raise DomainError("tail_prob requires x >= 0")
    out = np.ones_like(arr)
    mask = arr >= law.clamp_point
    if np.any(mask):
        vals = arr[mask]
        if law.family == "power_log":
            inv = vals ** (-law.p)
            if law.k:
                inv = inv * np.log(vals) ** law.k
        else:
            inv = np.exp(-(vals ** law.delta))
        out[mask] = np.minimum(1.0, inv)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


def sample_omega_array(law: TailLaw, u: np.ndarray) -> np.ndarray:
    """Inverse-transform samples f^{-1}(max(1/u, f(clamp_point))); u in (0, 1]."""
    y = np.maximum(1.0 / np.asarray(u, dtype=np.float64), law.f_at_clamp)
    return _f_inv_array(law, y)
