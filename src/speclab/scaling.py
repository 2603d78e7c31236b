"""Normalization constants and deterministic tail-probability sums.

The normalization Gamma_L makes the site sum of exceedance probabilities
P(f(V(n))/Gamma_L >= x) converge to 1/x. Closed forms exist for the
power-log family: a pure power of L in the subcritical regime alpha*p < d,
and an inverse of h_k(x) = x*log(x)**k at criticality alpha*p = d. For
alpha = 0 the exact choice is the site count. A calibrated mode solves for
Gamma_L numerically from the exact finite-box sum, which sidesteps the
cube-versus-ball ambiguity of the closed-form constants in d >= 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import lambertw

from .lattice import BoxSpec, DEFAULT_SITE_CAP, iter_weight_chunks
from .tails import DomainError, TailLaw, f_inv, tail_prob

SCALING_MODES = ("power", "critical", "flat", "calibrated")

REGIME_TOL = 1e-12


class RegimeError(ValueError):
    """Scaling mode incompatible with (d, alpha, p)."""


class ConvergenceError(RuntimeError):
    """The calibration bisection failed to bracket or to converge."""


def check_regime(mode: str, d: int, law: TailLaw, alpha: float) -> None:
    """Cheap regime validation, run before any heavy computation."""
    if mode not in SCALING_MODES:
        raise RegimeError(f"mode must be one of {SCALING_MODES}, got {mode!r}")
    if mode == "flat" and alpha != 0.0:
        raise RegimeError("flat mode requires alpha = 0")
    if mode in ("power", "critical"):
        if law.family != "power_log":
            raise RegimeError(f"{mode} mode requires the power_log family")
        ap = alpha * law.p
        if ap > d + REGIME_TOL:
            raise RegimeError(f"alpha*p = {ap} exceeds d = {d}")
        if mode == "power" and ap >= d - REGIME_TOL:
            raise RegimeError(f"power mode requires alpha*p < d (got {ap} vs {d})")
        if mode == "critical" and abs(ap - d) > REGIME_TOL:
            raise RegimeError(f"critical mode requires alpha*p = d (got {ap} vs {d})")


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit sphere in R^d: 2*pi^(d/2)/Gamma(d/2)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def gamma_power(d: int, alpha: float, p: float, k: int, L: int) -> float:
    """Subcritical normalization: coeff * L**(d - alpha*p), alpha*p < d."""
    if alpha * p >= d - REGIME_TOL:
        raise RegimeError(f"power mode requires alpha*p < d (got {alpha * p} vs {d})")
    if L < 2:
        raise ValueError("L must be >= 2")
    coeff = power_mode_coefficient(d, alpha, p, k)
    return coeff * float(L) ** (d - alpha * p)


def power_mode_coefficient(d: int, alpha: float, p: float, k: int) -> float:
    gap = d - alpha * p
    return sphere_surface_area(d) / gap * (d / gap) ** k


def h_eval(k: int, x) -> float:
    """h_k(x) = x * log(x)**k."""
    arr = np.asarray(x, dtype=np.float64)
    if k == 0:
        out = arr
    else:
        if np.any(arr <= 1.0):
            raise DomainError("h_eval requires x > 1 for k >= 1")
        out = arr * np.log(arr) ** k
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def h_inv(k: int, y: float) -> float:
    """Inverse of h_k on x > 1; exact identity for k = 0.

    Closed form log(x) = k W_0(y**(1/k)/k), polished by two Newton steps on
    the concave, increasing g(s) = s + k*log(s) - log(y).
    """
    if y <= 0:
        raise DomainError("h_inv requires y > 0")
    if k == 0:
        return y
    log_y = math.log(y)
    s = k * float(lambertw(math.exp(log_y / k) / k).real)
    for _ in range(2):
        s -= (s + k * math.log(s) - log_y) / (1.0 + k / s)
    return math.exp(s)


def critical_mode_coefficient(d: int, p: float, k: int) -> float:
    return sphere_surface_area(d) / (k + 1) * p ** k


def gamma_critical(d: int, alpha: float, p: float, k: int, L: int) -> float:
    """Critical normalization h_k^{-1}(coeff * log(L)**(k+1)), alpha*p = d."""
    if abs(alpha * p - d) > REGIME_TOL:
        raise RegimeError(f"critical mode requires alpha*p = d (got {alpha * p} vs {d})")
    if L < 3:
        raise ValueError("L must be >= 3")
    coeff = critical_mode_coefficient(d, p, k)
    return h_inv(k, coeff * math.log(L) ** (k + 1))


def gamma_flat(spec: BoxSpec) -> float:
    """Exact alpha = 0 normalization: the site count."""
    return float(spec.site_count)


def _pairwise_sum(parts: list[float]) -> float:
    """Combine partial sums in a fixed binary tree order."""
    if not parts:
        return 0.0
    while len(parts) > 1:
        parts = [
            parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i]
            for i in range(0, len(parts), 2)
        ]
    return parts[0]


def _weight_chunks(spec: BoxSpec, alpha: float, chunk: int, site_cap: int) -> list[np.ndarray]:
    if spec.dimension == 1:
        # +/-n symmetry: weights for n = 1..L each count twice, n = 0 once
        L = spec.radius
        out = []
        for start in range(1, L + 1, chunk):
            n = np.arange(start, min(start + chunk, L + 1), dtype=np.float64)
            out.append((1.0 + n) ** alpha)
        return out
    return list(iter_weight_chunks(spec, alpha, chunk=chunk, site_cap=site_cap))


def _sum_over_chunks(
    law: TailLaw,
    threshold: float,
    spec: BoxSpec,
    chunks: list[np.ndarray],
    with_stats: bool,
) -> tuple[float, float, float]:
    parts, parts_sq = [], []
    max_p = 0.0
    for w in chunks:
        probs = tail_prob(law, w * threshold)
        parts.append(float(np.sum(probs)))
        if with_stats:
            parts_sq.append(float(np.sum(probs * probs)))
            max_p = max(max_p, float(np.max(probs)))
    total = _pairwise_sum(parts)
    total_sq = _pairwise_sum(parts_sq) if with_stats else 0.0
    if spec.dimension == 1:
        center = float(tail_prob(law, threshold))
        total = center + 2.0 * total
        if with_stats:
            total_sq = center * center + 2.0 * total_sq
            max_p = max(max_p, center)
    return total, max_p, total_sq


def tail_sum_stats(
    spec: BoxSpec,
    law: TailLaw,
    alpha: float,
    gamma: float,
    x: float,
    chunk: int = 1 << 18,
    site_cap: int = DEFAULT_SITE_CAP,
) -> tuple[float, float, float]:
    """(sum of p_n, max p_n, sum of p_n**2) over the box, exactly."""
    if gamma * x < law.f_at_clamp * (1.0 - 1e-13):
        raise DomainError("gamma * x below f(clamp_point)")
    threshold = f_inv(law, gamma * x)
    chunks = _weight_chunks(spec, alpha, chunk, site_cap)
    return _sum_over_chunks(law, threshold, spec, chunks, with_stats=True)


def _calibration_sum(law: TailLaw, spec: BoxSpec, chunks: list[np.ndarray],
                     gamma: float, target_x: float) -> float:
    threshold = f_inv(law, gamma * target_x)
    return _sum_over_chunks(law, threshold, spec, chunks, with_stats=False)[0]


def _checked_floor(law: TailLaw, spec: BoxSpec, chunks: list[np.ndarray],
                   target_x: float) -> float:
    """`calibration_floor` over weight chunks the caller already holds."""
    lo = law.f_at_clamp / target_x * (1.0 + 1e-9)
    s_lo = _calibration_sum(law, spec, chunks, lo, target_x)
    if s_lo < 1.0 / target_x:
        raise DomainError(
            f"no bracket: tail sum at minimal gamma is {s_lo} < 1/x = {1.0 / target_x}"
        )
    return lo


def calibration_floor(spec: BoxSpec, law: TailLaw, alpha: float, target_x: float) -> float:
    """Least gamma the calibration searches from, just above f(clamp)/target_x.

    The tail sum decreases in gamma, so when it is already below 1/target_x
    there, no gamma reaches the target: raises DomainError. Costs one exact
    tail sum, cheap enough to run when a config is validated.
    """
    return _checked_floor(law, spec, _weight_chunks(spec, alpha, 1 << 18, DEFAULT_SITE_CAP),
                          target_x)


def gamma_calibrated(
    spec: BoxSpec,
    law: TailLaw,
    alpha: float,
    target_x: float = 1.0,
    rtol: float = 1e-9,
    max_iter: int = 200,
    chunk: int = 1 << 18,
    site_cap: int = DEFAULT_SITE_CAP,
) -> float:
    """Gamma making the exact finite-box tail sum equal 1/target_x.

    Monotone bisection on gamma from `calibration_floor`; for alpha = 0 the
    answer is the site count and is returned in closed form.
    """
    if alpha == 0.0:
        return gamma_flat(spec)
    target = 1.0 / target_x
    chunks = _weight_chunks(spec, alpha, chunk, site_cap)
    lo = _checked_floor(law, spec, chunks, target_x)

    def sum_at(gamma: float) -> float:
        return _calibration_sum(law, spec, chunks, gamma, target_x)

    hi = max(2.0 * lo, 1.0)
    for _ in range(max_iter):
        if sum_at(hi) < target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("could not bracket gamma from above")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        s = sum_at(mid)
        if abs(s - target) <= rtol * target:
            return mid
        if s > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * hi:
            return 0.5 * (lo + hi)
    raise ConvergenceError("gamma bisection did not converge")


@dataclass(frozen=True)
class ScalingPlan:
    """Resolved normalization for one box, with the constants that built it."""

    mode: str
    gamma: float
    constants: dict = field(default_factory=dict)


def resolve_gamma(
    mode: str,
    spec: BoxSpec,
    law: TailLaw,
    alpha: float,
    target_x: float = 1.0,
    site_cap: int = DEFAULT_SITE_CAP,
) -> ScalingPlan:
    """Dispatch to the normalization for `mode`, validating the regime."""
    check_regime(mode, spec.dimension, law, alpha)
    d, L = spec.dimension, spec.radius
    if mode == "flat":
        return ScalingPlan("flat", gamma_flat(spec), {"site_count": spec.site_count})
    if mode == "calibrated":
        gamma = gamma_calibrated(spec, law, alpha, target_x, site_cap=site_cap)
        return ScalingPlan("calibrated", gamma, {"target_x": target_x})
    p, k = law.p, law.k
    if mode == "power":
        coeff = power_mode_coefficient(d, alpha, p, k)
        return ScalingPlan(
            "power", gamma_power(d, alpha, p, k, L),
            {"coefficient": coeff, "exponent": d - alpha * p},
        )
    coeff = critical_mode_coefficient(d, p, k)
    return ScalingPlan(
        "critical", gamma_critical(d, alpha, p, k, L), {"coefficient": coeff}
    )
