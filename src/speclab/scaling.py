"""Normalization constants and deterministic tail-probability sums.

The normalization Gamma_L makes the site sum of exceedance probabilities
P(f(V(n))/Gamma_L >= x) converge to 1/x. Closed forms exist for the
power-log family: a pure power of L in the subcritical regime alpha*p < d,
and an inverse of h_k(x) = x*log(x)**k at criticality alpha*p = d. For
alpha = 0 the exact choice is the site count. A calibrated mode solves for
Gamma_L numerically from the exact finite-box sum, which sidesteps the
cube-versus-ball ambiguity of the closed-form constants in d >= 2.

Every exact tail sum (`tail_sum_stats`, `calibration_floor` and each step of
the calibration bisection) reduces the site weights yielded by
`lattice.walk_box`, `lattice.WALK_CHUNK` sites per chunk, with the chunk sums
combined pairwise in a fixed order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy  # scipy.special loads on first use, not at import

from .lattice import BoxSpec, walk_box
from .tails import DomainError, TailLaw, f_inv, tail_prob

SCALING_MODES = ("power", "critical", "flat", "calibrated")

REGIME_TOL = 1e-12

# gamma_calibrated stops when the tail sum is this close to 1/x, relatively
CALIBRATION_RTOL = 1e-9
CALIBRATION_MAX_ITER = 200


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
    s = k * float(scipy.special.lambertw(math.exp(log_y / k) / k).real)
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


def _tail_sums(law: TailLaw, weights: Iterable[np.ndarray], gamma: float,
               x: float) -> tuple[float, float, float]:
    """(sum of p_n, max p_n, sum of p_n**2) over chunks of site weights.

    p_n = P(f(V(n))/gamma >= x); chunk sums are combined pairwise.
    """
    threshold = f_inv(law, gamma * x)
    parts, parts_sq = [], []
    max_p = 0.0
    for w in weights:
        probs = tail_prob(law, w * threshold)
        parts.append(float(np.sum(probs)))
        parts_sq.append(float(np.sum(probs * probs)))
        max_p = max(max_p, float(np.max(probs)))
    return _pairwise_sum(parts), max_p, _pairwise_sum(parts_sq)


def tail_sum_stats(
    spec: BoxSpec, law: TailLaw, alpha: float, gamma: float, x: float
) -> tuple[float, float, float]:
    """(sum of p_n, max p_n, sum of p_n**2) over the box, exactly."""
    if gamma * x < law.f_at_clamp * (1.0 - 1e-13):
        raise DomainError("gamma * x below f(clamp_point)")
    return _tail_sums(law, (w for _, w in walk_box(spec, alpha)), gamma, x)


def _checked_floor(law: TailLaw, weights: Iterable[np.ndarray], target_x: float) -> float:
    """`calibration_floor` over the box's weight chunks."""
    lo = law.f_at_clamp / target_x * (1.0 + 1e-9)
    s_lo = _tail_sums(law, weights, lo, target_x)[0]
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
    return _checked_floor(law, (w for _, w in walk_box(spec, alpha)), target_x)


def gamma_calibrated(
    spec: BoxSpec, law: TailLaw, alpha: float, target_x: float = 1.0
) -> float:
    """Gamma making the exact finite-box tail sum equal 1/target_x.

    Monotone bisection on gamma from `calibration_floor`, to relative
    tolerance CALIBRATION_RTOL on the sum; for alpha = 0 the answer is the
    site count and is returned in closed form.
    """
    if alpha == 0.0:
        return gamma_flat(spec)
    target = 1.0 / target_x
    # the bisection walks the box once and sums over the held chunks
    weights = [w for _, w in walk_box(spec, alpha)]
    lo = _checked_floor(law, weights, target_x)

    def sum_at(gamma: float) -> float:
        return _tail_sums(law, weights, gamma, target_x)[0]

    hi = max(2.0 * lo, 1.0)
    for _ in range(CALIBRATION_MAX_ITER):
        if sum_at(hi) < target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("could not bracket gamma from above")
    for _ in range(CALIBRATION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        s = sum_at(mid)
        if abs(s - target) <= CALIBRATION_RTOL * target:
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
) -> ScalingPlan:
    """Dispatch to the normalization for `mode`, validating the regime."""
    check_regime(mode, spec.dimension, law, alpha)
    d, L = spec.dimension, spec.radius
    if mode == "flat":
        return ScalingPlan("flat", gamma_flat(spec), {"site_count": spec.site_count})
    if mode == "calibrated":
        gamma = gamma_calibrated(spec, law, alpha, target_x)
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
