"""Normalization constants and deterministic tail-probability sums.

The normalization Gamma_L makes the site sum of exceedance probabilities
P(f(V(n))/Gamma_L >= x) converge to 1/x. Closed forms exist for the
power-log family: a pure power of L in the subcritical regime alpha*p < d,
and an inverse of h_k(x) = x*log(x)**k at criticality alpha*p = d. For
alpha = 0 the exact choice is the site count. A calibrated mode solves for
Gamma_L numerically from the exact finite-box sum at x = 1, which sidesteps the
cube-versus-ball ambiguity of the closed-form constants in d >= 2.

Every exact tail sum (`tail_sum_stats`, `count_level`, `calibration_floor`
and each step of the calibration bisection) is a dot product of the tail
probabilities at the box's orbit weights with the orbits' site counts, both
from `lattice.orbit_table`.
"""
from __future__ import annotations

import math

import numpy as np
import scipy  # scipy.special loads on first use, not at import

from .lattice import BoxSpec, orbit_table, orbit_weights
from .tails import DomainError, TailLaw, f_inv, tail_prob

SCALING_MODES = ("power", "critical", "flat", "calibrated")

REGIME_TOL = 1e-12

# gamma_calibrated stops when the tail sum is this close to 1, relatively
CALIBRATION_RTOL = 1e-9
CALIBRATION_MAX_ITER = 200
COUNT_LEVEL_MAX_STEPS = 64


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


def _tail_sums(law: TailLaw, weights: np.ndarray, counts: np.ndarray, gamma: float,
               x: float) -> tuple[float, float, float]:
    """(sum of p_n, max p_n, sum of p_n**2) over a box's orbits, given each
    orbit's weight and site count (`lattice.orbit_table`).

    p_n = P(f(V(n))/gamma >= x), the same at every site of an orbit.
    """
    probs = tail_prob(law, weights * f_inv(law, gamma * x))
    return float(probs @ counts), float(probs.max()), float((probs * probs) @ counts)


def tail_sum_stats(
    spec: BoxSpec, law: TailLaw, alpha: float, gamma: float, x: float
) -> tuple[float, float, float]:
    """(sum of p_n, max p_n, sum of p_n**2) over the box, exactly."""
    if gamma * x < law.f_at_clamp * (1.0 - 1e-13):
        raise DomainError("gamma * x below f(clamp_point)")
    return _tail_sums(law, orbit_weights(spec, alpha), orbit_table(spec)[1], gamma, x)


def count_level(spec: BoxSpec, law: TailLaw, alpha: float, gamma: float,
                count: float, x_max: float = math.inf) -> float | None:
    """A level x <= x_max at which the box's expected number of rescaled
    points, the exact tail sum of P(f(V(n))/gamma >= x), is at least
    `count`, and at most twice `count` unless x = x_max.

    Starts where the limit law's 1/x equals `count`, moves x by the ratio of
    the sum to `count` until it brackets the count, then bisects log x.
    None when the box has fewer sites than `count`, or x*gamma would fall
    below f(clamp_point) before the sum reaches `count`.
    """
    if count > spec.site_count:
        return None
    weights, counts = orbit_weights(spec, alpha), orbit_table(spec)[1]
    x, lo, hi = min(x_max, 1.0 / count), None, None
    for _ in range(COUNT_LEVEL_MAX_STEPS):
        if x * gamma < law.f_at_clamp:
            return lo
        total = _tail_sums(law, weights, counts, gamma, x)[0]
        if total >= count:
            lo = x
            if total <= 2.0 * count or x >= x_max:
                return x
        else:
            hi = x
        if lo is not None and hi is not None:
            x = math.sqrt(lo * hi)
        elif lo is None:
            x *= 0.999 * total / count if total > 0.0 else 0.5
        else:
            x = min(x_max, x * total / count)
    return lo


def calibration_floor(spec: BoxSpec, law: TailLaw, alpha: float) -> float:
    """Least gamma the calibration searches from, just above f(clamp).

    The tail sum decreases in gamma, so when it is already below 1 there, no
    gamma reaches it: raises DomainError. Costs one exact tail sum over the
    box's orbit table, cheap enough to run when a config is validated.
    """
    lo = law.f_at_clamp * (1.0 + 1e-9)
    s_lo = tail_sum_stats(spec, law, alpha, lo, 1.0)[0]
    if s_lo < 1.0:
        raise DomainError(f"no bracket: tail sum at minimal gamma is {s_lo} < 1")
    return lo


def gamma_calibrated(spec: BoxSpec, law: TailLaw, alpha: float) -> float:
    """Gamma making the exact finite-box tail sum at x = 1 equal 1.

    Monotone bisection on gamma from `calibration_floor`, to relative
    tolerance CALIBRATION_RTOL on the sum; for alpha = 0 the answer is the
    site count and is returned in closed form.
    """
    if alpha == 0.0:
        return gamma_flat(spec)
    lo = calibration_floor(spec, law, alpha)
    weights, counts = orbit_weights(spec, alpha), orbit_table(spec)[1]

    def sum_at(gamma: float) -> float:
        return _tail_sums(law, weights, counts, gamma, 1.0)[0]

    hi = max(2.0 * lo, 1.0)
    for _ in range(CALIBRATION_MAX_ITER):
        if sum_at(hi) < 1.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("could not bracket gamma from above")
    for _ in range(CALIBRATION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        s = sum_at(mid)
        if abs(s - 1.0) <= CALIBRATION_RTOL:
            return mid
        if s > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * hi:
            return 0.5 * (lo + hi)
    raise ConvergenceError("gamma bisection did not converge")


def resolve_gamma(mode: str, spec: BoxSpec, law: TailLaw, alpha: float) -> float:
    """Gamma_L of the box under `mode`, validating the regime first."""
    check_regime(mode, spec.dimension, law, alpha)
    if mode == "flat":
        return gamma_flat(spec)
    if mode == "calibrated":
        return gamma_calibrated(spec, law, alpha)
    gamma = gamma_power if mode == "power" else gamma_critical
    return gamma(spec.dimension, alpha, law.p, law.k, spec.radius)
