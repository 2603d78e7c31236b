"""Scalar tail-law references used only by the tests.

The package samples and sums vectorized (`speclab.tails.sample_omega_array`,
`speclab.scaling.tail_sum_stats`); these are the one-value and
sum-only forms the tests compare against, a second inverse of the
log-corrected power law, through the Lambert W function, to check the
package's Newton inverse against, and the compacting form of
`speclab.tails.tail_prob`, which the in-place one must match bit for bit.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.special

from speclab.lattice import BoxSpec
from speclab.scaling import tail_sum_stats
from speclab.tails import DomainError, TailLaw, f_inv, tail_prob


def tail_sum(spec: BoxSpec, law: TailLaw, alpha: float, gamma: float, x: float) -> float:
    """Exact deterministic sum over the box of P(f(V(n))/gamma >= x)."""
    return tail_sum_stats(spec, law, alpha, gamma, x)[0]


def sample_omega(law: TailLaw, u: float) -> float:
    """Inverse-transform sample from one uniform u in (0, 1)."""
    if not 0.0 < u < 1.0:
        raise DomainError(f"u must be in (0, 1), got {u}")
    return f_inv(law, max(1.0 / u, law.f_at_clamp))


def site_tail_prob(law: TailLaw, weight, gamma: float, x: float):
    """P(f(V(n))/gamma >= x) at sites of the given weight(s).

    Equals tail_prob(law, weight * f_inv(gamma * x)); for unit weights this is
    exactly 1/(gamma*x).
    """
    if gamma <= 0 or x <= 0:
        raise DomainError("gamma and x must be positive")
    threshold = f_inv(law, gamma * x)
    return tail_prob(law, np.asarray(weight, dtype=np.float64) * threshold) \
        if not np.isscalar(weight) else tail_prob(law, weight * threshold)


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


def lambert_f_inv(law: TailLaw, y):
    """f^{-1} of y > f(clamp_point) for a power_log law with k >= 1, through
    the Lambert W closed form; never below `clamp_point`."""
    s = _log_f_root(law.p, law.k, np.log(y), math.log(law.clamp_point))
    return np.maximum(np.exp(s), law.clamp_point)


def compacted_tail_prob(law: TailLaw, x):
    """min(1, 1/f(x)) above the clamp, 1 below it, formed on a compacted copy
    of the x at or above the clamp and scattered back into an array of ones."""
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
