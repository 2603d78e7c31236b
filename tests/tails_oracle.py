"""Scalar tail-law references used only by the tests.

The package samples and sums vectorized (`speclab.tails.sample_omega_array`,
`speclab.scaling.tail_sum_stats`); these are the one-value and
sum-only forms the tests compare against.
"""
from __future__ import annotations

import numpy as np

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
