import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speclab.lattice import BoxSpec
from speclab.scaling import (
    RegimeError,
    calibration_floor,
    check_regime,
    gamma_calibrated,
    gamma_critical,
    gamma_flat,
    gamma_power,
    h_inv,
    resolve_gamma,
    sphere_surface_area,
    tail_sum_stats,
)
from speclab.tails import DomainError, power_log, stretched_exp
from tails_oracle import site_tail_prob, tail_sum


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


# --- constants -------------------------------------------------------------

def test_sphere_surface_area():
    assert sphere_surface_area(1) == pytest.approx(2.0, rel=1e-14)
    assert sphere_surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_gamma_power_values():
    # d=1, alpha=0.5, p=1: coefficient 2/(1/2) = 4, so 4*sqrt(L)
    assert gamma_power(1, 0.5, 1.0, 0, 10_000) == pytest.approx(400.0, rel=1e-13)
    # d=1, alpha=0: coefficient 2, compare to site count 2L+1
    assert gamma_power(1, 0.0, 2.0, 0, 1000) == pytest.approx(2000.0, rel=1e-13)
    # d=2, alpha=0.5, p=2, k=1: coefficient (2 pi / 1) * (2/1)^1 = 4 pi
    assert gamma_power(2, 0.5, 2.0, 1, 100) == pytest.approx(
        4.0 * math.pi * 100.0, rel=1e-13
    )


def test_regime_rejections():
    with pytest.raises(RegimeError):
        gamma_power(1, 1.0, 1.0, 0, 100)  # alpha*p = d
    with pytest.raises(RegimeError):
        gamma_critical(1, 0.5, 1.0, 0, 100)  # alpha*p < d
    with pytest.raises(RegimeError):
        check_regime("power", 1, power_log(3.0), 0.5)  # alpha*p > d
    with pytest.raises(RegimeError):
        check_regime("flat", 1, power_log(1.0), 0.5)
    with pytest.raises(RegimeError):
        check_regime("critical", 1, stretched_exp(0.5), 1.0)


# --- h and its inverse -----------------------------------------------------

def test_h_identity_for_k0():
    for y in (0.5, math.e, 100.0):
        assert h_inv(0, y) == y
    assert h_eval(0, 7.0) == 7.0


def test_h_eval_k1():
    assert h_eval(1, math.e ** 2) == pytest.approx(2.0 * math.e ** 2, rel=1e-14)


def test_h_inv_roundtrip_k2():
    x = h_inv(2, 1e6)
    assert x * math.log(x) ** 2 == pytest.approx(1e6, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(exponent=st.floats(0.0, 300.0))
def test_h_inv_roundtrip(k, exponent):
    # the W_0 closed form meets the bracketing root-finder's old contract
    y = 10.0 ** exponent
    assert abs(h_eval(k, h_inv(k, y)) - y) <= 1e-12 * y


def test_h_domain():
    with pytest.raises(DomainError):
        h_eval(1, 1.0)
    with pytest.raises(DomainError):
        h_inv(1, -1.0)


def test_gamma_critical_values():
    # d=1, alpha=1, p=1, k=0: coefficient C_0/1 = 2, h_0 identity
    assert gamma_critical(1, 1.0, 1.0, 0, 1000) == pytest.approx(
        2.0 * math.log(1000.0), rel=1e-13
    )
    # d=2, alpha=1, p=2, k=0
    assert gamma_critical(2, 1.0, 2.0, 0, 1000) == pytest.approx(
        2.0 * math.pi * math.log(1000.0), rel=1e-13
    )
    # k=1, d=1, alpha=0.5, p=2: Gamma log Gamma = 2 (log L)^2
    g = gamma_critical(1, 0.5, 2.0, 1, 10_000)
    assert g * math.log(g) == pytest.approx(2.0 * math.log(10_000.0) ** 2, rel=1e-12)


def test_gamma_flat_values():
    assert gamma_flat(BoxSpec(1, 1000)) == 2001.0
    assert gamma_flat(BoxSpec(2, 50)) == 10201.0
    assert gamma_flat(BoxSpec(3, 10)) == 9261.0


# --- deterministic tail sums -----------------------------------------------

def test_tail_sum_flat_exact():
    for law in (power_log(2.0, 0), stretched_exp(0.5)):
        for d, L in ((1, 10), (2, 10)):
            spec = BoxSpec(d, L)
            gamma = gamma_flat(spec)
            for x in (0.5, 1.0, 2.0):
                s = tail_sum(spec, law, 0.0, gamma, x)
                assert abs(s * x - 1.0) <= 1e-12


def test_tail_sum_x_scaling_at_alpha0():
    spec = BoxSpec(2, 8)
    law = power_log(1.0, 0)
    base = tail_sum(spec, law, 0.0, 500.0, 1.0)
    for x in (0.5, 2.0, 4.0):
        assert tail_sum(spec, law, 0.0, 500.0, x) == pytest.approx(base / x, rel=1e-12)


def brute_force_sum(spec, law, alpha, gamma, x):
    from lattice_oracle import enumerate_box, site_weight

    total = 0.0
    for idx in enumerate_box(spec):
        w = site_weight(idx.site, alpha, spec.norm_kind)
        total += site_tail_prob(law, w, gamma, x)
    return total


@pytest.mark.parametrize(
    "d,L,alpha,law",
    [
        (1, 30, 0.5, power_log(1.0, 0)),
        (1, 20, 0.7, power_log(2.0, 1)),
        (2, 6, 0.5, power_log(2.0, 0)),
        (2, 5, 1.0, stretched_exp(0.5)),
        (3, 3, 0.5, power_log(1.0, 0)),
    ],
)
def test_tail_sum_matches_brute_force(d, L, alpha, law):
    spec = BoxSpec(d, L)
    gamma = 50.0
    for x in (0.8, 1.7):
        expected = brute_force_sum(spec, law, alpha, gamma, x)
        assert tail_sum(spec, law, alpha, gamma, x) == pytest.approx(expected, rel=1e-12)


def test_tail_sum_decreasing_in_gamma_and_x():
    spec = BoxSpec(1, 200)
    law = power_log(1.0, 0)
    sums_g = [tail_sum(spec, law, 0.5, g, 1.0) for g in (10.0, 20.0, 40.0, 80.0)]
    assert all(b < a for a, b in zip(sums_g, sums_g[1:]))
    sums_x = [tail_sum(spec, law, 0.5, 40.0, x) for x in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(sums_x, sums_x[1:]))


def test_tail_sum_domain_guard():
    spec = BoxSpec(1, 10)
    law = power_log(1.0, 1)  # f(clamp) = e
    with pytest.raises(DomainError):
        tail_sum(spec, law, 0.0, 1.0, 1.0)


def test_tail_sum_stats_bounds():
    # max_n p_n <= 1/(gamma x) and sum of squares <= max * sum
    spec = BoxSpec(1, 500)
    law = power_log(1.0, 0)
    gamma, x = 30.0, 1.0
    total, max_p, sum_sq = tail_sum_stats(spec, law, 0.5, gamma, x)
    assert max_p <= 1.0 / (gamma * x) + 1e-15
    assert sum_sq <= max_p * total + 1e-15


def test_max_site_prob_vanishes_along_ladder():
    law = power_log(1.0, 0)
    maxima = []
    for L in (100, 1000, 10_000):
        spec = BoxSpec(1, L)
        gamma = gamma_power(1, 0.5, 1.0, 0, L)
        _, max_p, sum_sq = tail_sum_stats(spec, law, 0.5, gamma, 1.0)
        maxima.append((max_p, sum_sq))
    assert all(b[0] < a[0] for a, b in zip(maxima, maxima[1:]))
    assert all(b[1] < a[1] for a, b in zip(maxima, maxima[1:]))


# --- calibrated normalization ----------------------------------------------

def test_gamma_calibrated_flat_closed_form():
    spec = BoxSpec(2, 20)
    assert gamma_calibrated(spec, power_log(2.0, 0), 0.0) == float(spec.site_count)


def test_gamma_calibrated_matches_power_formula_d1():
    L = 100_000
    spec = BoxSpec(1, L)
    g = gamma_calibrated(spec, power_log(1.0, 0), 0.5)
    assert abs(g / (4.0 * math.sqrt(L)) - 1.0) <= 0.01


def test_gamma_calibrated_achieves_target():
    spec = BoxSpec(2, 30)
    law = power_log(2.0, 0)
    for x in (0.5, 2.0):
        g = gamma_calibrated(spec, law, 0.5, target_x=x)
        s = tail_sum(spec, law, 0.5, g, x)
        assert abs(s * x - 1.0) <= 1e-8


def test_resolve_gamma_dispatch():
    spec = BoxSpec(1, 1000)
    law = power_log(2.0, 0)
    plan = resolve_gamma("flat", spec, law, 0.0)
    assert plan.gamma == 2001.0 and plan.mode == "flat"
    plan = resolve_gamma("power", spec, law, 0.25)
    assert plan.gamma == pytest.approx(gamma_power(1, 0.25, 2.0, 0, 1000))
    plan = resolve_gamma("critical", spec, law, 0.5)
    assert plan.gamma == pytest.approx(gamma_critical(1, 0.5, 2.0, 0, 1000))
    plan = resolve_gamma("calibrated", spec, law, 0.0)
    assert plan.gamma == 2001.0


def test_calibration_floor_raises_without_a_bracket():
    spec = BoxSpec(1, 3)
    law = power_log(2.0, 0)
    # the tail sum at the least gamma is 1 + 2*(1/2 + 1/3 + 1/4) = 19/6
    lo = calibration_floor(spec, law, 0.5, target_x=1.0)
    assert lo == pytest.approx(1.0, rel=1e-8)
    assert tail_sum(spec, law, 0.5, lo, 1.0) == pytest.approx(19.0 / 6.0, rel=1e-8)
    assert calibration_floor(spec, law, 0.5, target_x=0.4) == pytest.approx(2.5, rel=1e-8)
    for x in (0.3, 1e-9):
        with pytest.raises(DomainError, match="no bracket"):
            calibration_floor(spec, law, 0.5, target_x=x)
        with pytest.raises(DomainError, match="no bracket"):
            gamma_calibrated(spec, law, 0.5, target_x=x)
