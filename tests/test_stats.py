import math

import numpy as np
import pytest
import scipy.stats

from speclab.lattice import BoxSpec
from speclab.stats import (
    count_in_intervals,
    exact_max_cdf,
    exact_max_cdf_ladder,
    fit_lower_envelope_constant,
    interval_intensity,
    ks_distance,
    levy_distance,
    max_law_test,
    max_limit_cdf,
    poisson_gof,
    poisson_joint_gof,
    rescale,
)
from speclab.tails import power_log, stretched_exp

INF = math.inf


# --- rescaling ---------------------------------------------------------------

def test_rescale_identity_law():
    out = rescale(np.array([50.0, 30.0]), power_log(1.0, 0), 100.0, source="V")
    np.testing.assert_allclose(out.points, [0.5, 0.3], rtol=1e-15)
    assert out.dropped_below_threshold == 0
    assert out.source == "V"


def test_rescale_square_law():
    out = rescale(np.array([40.0]), power_log(2.0, 0), 400.0)
    assert out.points[0] == pytest.approx(4.0, rel=1e-15)


def test_rescale_preserves_descending_and_drops_subclamp():
    law = power_log(1.0, 1)  # clamp at e
    eigs = np.array([20.0, 5.0, 2.0, 1.5])  # last two below clamp
    out = rescale(eigs, law, 10.0)
    assert out.dropped_below_threshold == 2
    assert np.all(np.diff(out.points) <= 0)
    assert np.all(out.points > 0)


def test_rescale_empty():
    out = rescale(np.array([0.5]), power_log(1.0, 1), 10.0)
    assert out.points.size == 0
    assert out.top == 0.0


# --- KS and Levy distances ----------------------------------------------------

def test_ks_examples():
    assert ks_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ks_distance([0.0], [1.0]) == 1.0
    assert ks_distance([1.0, 2.0], [1.5]) == 0.5


def test_ks_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal(37)
        b = rng.standard_normal(53) + 0.3
        ours = ks_distance(a, b)
        ref = scipy.stats.ks_2samp(a, b, method="exact").statistic
        assert ours == pytest.approx(ref, abs=1e-12)


def test_levy_identical_zero():
    assert levy_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_levy_point_shift():
    assert levy_distance([0.0], [0.3]) == pytest.approx(0.3, abs=1e-5)


def brute_force_levy(a, b, eps_grid):
    a = np.sort(a)
    b = np.sort(b)
    ts = np.unique(np.concatenate([a, b, a + 1e-9, b + 1e-9, a - 1e-9, b - 1e-9]))

    def F(s, t):
        return np.searchsorted(s, t, side="right") / s.size

    for eps in eps_grid:
        ok = True
        for t in ts:
            fb = F(b, t)
            fa_hi = F(a, t + eps) + eps
            fa_lo = F(a, t - eps) - eps
            if not (fa_lo - 1e-12 <= fb <= fa_hi + 1e-12):
                ok = False
                break
        if ok:
            return eps
    return eps_grid[-1]


def test_levy_against_brute_force_grid():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.standard_normal(12)
        b = rng.standard_normal(9) * 1.4 + 0.2
        ours = levy_distance(a, b, tol=1e-7)
        grid = np.linspace(0, 1.5, 3001)
        ref = brute_force_levy(a, b, grid)
        assert abs(ours - ref) <= 1e-3


def test_levy_below_ks_always():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal(25)
        b = rng.standard_normal(30) + rng.uniform(-1, 1)
        assert levy_distance(a, b) <= ks_distance(a, b) + 1e-12


# --- interval counts -----------------------------------------------------------

def make_points(values):
    return rescale(np.sort(np.asarray(values))[::-1], power_log(1.0, 0), 1.0)


def test_count_examples():
    pts = make_points([3.0, 1.5, 0.2])
    out = count_in_intervals(pts, [(1.0, 2.0), (2.0, INF)])
    np.testing.assert_array_equal(out, [1, 1])


def test_count_empty_points():
    pts = rescale(np.array([0.5]), power_log(1.0, 1), 1.0)  # everything dropped
    out = count_in_intervals(pts, [(1.0, 2.0), (2.0, INF)])
    np.testing.assert_array_equal(out, [0, 0])


def test_count_top_interval_iff_max_reaches():
    pts = make_points([0.9, 0.5])
    assert count_in_intervals(pts, [(1.0, INF)])[0] == 0
    pts2 = make_points([1.1, 0.5])
    assert count_in_intervals(pts2, [(1.0, INF)])[0] == 1


def test_overlapping_intervals_rejected():
    pts = make_points([1.0])
    with pytest.raises(ValueError):
        count_in_intervals(pts, [(1.0, 2.5), (2.0, INF)])
    with pytest.raises(ValueError):
        count_in_intervals(pts, [(0.0, 1.0)])


def test_count_boundaries_half_open():
    pts = make_points([2.0, 1.0])
    out = count_in_intervals(pts, [(1.0, 2.0), (2.0, INF)])
    np.testing.assert_array_equal(out, [1, 1])  # [a, b) convention


# --- Poisson goodness of fit ----------------------------------------------------

def test_interval_intensity():
    assert interval_intensity(1.0, 2.0) == pytest.approx(0.5)
    assert interval_intensity(2.0, INF) == pytest.approx(0.5)
    assert scipy.stats.poisson.pmf(0, 0.5) == pytest.approx(math.exp(-0.5))


def test_gof_requires_enough_trials():
    with pytest.raises(ValueError):
        poisson_gof([0, 1, 2], (1.0, 2.0))


def test_gof_rejects_degenerate_all_zero():
    rep = poisson_gof(np.zeros(1000, dtype=int), (1.0, 2.0))
    assert rep.p_value < 0.001
    assert rep.expected == pytest.approx(0.5)
    assert rep.observed == 0.0


def test_gof_accepts_true_poisson_majority():
    # synthetic counts at the expected mean: accept at the 95% level in at
    # least 90 of 100 meta-repetitions
    rng = np.random.default_rng(99)
    accepted = 0
    for _ in range(100):
        counts = rng.poisson(0.5, size=400)
        rep = poisson_gof(counts, (1.0, 2.0))
        accepted += rep.p_value >= 0.05
    assert accepted >= 90


def test_gof_pools_cells_to_min_expected():
    rng = np.random.default_rng(3)
    counts = rng.poisson(0.5, size=300)
    rep = poisson_gof(counts, (1.0, 2.0))
    n_cells = rep.extra["cells"]
    exp_cells = 300 * scipy.stats.poisson.pmf(np.arange(n_cells - 1), 0.5)
    exp_tail = 300 * scipy.stats.poisson.sf(n_cells - 2, 0.5)
    assert np.all(exp_cells >= 5.0) and exp_tail >= 5.0
    assert rep.extra["dof"] == n_cells - 1


def test_joint_gof_accepts_independent_poissons():
    rng = np.random.default_rng(41)
    accepted = 0
    intervals = [(1.0, 2.0), (2.0, INF)]
    for _ in range(60):
        counts = np.stack([rng.poisson(0.5, 300), rng.poisson(0.5, 300)], axis=1)
        rep = poisson_joint_gof(counts, intervals)
        accepted += rep.p_value >= 0.05
    assert accepted >= 50


def test_joint_gof_rejects_perfectly_correlated_counts():
    rng = np.random.default_rng(42)
    c = rng.poisson(0.5, 500)
    counts = np.stack([c, c], axis=1)  # same count in both intervals
    rep = poisson_joint_gof(counts, [(1.0, 2.0), (2.0, INF)])
    assert rep.p_value < 1e-4


def test_joint_gof_shape_validation():
    with pytest.raises(ValueError):
        poisson_joint_gof(np.zeros((500, 3)), [(1.0, 2.0), (2.0, INF)])
    with pytest.raises(ValueError):
        poisson_joint_gof(np.zeros((10, 2)), [(1.0, 2.0), (2.0, INF)])


def test_weyl_event_inclusions_per_realization():
    # {E1(V) <= x - 2d} subset {E1(H) <= x} subset {E1(V) <= x + 2d}
    from speclab.harness import derive_stream
    from speclab.operators import build_hamiltonian, sample_potential

    d = 1
    for trial in range(20):
        spec = BoxSpec(1, 40, "sup")
        pot = sample_potential(spec, stretched_exp(1.0), 1.0,
                               derive_stream(55, trial, 0))
        H = build_hamiltonian(spec, pot, "full").to_dense()
        e1h = float(np.linalg.eigvalsh(H)[-1])
        e1v = float(np.max(pot.values))
        for x in np.linspace(2.0, 12.0, 21):
            if e1v <= x - 2 * d:
                assert e1h <= x + 1e-12
            if e1h <= x:
                assert e1v <= x + 2 * d + 1e-12


# --- limiting max law ------------------------------------------------------------

def max_limit_sample(u) -> np.ndarray:
    """Inverse transform for the limiting max law: x = -1/log(u)."""
    return -1.0 / np.log(np.asarray(u, dtype=np.float64))


def test_max_limit_cdf_values():
    assert max_limit_cdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert max_limit_cdf(1e9) == pytest.approx(1.0, abs=1e-8)
    assert max_limit_cdf(1e-9) == pytest.approx(0.0, abs=1e-12)


def test_max_law_self_consistency_monte_carlo():
    rng = np.random.default_rng(17)
    n = 10_000
    xs = max_limit_sample(rng.random(n))
    rep = max_law_test(xs)
    assert rep.statistic < 1.36 / math.sqrt(n)
    assert rep.p_value > 0.01


def test_max_law_detects_wrong_distribution():
    rng = np.random.default_rng(21)
    rep = max_law_test(rng.random(2000) + 0.5)
    assert rep.p_value < 1e-6


# --- exact max CDF ----------------------------------------------------------------

def test_exact_max_cdf_flat_power():
    # alpha = 0: identical factors (1 - 1/f(x))^N
    law = power_log(2.0, 0)
    spec = BoxSpec(1, 10)
    x = 5.0
    expected = (1.0 - 1.0 / 25.0) ** 21
    assert exact_max_cdf(spec, law, 0.0, x) == pytest.approx(expected, rel=1e-12)


def test_exact_max_cdf_three_site_product():
    # d=1, L=1, alpha=1, delta=1, sup norm: factors at <n> in {1, 2, 2}
    law = stretched_exp(1.0)
    spec = BoxSpec(1, 1, "sup")
    val = exact_max_cdf(spec, law, 1.0, 2.0)
    expected = (1 - math.exp(-2.0)) * (1 - math.exp(-4.0)) ** 2
    assert val == pytest.approx(expected, rel=1e-12)


def test_exact_max_cdf_zero_below_clamp():
    law = power_log(1.0, 0)  # clamp at 1
    spec = BoxSpec(1, 3)
    assert exact_max_cdf(spec, law, 0.0, 0.5) == 0.0


def test_exact_max_cdf_monotonicity():
    law = stretched_exp(1.0)
    spec = BoxSpec(1, 40, "sup")
    ladder = exact_max_cdf_ladder(spec, law, 1.0, 5.0, [5, 10, 20, 40])
    assert np.all(np.diff(ladder) <= 0)
    xs = [3.0, 4.0, 6.0, 9.0]
    vals = [exact_max_cdf(spec, law, 1.0, x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_exact_max_cdf_ladder_keeps_the_callers_radius_order():
    # alpha = 0: identical factors, so the value at radius L is (1 - e^-x)^(2L+1)
    law = stretched_exp(1.0)
    spec = BoxSpec(1, 50, "sup")
    radii = [50, 25, 40]
    ladder = exact_max_cdf_ladder(spec, law, 0.0, 8.0, radii)
    expected = [(1.0 - math.exp(-8.0)) ** (2 * L + 1) for L in radii]
    np.testing.assert_allclose(ladder, expected, rtol=1e-12)
    ascending = exact_max_cdf_ladder(spec, law, 0.0, 8.0, sorted(radii))
    np.testing.assert_array_equal(ladder, ascending[[2, 0, 1]])


def test_exact_max_cdf_matches_direct_product():
    law = stretched_exp(0.5)
    spec = BoxSpec(2, 3, "sup")
    x = 6.0
    from speclab.lattice import weights_array
    from speclab.tails import tail_prob

    w = weights_array(spec, 0.8)
    direct = float(np.prod(1.0 - tail_prob(law, w * x)))
    assert exact_max_cdf(spec, law, 0.8, x) == pytest.approx(direct, rel=1e-12)


def test_exact_max_cdf_ladder_cauchy_tail():
    # once per-site factors are ~1 the partial products stabilize
    law = stretched_exp(1.0)
    spec = BoxSpec(1, 5000, "sup")
    ladder = exact_max_cdf_ladder(spec, law, 1.0, 8.0, [100, 1000, 5000])
    assert abs(ladder[-1] - ladder[0]) <= 1e-10


# --- envelopes ---------------------------------------------------------------------

def envelope_bounds(
    x: float, d: int, alpha: float, delta: float, c1: float, c2: float
) -> tuple[float, float]:
    """Boundedness envelope for the all-L maximum under a stretched tail.

    Lower: 1 - c1*exp(-x**delta). Upper: exp(-c2 * x**(-d/alpha)
    * exp(-2*D*x**delta)) with D = max(1, 2**(alpha*delta - 1)). The
    constants c1, c2 are caller-supplied; they are fitted or reported, never
    asserted.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    D = max(1.0, 2.0 ** (alpha * delta - 1.0))
    lower = 1.0 - c1 * math.exp(-(x ** delta))
    upper = math.exp(-c2 * x ** (-d / alpha) * math.exp(-2.0 * D * x ** delta))
    return lower, upper


def test_envelope_constant_d():
    lo, up = envelope_bounds(5.0, 1, 0.5, 1.0, c1=1.0, c2=1.0)
    assert lo == pytest.approx(1.0 - math.exp(-5.0), rel=1e-12)
    lo2, _ = envelope_bounds(5.0, 1, 2.0, 1.0, c1=1.0, c2=1.0)
    # alpha*delta = 2 -> D = 2; the upper bound shrinks accordingly
    _, up1 = envelope_bounds(5.0, 1, 1.0, 1.0, c1=1.0, c2=1.0)
    assert up1 > 0.0
    D2_up = math.exp(-1.0 * 5.0 ** (-1.0 / 2.0) * math.exp(-2.0 * 2.0 * 5.0))
    assert envelope_bounds(5.0, 1, 2.0, 1.0, 1.0, 1.0)[1] == pytest.approx(D2_up, rel=1e-12)


def test_envelope_validation():
    with pytest.raises(ValueError):
        envelope_bounds(5.0, 1, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        envelope_bounds(5.0, 1, 1.0, 2.0, 1.0, 1.0)


def test_fit_lower_envelope_recovers_model_constant():
    # at alpha large the box product is dominated by the origin site:
    # 1 - A(x) ~ e^{-x^delta}, so the fitted constant approaches 1
    law = stretched_exp(1.0)
    spec = BoxSpec(1, 200, "sup")
    c1 = fit_lower_envelope_constant(spec, law, 3.0, [8.0, 10.0, 12.0])
    assert c1 == pytest.approx(1.0, rel=0.05)
