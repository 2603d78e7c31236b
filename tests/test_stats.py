import math
from unittest import mock

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from speclab import stats
from speclab.lattice import BoxSpec
from speclab.operators import free_laplacian_eigs
from speclab.stats import (
    SpectrumCounts,
    count_in_intervals,
    exact_max_cdf,
    exact_max_cdf_ladder,
    fit_lower_envelope_constant,
    interval_intensity,
    ks_distance,
    kstwo_sf,
    levy_distance,
    max_law_test,
    max_limit_cdf,
    poisson_gof,
    poisson_joint_gof,
    rescale,
    sorted_counter,
)
from speclab.tails import DomainError, power_log, stretched_exp

import stats_oracle

INF = math.inf


# --- rescaling ---------------------------------------------------------------

def test_rescale_identity_law():
    out = rescale(np.array([50.0, 30.0]), power_log(1.0, 0), 100.0)
    np.testing.assert_allclose(out.points, [0.5, 0.3], rtol=1e-15)


def test_rescale_square_law():
    out = rescale(np.array([40.0]), power_log(2.0, 0), 400.0)
    assert out.points[0] == pytest.approx(4.0, rel=1e-15)


def test_rescale_preserves_descending_and_drops_subclamp():
    law = power_log(1.0, 1)  # clamp at e
    eigs = np.array([20.0, 5.0, 2.0, 1.5])  # last two below clamp
    out = rescale(eigs, law, 10.0)
    assert out.points.size == 2
    assert np.all(np.diff(out.points) <= 0)
    assert np.all(out.points > 0)


def test_rescale_empty():
    out = rescale(np.array([0.5]), power_log(1.0, 1), 10.0)
    assert out.points.size == 0
    assert out.top == 0.0


# --- KS and Levy distances ----------------------------------------------------

def counts_of(sample):
    """The counts of an explicit sample, as the d >= 2 runs take them."""
    return SpectrumCounts(sorted_counter(sample), len(sample))


def test_ks_examples():
    assert ks_distance(counts_of([1.0, 2.0]), [1.0, 2.0]) == 0.0
    assert ks_distance(counts_of([0.0]), [1.0]) == 1.0
    assert ks_distance(counts_of([1.0, 2.0]), [1.5]) == 0.5


def test_ks_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal(37)
        b = rng.standard_normal(53) + 0.3
        ours = ks_distance(counts_of(a), b)
        ref = scipy.stats.ks_2samp(a, b, method="exact").statistic
        assert ours == pytest.approx(ref, abs=1e-12)


def test_levy_identical_zero():
    assert levy_distance(counts_of([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]) == 0.0


def test_levy_point_shift():
    assert levy_distance(counts_of([0.0]), [0.3]) == pytest.approx(0.3, abs=1e-5)


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
        ours = levy_distance(counts_of(a), b, tol=1e-7)
        grid = np.linspace(0, 1.5, 3001)
        ref = brute_force_levy(a, b, grid)
        assert abs(ours - ref) <= 1e-3


def test_levy_below_ks_always():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal(25)
        b = rng.standard_normal(30) + rng.uniform(-1, 1)
        assert levy_distance(counts_of(a), b) <= ks_distance(counts_of(a), b) + 1e-12



# quarter-integers tie inside each sample and between the two
VALUES = st.integers(-8, 8).map(lambda k: k / 4) | st.floats(-3.0, 3.0)
SAMPLES = st.lists(VALUES, min_size=1, max_size=40)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=SAMPLES, b=SAMPLES, window=st.none() | st.tuples(VALUES, VALUES),
       batch=st.sampled_from([1, 2, 5, stats.COUNT_BATCH]),
       lookahead=st.sampled_from([1, 3, stats.LEVY_LOOKAHEAD]))
def test_distances_from_counts_equal_the_sample_oracles(a, b, window, batch, lookahead):
    # small batches make the KS refine and the Levy bisection count
    # from brackets, as large spectra do
    counts = counts_of(a)
    if window is not None:
        lo, hi = sorted(window)
        a = [v for v in a if lo <= v <= hi]
        counts = counts.window(lo, hi)
    with mock.patch.object(stats, "COUNT_BATCH", batch), \
            mock.patch.object(stats, "LEVY_LOOKAHEAD", lookahead):
        if not a:
            with pytest.raises(ValueError, match="nonempty"):
                ks_distance(counts, b)
            return
        assert ks_distance(counts, b) == stats_oracle.ks_distance(a, b)
        assert levy_distance(counts, b) == stats_oracle.levy_distance(a, b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distances_from_counts_on_spectrum_sized_samples(seed):
    # a d = 2 free spectrum, with its multiplicities, against a wider sample
    # with outliers; the bulk is a window of the same counts
    rng = np.random.default_rng(seed)
    free = free_laplacian_eigs(2, 20)
    a = np.concatenate([rng.uniform(-4.0, 4.0, 1500) * rng.uniform(0.9, 1.0),
                        rng.uniform(4.0, 50.0, 40)])
    passes = []
    counter = sorted_counter(a)
    whole = SpectrumCounts(lambda x: passes.append(x.size) or counter(x), a.size)
    bulk = whole.window(-4.0, 4.0)
    a_bulk = a[(a >= -4.0) & (a <= 4.0)]
    assert ks_distance(bulk, free) == stats_oracle.ks_distance(a_bulk, free)
    assert levy_distance(bulk, free) == stats_oracle.levy_distance(a_bulk, free)
    assert ks_distance(whole, free) == stats_oracle.ks_distance(a, free)
    assert whole.size - bulk.size == a.size - a_bulk.size
    # every count is kept: asking again makes no pass
    made = len(passes)
    ks_distance(bulk, free)
    levy_distance(bulk, free)
    assert len(passes) == made


def test_a_window_counts_its_edges_once():
    # the first request counts the edges with its points in one pass; after
    # it, size, bracket and later requests never ask the whole for them
    a = np.arange(10.0)
    passes, asked = [], []
    counter = sorted_counter(a)
    whole = SpectrumCounts(lambda x: passes.append(x.tolist()) or counter(x), a.size)
    bulk = whole.window(2.0, 6.5)
    edges = [np.nextafter(2.0, -np.inf), 6.5]
    call = SpectrumCounts.__call__

    def spy(self, x):
        asked.append(np.asarray(x, dtype=np.float64).tolist())
        return call(self, x)

    with mock.patch.object(SpectrumCounts, "__call__", spy):
        np.testing.assert_array_equal(bulk(np.array([3.0, 5.0])), [2, 4])
        assert passes == [sorted([3.0, 5.0] + edges)]
        assert bulk.size == 5
        assert [c.tolist() for c in bulk.bracket(np.array([4.0, 9.0]))] == [[2, 5], [4, 5]]
        np.testing.assert_array_equal(bulk(np.array([4.0])), [3])
    assert passes[1:] == [[4.0]]
    assert not any(e in x for x in asked[1:] for e in edges)


@pytest.mark.parametrize("batch", [4, 16, 64])
def test_levy_counts_at_most_count_batch_points_per_pass(batch):
    # a level with more undecided points than one pass holds counts them in
    # even subsets; every decision stays exact, so the value is the oracle's
    rng = np.random.default_rng(batch)
    free = free_laplacian_eigs(1, 300)
    a = np.concatenate([rng.uniform(-2.0, 2.0, 600) * 0.97, rng.uniform(2.0, 9.0, 20)])
    passes = []
    counter = sorted_counter(a)
    with mock.patch.object(stats, "COUNT_BATCH", batch):
        whole = SpectrumCounts(lambda x: passes.append(x.size) or counter(x), a.size)
        ks_made = (ks_distance(whole, free), len(passes))[1]
        assert levy_distance(whole, free) == stats_oracle.levy_distance(a, free)
    assert len(passes) > ks_made
    assert max(passes) <= batch


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


@st.composite
def trial_counts(draw, n_intervals: int):
    """Per-trial interval counts, one row per trial and at least 100 rows:
    Poisson draws at a drawn mean, or arbitrary small counts that no Poisson
    law fits."""
    n = draw(st.integers(100, 400))
    if draw(st.booleans()):
        mean = draw(st.floats(0.05, 4.0))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        counts = rng.poisson(mean, size=(n, n_intervals))
    else:
        cells = st.lists(st.integers(0, 6), min_size=n_intervals, max_size=n_intervals)
        counts = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
    return counts


@st.composite
def disjoint_intervals(draw, k: int):
    edges = sorted(draw(st.lists(st.floats(0.2, 8.0), min_size=k + 1, max_size=k + 1,
                                 unique=True)))
    if draw(st.booleans()):
        edges[-1] = INF
    return [(edges[i], edges[i + 1]) for i in range(k)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), min_expected=st.sampled_from([5.0, 1.0, 20.0]))
def test_gof_reports_equal_the_scipy_stats_versions(data, min_expected):
    # the Poisson pmf and both tails from scipy.special are the formulas
    # scipy.stats evaluates: every float of both reports is the same
    k = data.draw(st.integers(1, 3))
    intervals = data.draw(disjoint_intervals(k))
    counts = data.draw(trial_counts(k))
    for i in range(k):
        assert (poisson_gof(counts[:, i], intervals[i], min_expected)
                == stats_oracle.poisson_gof(counts[:, i], intervals[i], min_expected))
    assert (poisson_joint_gof(counts, intervals, min_expected)
            == stats_oracle.poisson_joint_gof(counts, intervals, min_expected))


def test_weyl_event_inclusions_per_realization():
    # {E1(V) <= x - 2d} subset {E1(H) <= x} subset {E1(V) <= x + 2d}
    from speclab.harness import derive_stream
    from speclab.operators import build_hamiltonian, sample_potential

    d = 1
    for trial in range(20):
        spec = BoxSpec(1, 40, "sup")
        pot = sample_potential(spec, stretched_exp(1.0), 1.0,
                               derive_stream(55, trial, 0))
        H = build_hamiltonian(spec, pot).to_dense()
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


def test_max_law_p_value_is_the_kstwo_tail():
    rng = np.random.default_rng(23)
    rep = max_law_test(max_limit_sample(rng.random(300)))
    assert rep.p_value == kstwo_sf(rep.statistic, 300)


# --- KS tail ------------------------------------------------------------------

KS_NS = (1, 2, 5, 100, 140, 141, 500, 2000)


def ks_regime_grid(n: int) -> list[float]:
    """d in every regime of `kstwo_sf` at n: n d <= 1/2, n d <= 1, the
    Durbin matrix, both sides of the 2 smirnov switch at n d^2 = 4, d >= 1/2,
    n d >= n - 1 and d >= 1."""
    switch = math.sqrt(stats._SMIRNOV_FROM / n)
    grid = [0.3 / n, 0.5 / n, 0.5 / n + 1e-9 / n, 0.75 / n, 1.0 / n,
            math.sqrt(0.3 / n), math.sqrt(1.0 / n), math.sqrt(2.0 / n),
            switch * 0.99, float(np.nextafter(switch, 0.0)), switch, switch * 1.01,
            math.sqrt(7.0 / n), float(np.nextafter(0.5, 0.0)), 0.5, 0.75,
            1.0 - 1.0 / n, 1.0 - 0.25 / n, 1.0, 1.5]
    return sorted({d for d in grid if d > 0})


def ks_oracle(d: float, n: int):
    """The 50-digit Durbin tail, or twice the 50-digit one-sided tail. That
    is exact for d >= 1/2 and bounds the tail above for any d; below 1/2 it
    stands in only past m = 300, where the bound is below 1e-30."""
    if 0.5 <= d < 1.0 or n * d > 150:
        bound = 2 * stats_oracle.smirnov_mp(d, n)
        assert d >= 0.5 or bound < 1e-30
        return bound
    return stats_oracle.kstwo_sf_mp(d, n)


def test_ks_oracle_matches_a_plain_mpmath_matrix_power():
    for n, d in ((5, 0.3), (5, 0.45), (40, 0.31), (100, 0.13), (141, 0.16), (2, 0.3)):
        exact = stats_oracle.kstwo_sf_mp_matrix(d, n, dps=70)
        assert abs(stats_oracle.kstwo_sf_mp(d, n) - exact) <= 1e-50 * exact


@pytest.mark.parametrize("n", KS_NS)
def test_kstwo_sf_matches_the_durbin_oracle(n):
    for d in ks_regime_grid(n):
        p = kstwo_sf(d, n)
        exact = ks_oracle(d, n)
        assert 0.0 <= p <= 1.0
        assert abs(p - exact) <= 1e-12, (d, p, exact)
        if exact >= 1e-6:
            assert abs(p - exact) <= 1e-9 * exact, (d, p, exact)


@pytest.mark.parametrize("n", KS_NS)
def test_kstwo_sf_is_a_nonincreasing_probability(n):
    switch = math.sqrt(stats._SMIRNOV_FROM / n)
    d = np.unique(np.concatenate([np.linspace(0.0, 1.2, 601), np.geomspace(0.1 / n, 1.0, 400),
                                  switch * (1.0 + np.array([-1e-6, 0.0, 1e-6]))]))
    p = np.array([kstwo_sf(x, n) for x in d])
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.all(np.diff(p) <= 0.0)
    assert p[0] == 1.0 and p[-1] == 0.0


@pytest.mark.parametrize("n", [1, 2, 5, 17, 100, 140])
def test_kstwo_sf_matches_scipy_where_scipy_is_exact(n):
    # SciPy's kstwo is exact up to n = 140 (asymptotic above)
    for d in np.concatenate([np.linspace(0.0, 1.1, 221), ks_regime_grid(n)]):
        assert kstwo_sf(d, n) == pytest.approx(scipy.stats.kstwo.sf(d, n), rel=1e-10, abs=0.0)


def test_kstwo_sf_at_ten_thousand_draws_meets_the_smirnov_tail():
    # the largest Durbin matrix at n = 10^4, 399 x 399, just below the switch
    d = float(np.nextafter(math.sqrt(stats._SMIRNOV_FROM / 10_000), 0.0))
    assert kstwo_sf(d, 10_000) == pytest.approx(2 * scipy.special.smirnov(10_000, d), rel=1e-9)


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


@pytest.mark.parametrize("radii", [[50], [0], [0, 5]])
def test_exact_max_cdf_ladder_rejects_radii_outside_the_box(radii):
    with pytest.raises(ValueError, match=r"^radii must lie in \[1, 10\]"):
        exact_max_cdf_ladder(BoxSpec(1, 10, "sup"), stretched_exp(1.0), 0.0, 8.0, radii)


def test_exact_max_cdf_ladder_accepts_radii_up_to_the_box():
    ladder = exact_max_cdf_ladder(BoxSpec(1, 10, "sup"), stretched_exp(1.0), 0.0, 8.0, [1, 10])
    expected = [(1.0 - math.exp(-8.0)) ** (2 * L + 1) for L in (1, 10)]
    np.testing.assert_allclose(ladder, expected, rtol=1e-12)


def test_exact_max_cdf_matches_direct_product():
    law = stretched_exp(0.5)
    spec = BoxSpec(2, 3, "sup")
    x = 6.0
    from speclab.lattice import weights_array
    from speclab.tails import tail_prob

    w = weights_array(spec, 0.8)
    direct = float(np.prod(1.0 - tail_prob(law, w * x)))
    assert exact_max_cdf(spec, law, 0.8, x) == pytest.approx(direct, rel=1e-12)


def test_exact_max_cdf_ladder_takes_an_array_of_x():
    # the sandwich's grid: one call gives a row per x, each bitwise the row
    # of a call for that x alone; its largest radius is exact_max_cdf there
    law = stretched_exp(1.0)
    spec = BoxSpec(1, 100, "sup")
    radii = [25, 50, 100]
    xs = [0.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]  # x = 0 is below the clamp
    table = exact_max_cdf_ladder(spec, law, 1.0, xs, radii)
    assert table.shape == (len(xs), len(radii))
    assert np.all(table[0] == 0.0) and np.all(table[1:] > 0.0)
    for x, row in zip(xs, table):
        np.testing.assert_array_equal(row, exact_max_cdf_ladder(spec, law, 1.0, x, radii))
        assert row[-1] == exact_max_cdf(spec, law, 1.0, x)
    square = exact_max_cdf_ladder(spec, law, 1.0, np.reshape(xs[1:], (2, 3)), radii)
    np.testing.assert_array_equal(square.reshape(-1, len(radii)), table[1:])
    with pytest.raises(DomainError, match="^x must be >= 0$"):
        exact_max_cdf_ladder(spec, law, 1.0, [6.0, -1.0], radii)


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
    xs = [8.0, 10.0, 12.0]
    c1 = fit_lower_envelope_constant(law, xs, [exact_max_cdf(spec, law, 3.0, x) for x in xs])
    assert c1 == pytest.approx(1.0, rel=0.05)
