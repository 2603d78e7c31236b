import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from speclab.scaling import ConvergenceError, h_inv
from speclab.tails import (
    DomainError,
    TailLaw,
    f_eval,
    f_inv,
    power_log,
    sample_omega_array,
    stretched_exp,
    tail_prob,
)
from tails_oracle import compacted_tail_prob, lambert_f_inv, sample_omega, site_tail_prob

ALL_LAWS = [
    power_log(2.0, 0),
    power_log(1.0, 0),
    power_log(1.0, 1),
    power_log(0.5, 2),
    stretched_exp(0.5),
    stretched_exp(1.0),
]

# ALL_LAWS plus laws whose clamp sits at the W_{-1} branch point (2,1), (2,3),
# and one whose sampled values outgrow the oracle's bracket (0.1,1)
PROPERTY_LAWS = ALL_LAWS + [power_log(0.1, 1), power_log(2.0, 1), power_log(2.0, 3)]

# deterministic examples, so the suite gives the same verdict on every run
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def invert_increasing(func, y, lo, hi=None, rtol=1e-12, max_iter=200, dfunc=None):
    """Oracle: solve func(x) = y for x >= lo, func strictly increasing.

    Brackets the root by doubling, narrows it by bisection, and polishes with
    Newton steps whenever the Newton candidate stays inside the bracket.
    Doubling stops at lo * 2**max_iter, so large roots are out of its reach.
    """
    f_lo = func(lo)
    if y < f_lo * (1.0 - 1e-13):
        raise DomainError(f"target {y} below func({lo}) = {f_lo}")
    if y <= f_lo:
        return lo
    a = lo
    if hi is None:
        b = lo + 1.0 if lo <= 0 else 2.0 * lo
        for _ in range(max_iter):
            if func(b) >= y:
                break
            a = b
            b = 2.0 * b if b > 0 else b + 1.0
        else:
            raise ConvergenceError(f"could not bracket target {y}")
    else:
        b = hi
        fb = func(b)
        if fb < y:
            raise DomainError(f"target {y} above func({hi}) = {fb}")
    x = 0.5 * (a + b)
    for _ in range(max_iter):
        fx = func(x)
        if abs(fx - y) <= rtol * abs(y):
            if dfunc is not None:
                # one polish step to land near machine accuracy
                d = dfunc(x)
                if d > 0:
                    x2 = x - (fx - y) / d
                    if a < x2 < b:
                        return x2
            return x
        if fx < y:
            a = x
        else:
            b = x
        x_new = None
        if dfunc is not None:
            d = dfunc(x)
            if d > 0:
                cand = x - (fx - y) / d
                if a < cand < b:
                    x_new = cand
        x = x_new if x_new is not None else 0.5 * (a + b)
        if b - a <= 4.0 * np.finfo(float).eps * max(abs(a), abs(b)):
            return x
    raise ConvergenceError(f"no convergence after {max_iter} iterations (target {y})")


def oracle_f_inv(law, y):
    """f^{-1} by the bracketing root-finder, for power_log with k >= 1."""
    p, k = law.p, law.k

    def dfunc(x):
        lx = math.log(x)
        return x ** (p - 1.0) * lx ** (-(k + 1)) * (p * lx - k)

    return invert_increasing(
        lambda x: x ** p * math.log(x) ** (-k), y, lo=law.clamp_point, dfunc=dfunc
    )


def law_id(law):
    if law.family == "power_log":
        return f"power_p{law.p}_k{law.k}"
    return f"stretched_d{law.delta}"


def representable_max(law):
    """Largest x with f(x) inside float64 range, capped at the spec's 1e6."""
    if law.family == "stretched_exp":
        return min(1e6, (0.99 * math.log(np.finfo(float).max)) ** (1.0 / law.delta))
    return 1e6


# --- construction ----------------------------------------------------------

def test_power_log_clamp_points():
    assert power_log(2.0, 0).clamp_point == 1.0
    law = power_log(1.0, 1)
    # the clamp is the monotone threshold e^(k/p) itself, since f(e) = e >= 1
    assert law.clamp_point == pytest.approx(math.exp(1 / 1.0))
    # here f at the monotone threshold e^(k/p) is below 1, so the clamp sits beyond it
    law2 = power_log(0.5, 2)
    assert law2.clamp_point > math.exp(2 / 0.5)
    assert f_eval(law2, law2.clamp_point) == pytest.approx(1.0, rel=1e-10)


def test_stretched_clamp_is_origin():
    law = stretched_exp(0.7)
    assert law.clamp_point == 0.0
    assert law.f_at_clamp == 1.0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        power_log(0.0, 0)
    with pytest.raises(ValueError):
        power_log(1.0, -1)
    with pytest.raises(ValueError):
        stretched_exp(0.0)
    with pytest.raises(ValueError):
        stretched_exp(1.5)
    with pytest.raises(ValueError):
        TailLaw("cauchy")


def test_serialization_roundtrip():
    for law in ALL_LAWS:
        assert TailLaw.from_dict(law.to_dict()) == law


# --- f_eval ----------------------------------------------------------------

def test_f_eval_values():
    assert f_eval(power_log(2.0, 0), 10.0) == pytest.approx(100.0, rel=1e-15)
    assert f_eval(power_log(1.0, 1), math.e) == pytest.approx(math.e, rel=1e-15)
    assert f_eval(stretched_exp(1.0), 3.0) == pytest.approx(math.exp(3.0), rel=1e-15)


def test_f_eval_domain_errors():
    with pytest.raises(DomainError):
        f_eval(power_log(2.0, 0), 0.0)
    with pytest.raises(DomainError):
        f_eval(power_log(1.0, 1), 1.0)
    with pytest.raises(DomainError):
        f_eval(stretched_exp(0.5), -1.0)


@pytest.mark.parametrize("law", ALL_LAWS, ids=law_id)
def test_f_eval_strictly_increasing_above_clamp(law):
    xs = np.geomspace(law.clamp_point + 0.5, representable_max(law), 200)
    vals = f_eval(law, xs)
    assert np.all(np.diff(vals) > 0)


# --- f_inv -----------------------------------------------------------------

def test_f_inv_closed_forms():
    assert f_inv(power_log(2.0, 0), 100.0) == pytest.approx(10.0, rel=1e-14)
    assert f_inv(stretched_exp(0.5), math.exp(2.0)) == pytest.approx(4.0, rel=1e-14)


def test_f_inv_log_corrected_root():
    law = power_log(1.0, 1)
    x = f_inv(law, 1000.0)
    # x / log(x) = 1000, checked by the forward map
    assert f_eval(law, x) == pytest.approx(1000.0, rel=1e-12)


def test_f_inv_domain_error():
    law = power_log(1.0, 1)  # f(clamp) = e
    with pytest.raises(DomainError):
        f_inv(law, 1.0)


@pytest.mark.parametrize("law", ALL_LAWS, ids=law_id)
def test_roundtrip_f_inv_of_f_eval(law):
    # 1000 log-uniform points between clamp+1 and 1e6 (capped where f would
    # overflow double precision), relative error <= 1e-10
    rng = np.random.default_rng(12)
    lo = law.clamp_point + 1.0
    xs = np.exp(rng.uniform(np.log(lo), np.log(representable_max(law)), size=1000))
    for x in xs:
        y = f_eval(law, float(x))
        back = f_inv(law, y)
        assert abs(back - x) / x <= 1e-10


@pytest.mark.parametrize("law", PROPERTY_LAWS, ids=law_id)
@PROPERTY_SETTINGS
@given(exponent=st.floats(-16.0, 25.0))
def test_f_inv_backward_error(law, exponent):
    # y = f(clamp)(1 + delta), delta from 1e-16 to 1e25: from next to the
    # W_{-1} branch point, for (1,1), (2,1) and (2,3), far into the tail
    y = law.f_at_clamp * (1.0 + 10.0 ** exponent)
    x = f_inv(law, y)
    assert abs(f_eval(law, x) - y) <= 1e-12 * y
    assert x >= law.clamp_point


@pytest.mark.parametrize("law", PROPERTY_LAWS, ids=law_id)
@PROPERTY_SETTINGS
@given(shrink=st.floats(0.0, 1e-13))
def test_atom_maps_to_clamp_exactly(law, shrink):
    fc = law.f_at_clamp
    assert f_inv(law, fc * (1.0 - shrink)) == law.clamp_point
    if fc >= 1.0:
        u = np.array([1.0, 1.0 / fc, min(1.0, 1.0 / (fc * (1.0 - shrink)))])
        assert np.all(sample_omega_array(law, u) == law.clamp_point)


def test_small_p_samples_reach_the_far_tail():
    # regression: the bracketing root-finder stops doubling at clamp * 2**200,
    # below the root for y >= 2.5e5 when p = 0.1, so uniforms below about
    # 1e-5 used to raise instead of sampling
    law = power_log(0.1, 1)
    with pytest.raises(ConvergenceError):
        oracle_f_inv(law, 2.5e5)
    u = 2.0 ** -np.arange(0, 54, dtype=np.float64)
    omega = sample_omega_array(law, u)
    assert np.all(np.isfinite(omega))
    y = np.maximum(1.0 / u, law.f_at_clamp)
    assert np.all(np.abs(f_eval(law, omega) - y) <= 1e-12 * y)


@pytest.mark.parametrize("law", [law for law in PROPERTY_LAWS if law.k >= 1], ids=law_id)
def test_closed_form_matches_root_finder(law):
    # wherever the oracle brackets the root, both inverses agree; close to the
    # branch point f is flat in x, so agreement is checked through f
    fc = law.f_at_clamp
    checked = 0
    for y in fc * (1.0 + np.geomspace(1e-12, 1e25, 150)):
        try:
            want = oracle_f_inv(law, float(y))
        except ConvergenceError:
            continue
        got = f_inv(law, float(y))
        assert abs(f_eval(law, got) - f_eval(law, want)) <= 2e-12 * y
        if y >= fc * (1.0 + 1e-4):
            assert got == pytest.approx(want, rel=1e-10)
        checked += 1
    assert checked >= 50


# log(y / f(clamp)) from log(1 + 1e-14) to log(2**53), the largest 1/u a
# sampled uniform gives
_LOG_GAP_LO, _LOG_GAP_HI = math.log1p(1e-14), 53 * math.log(2.0)


@PROPERTY_SETTINGS
@given(p=st.floats(0.1, 10.0), k=st.integers(1, 5),
       heights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
# k > e*p: the clamp is itself a root of f = 1, not the branch point e^(k/p)
@example(p=0.1, k=5, heights=[0.0, 0.3, 0.6, 1.0])
@example(p=1.0, k=3, heights=[0.0, 0.3, 0.6, 1.0])
@example(p=10.0, k=1, heights=[0.0, 0.3, 0.6, 1.0])
def test_newton_inverse_matches_lambert_oracle(p, k, heights):
    law = power_log(p, k)
    fc = law.f_at_clamp
    log_gap = _LOG_GAP_LO * (_LOG_GAP_HI / _LOG_GAP_LO) ** np.asarray(heights)
    u = np.exp(-log_gap) / fc
    y = np.maximum(1.0 / u, fc)
    x = sample_omega_array(law, u)
    assert np.all(np.abs(f_eval(law, x) - y) <= 1e-12 * y)
    # next to the branch point f is flat in x, so a rounding of y moves x by
    # kappa = s/(p*s - k) times as much, s = log(x): the agreement is relative
    # to that condition number
    s = np.log(x)
    kappa = np.maximum(1.0, s / (p * s - k))
    want = lambert_f_inv(law, y)
    assert np.all(np.abs(x - want) <= 1e-12 * kappa * want)
    assert np.all(x >= law.clamp_point)
    # nondecreasing in y wherever the y differ by more than rounding
    order = np.argsort(y)
    apart = y[order][1:] > y[order][:-1] * (1.0 + 1e-12)
    assert np.all(np.diff(x[order])[apart] >= 0.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_h_inv_matches_root_finder(k):
    for y in np.geomspace(1.0, 1e50, 60):
        want = invert_increasing(
            lambda x: x * math.log(x) ** k, float(y), lo=1.0 + 1e-12,
            dfunc=lambda x: math.log(x) ** (k - 1) * (math.log(x) + k),
        )
        assert h_inv(k, float(y)) == pytest.approx(want, rel=1e-10)


def test_invert_increasing_errors():
    with pytest.raises(DomainError):
        invert_increasing(lambda x: x, 0.5, lo=1.0)
    with pytest.raises(DomainError):
        invert_increasing(lambda x: x, 3.0, lo=1.0, hi=2.0)


# --- tail_prob -------------------------------------------------------------

def test_tail_prob_values():
    assert tail_prob(power_log(2.0, 0), 10.0) == pytest.approx(0.01, rel=1e-15)
    assert tail_prob(stretched_exp(1.0), math.log(4.0)) == pytest.approx(0.25, rel=1e-14)
    for law in ALL_LAWS:
        assert tail_prob(law, 0.0) == 1.0


@pytest.mark.parametrize("law", ALL_LAWS, ids=law_id)
def test_tail_prob_nonincreasing(law):
    xs = np.linspace(0.0, 50.0, 500)
    probs = tail_prob(law, xs)
    assert np.all(np.diff(probs) <= 1e-15)
    assert np.all((probs >= 0) & (probs <= 1))


def test_tail_prob_huge_argument_underflows_quietly():
    with np.errstate(over="raise", invalid="raise"):
        assert tail_prob(stretched_exp(1.0), 1e6) == 0.0


TAIL_PROB_LAWS = st.one_of(
    st.builds(power_log, st.floats(0.1, 6.0), st.sampled_from([0, 1, 2])),
    st.builds(stretched_exp, st.floats(0.01, 1.0)),
)


@st.composite
def tail_prob_arguments(draw, law):
    """x >= 0 around the clamp: at it, just below it, 0, tiny, huge and inf."""
    clamp = law.clamp_point
    special = st.sampled_from([0.0, clamp, float(np.nextafter(clamp, 0.0)), 5e-324, 1e-300,
                               1e300, math.inf])
    below = st.floats(0.0, clamp) if clamp > 0 else st.just(0.0)
    value = st.one_of(special, below, st.floats(clamp, max(clamp, 1.0) * 1e6),
                      st.floats(0.0, math.inf))
    shape = draw(st.sampled_from(["scalar", "0-d", "1-d"]))
    if shape == "scalar":
        return draw(value)
    if shape == "0-d":
        return np.array(draw(value))
    return np.array(draw(st.lists(value, min_size=0, max_size=300)), dtype=np.float64)


@PROPERTY_SETTINGS
@given(data=st.data(), law=TAIL_PROB_LAWS)
def test_tail_prob_equals_the_compacting_form_bit_for_bit(data, law):
    # at x = inf the compacting form makes nan of 0 * inf for k >= 1, where
    # tail_prob gives the limit, 0: it is compared with 0 there
    x = data.draw(tail_prob_arguments(law))
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = tail_prob(law, x), compacted_tail_prob(law, x)
    if isinstance(want, float):
        want = 0.0 if x == math.inf else want
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    else:
        want = np.where(x == math.inf, 0.0, want)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("law", [power_log(2.0, 1), power_log(0.5, 2), power_log(2.0, 0),
                                 stretched_exp(0.5)], ids=law_id)
def test_tail_prob_is_zero_at_infinity_without_warnings(law):
    x = [math.inf, np.float64(math.inf), np.array(math.inf), np.array([math.inf, 3.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [tail_prob(law, v) for v in x]
    assert got[:3] == [0.0, 0.0, 0.0] and all(isinstance(g, float) for g in got[:3])
    assert got[3].tolist() == [0.0, tail_prob(law, 3.0)]


def test_tail_prob_sets_one_below_the_clamp_without_warnings():
    # x**(-p) at 0 divides by zero and at 1e-300 overflows, below the clamp
    law = power_log(2.0, 1)
    with np.errstate(all="raise"):
        assert tail_prob(law, np.array([0.0, 1e-300, 1.0])).tolist() == [1.0, 1.0, 1.0]


# --- sampling --------------------------------------------------------------

def test_sample_omega_closed_forms():
    assert sample_omega(power_log(1.0, 0), 0.001) == pytest.approx(1000.0, rel=1e-12)
    assert sample_omega(stretched_exp(1.0), math.exp(-5.0)) == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(DomainError):
        sample_omega(power_log(1.0, 0), 0.0)


@pytest.mark.parametrize("law", ALL_LAWS, ids=law_id)
def test_samples_never_below_clamp(law):
    rng = np.random.default_rng(5)
    u = 1.0 - rng.random(10_000)
    omega = sample_omega_array(law, u)
    assert np.all(omega >= law.clamp_point)


def test_sampler_tail_calibration_monte_carlo():
    # empirical survival within 3 binomial SE of tail_prob, 1e6 samples
    law = power_log(2.0, 0)
    rng = np.random.default_rng(2024)
    n = 1_000_000
    omega = sample_omega_array(law, 1.0 - rng.random(n))
    p10 = tail_prob(law, 10.0)
    frac = np.mean(omega >= 10.0)
    se = math.sqrt(p10 * (1 - p10) / n)
    assert abs(frac - p10) <= 3 * se
    # survival quantile levels from the spec invariant
    for level in (0.5, 0.9, 0.99, 0.999):
        x = f_inv(law, 1.0 / (1.0 - level))  # tail_prob(x) = 1 - level
        target = 1.0 - level
        se = math.sqrt(target * (1 - target) / n)
        assert abs(np.mean(omega >= x) - target) <= 3 * se


def test_sampler_atom_mass():
    # for this law f(clamp) = e, so the clamp atom carries 1 - 1/e
    law = power_log(1.0, 1)
    rng = np.random.default_rng(77)
    n = 200_000
    omega = sample_omega_array(law, 1.0 - rng.random(n))
    at_clamp = np.mean(np.abs(omega - law.clamp_point) < 1e-12)
    expected = 1.0 - 1.0 / law.f_at_clamp
    assert abs(at_clamp - expected) <= 3 * math.sqrt(expected * (1 - expected) / n)


# --- per-site exceedance ---------------------------------------------------

def test_site_tail_prob_flat_weight_exact():
    for law in ALL_LAWS:
        p = site_tail_prob(law, 1.0, gamma=500.0, x=2.0)
        assert p == pytest.approx(1.0 / 1000.0, rel=1e-12)


def test_site_tail_prob_examples():
    assert site_tail_prob(power_log(1.0, 0), 2.0, 100.0, 1.0) == pytest.approx(
        1.0 / 200.0, rel=1e-13
    )
    # f_inv(100) = 10, f(30) = 900
    assert site_tail_prob(power_log(2.0, 0), 3.0, 100.0, 1.0) == pytest.approx(
        1.0 / 900.0, rel=1e-13
    )


@pytest.mark.parametrize("law", ALL_LAWS, ids=law_id)
def test_site_tail_prob_upper_bound(law):
    # p_n <= 1/(gamma x) whenever the weight is >= 1
    gamma, x = 300.0, 1.5
    weights = np.linspace(1.0, 50.0, 100)
    probs = site_tail_prob(law, weights, gamma, x)
    assert np.all(probs <= 1.0 / (gamma * x) + 1e-15)


def test_log_derivative_vanishes_at_infinity():
    # f'/f -> 0 along x = 10^j for every law except delta = 1, where it is
    # identically 1. Checked by central finite differences in extended
    # precision (f exceeds double range for stretched laws at large x).
    import mpmath as mp

    mp.mp.dps = 40

    def fd_ratio(law, x):
        if law.family == "power_log":
            f = lambda t: t ** law.p * mp.log(t) ** (-law.k)
        else:
            f = lambda t: mp.exp(t ** mp.mpf(law.delta))
        x = mp.mpf(x)
        h = x * mp.mpf("1e-12")
        return float((f(x + h) - f(x - h)) / (2 * h) / f(x))

    for law in [power_log(2.0, 0), power_log(1.0, 1), stretched_exp(0.5)]:
        ratios = [fd_ratio(law, 10.0 ** j) for j in range(1, 7)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-2 * ratios[0]
    boundary = [fd_ratio(stretched_exp(1.0), 10.0 ** j) for j in range(1, 7)]
    assert all(abs(r - 1.0) < 1e-9 for r in boundary)
