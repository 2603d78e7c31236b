"""A V-only trial inverts the tail law only where a kept point can lie.

`operators.top_values` must give every V row the full sampling path gives,
float for float: the selection rests on the tail law's per-site thresholds
(`operators.top_plan`) and on elementwise functions giving each element the
same float whatever the array around it.
"""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from speclab import harness, operators
from speclab.harness import (
    ConfigError,
    ExperimentConfig,
    derive_stream,
    parse_config_text,
    resolve_gamma,
)
from speclab.lattice import BoxSpec
from speclab.operators import sample_potential, top_plan, v_spectrum
from speclab.stats import count_in_intervals, rescale
from speclab.tails import f_eval, power_log, sample_omega_array, stretched_exp

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])

LAWS = st.one_of(
    st.builds(power_log, st.floats(0.3, 4.0), st.sampled_from([0, 1, 2])),
    st.builds(stretched_exp, st.floats(0.01, 1.0)),
)


# --- the premise: a subset's values are the full array's ------------------------

@PROPERTY_SETTINGS
@given(law=LAWS, data=st.data())
def test_tail_functions_give_a_subset_the_full_arrays_floats(law, data):
    # numpy's SIMD loops must not round an element by its place in the array
    n = data.draw(st.integers(1, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    u = 1.0 - rng.random(n)
    idx = np.flatnonzero(rng.random(n) < data.draw(st.floats(0.0, 1.0)))
    if data.draw(st.booleans()):
        idx = rng.permutation(idx)
    omegas = sample_omega_array(law, u)
    assert sample_omega_array(law, u[idx]).tobytes() == omegas[idx].tobytes()
    x = omegas[omegas > max(law.clamp_point, 1.0)]
    keep = np.flatnonzero(rng.random(x.size) < 0.5)
    if x.size:
        assert np.asarray(f_eval(law, x[keep])).tobytes() == f_eval(law, x)[keep].tobytes()


# --- V rows against the full path -------------------------------------------------

def full_v_row(cfg, L, gamma, trial):
    """The V row as the full path writes it: every site sampled and rescaled."""
    pot = sample_potential(cfg.box(L), cfg.law, cfg.alpha,
                           derive_stream(cfg.master_seed, trial, harness.STREAM_POTENTIAL))
    eigs = v_spectrum(pot)
    eigs = eigs[eigs > 0.0]
    points = rescale(eigs, cfg.law, gamma)
    m = cfg.resolved_top_m()
    with_counts = cfg.experiment == "extremal" and bool(cfg.intervals)
    return {
        "e1_raw": float(eigs[0]) if eigs.size else 0.0,
        "e1": points.top,
        "dropped": int(np.count_nonzero(eigs[:m] < cfg.law.point_floor)),
        "points": points.points[:m].tolist(),
        "counts": count_in_intervals(points, cfg.intervals).tolist() if with_counts else [],
        "resid": 0.0,
        "converged": True,
    }


def assert_v_rows_equal_the_full_path(cfg, trials):
    """Every V row of these trials equals the full path's; returns whether the
    radius had a plan."""
    (L,) = cfg.radii
    gamma = resolve_gamma(cfg.scaling_mode, cfg.box(L), cfg.law, cfg.alpha)
    for trial in trials:
        got = harness._extremal_trial((cfg, L, gamma, trial))["V"]
        assert got == full_v_row(cfg, L, gamma, trial), trial
    return harness._top_plan(cfg, L, gamma) is not None


@st.composite
def v_configs(draw):
    d = draw(st.sampled_from([1, 2]))
    law = draw(LAWS)
    mode = draw(st.sampled_from(["flat", "power", "calibrated"]))
    if mode == "flat":
        alpha = 0.0
    elif mode == "power":
        assume(law.family == "power_log")
        alpha = draw(st.floats(0.0, 0.95)) * d / law.p
    else:
        alpha = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5])) / (law.p or 1.0)
        assume(law.family == "power_log" or law.delta < 1.0 or alpha == 0.0)
    source = draw(st.sampled_from(["V", "V", "both"]))
    L = draw(st.integers(10, 400) if d == 1 else
             st.integers(3, 6 if source == "both" else 25))
    experiment = draw(st.sampled_from(["maxlaw", "extremal"]))
    a = draw(st.sampled_from([0.05, 0.3, 1.0, 2.0]))
    try:
        return ExperimentConfig(
            experiment=experiment, dimension=d, radii=(L,), law=law, alpha=alpha,
            scaling_mode=mode, trials=1, master_seed=draw(st.integers(0, 2 ** 32)),
            intervals=((a, 2 * a), (2 * a, math.inf)) if experiment == "extremal" else (),
            source=source, top_m=draw(st.sampled_from([0, 1, 3])), out_dir="unused")
    except ConfigError:
        assume(False)


@PROPERTY_SETTINGS
@given(cfg=v_configs(), first=st.integers(0, 10 ** 6), wide=st.booleans())
def test_v_rows_equal_the_full_path(cfg, first, wide):
    # a wide keep margin evaluates many sites whose V lies below the level
    with pytest.MonkeyPatch.context() as mp:
        if wide:
            top_plan.cache_clear()
            mp.setattr(operators, "KEEP_MARGIN", 0.05)
        try:
            planned = assert_v_rows_equal_the_full_path(cfg, range(first, first + 4))
            event("the radius has a plan" if planned else "no plan: every site evaluated")
        finally:
            top_plan.cache_clear()


CANONICAL_V = [
    # (config file, overrides): each radius of a V-only run has a plan
    ("maxlaw.cfg", {"trials": "1"}),
    ("maxlaw.cfg", {"trials": "1", "family": "power_log", "p": "2", "k": "1"}),
    ("maxlaw.cfg", {"trials": "1", "family": "power_log", "p": "1.5", "k": "2",
                    "alpha": "0.4", "scaling_mode": "power"}),
    ("maxlaw.cfg", {"trials": "1", "dimension": "2", "radii": "30", "alpha": "0.3",
                    "scaling_mode": "calibrated"}),
    ("extremal.cfg", {"trials": "1", "source": "V", "radii": "300"}),
    ("extremal.cfg", {"trials": "1", "source": "V", "alpha": "0.25",
                      "scaling_mode": "calibrated", "k": "1"}),
    ("extremal.cfg", {"trials": "1", "source": "both", "radii": "300", "alpha": "0.3",
                      "scaling_mode": "power", "solver": "auto"}),
    ("extremal.cfg", {"trials": "1", "source": "V", "dimension": "2", "radii": "40",
                      "alpha": "0.5", "scaling_mode": "calibrated", "k": "1"}),
    ("extremal.cfg", {"trials": "1", "source": "V", "dimension": "2", "radii": "40",
                      "alpha": "0.5", "scaling_mode": "power", "k": "2"}),
]


@pytest.mark.parametrize("name, overrides", CANONICAL_V,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(CANONICAL_V)])
def test_v_rows_take_the_selection_and_equal_the_full_path(name, overrides):
    # a trial of both sources samples all of V for H and reads no plan
    cfg = parse_config_text((CONFIGS_DIR / name).read_text(), {**overrides, "out": "unused"})
    assert assert_v_rows_equal_the_full_path(cfg, range(12)) == (cfg.source == "V")


def test_too_few_points_at_the_level_fall_back_to_every_site(monkeypatch):
    # a count target of 1 puts the level where about one point lies: most
    # trials find fewer than top_m there and evaluate every site
    cfg = parse_config_text((CONFIGS_DIR / "maxlaw.cfg").read_text(),
                            {"radii": "200", "alpha": "0.5", "scaling_mode": "calibrated",
                             "family": "power_log", "p": "2", "k": "1", "out": "unused"})
    monkeypatch.setattr(harness, "TOP_COUNT_FACTOR", 1 / cfg.resolved_top_m())
    sizes = []
    monkeypatch.setattr(operators, "sample_omega_array",
                        lambda law, u: sizes.append(u.size) or sample_omega_array(law, u))
    assert assert_v_rows_equal_the_full_path(cfg, range(20))
    fell_back = sum(s == cfg.box(200).site_count for s in sizes)
    assert 0 < fell_back < len(sizes)


# --- what the benchmark reads -----------------------------------------------------

def logtail_config(**overrides):
    """The maxlaw-logtail workload's config, serial."""
    return parse_config_text((CONFIGS_DIR / "maxlaw.cfg").read_text(), {
        "family": "power_log", "p": "2", "k": "1", "trials": "100", "workers": "1",
        **overrides})


def sites_per_trial(monkeypatch, cfg):
    """Sites each trial passes to operators.sample_omega_array, per call."""
    calls, per_trial = [], []
    monkeypatch.setattr(operators, "sample_omega_array",
                        lambda law, u: calls.append(len(u)) or sample_omega_array(law, u))
    trial = harness._extremal_trial

    def spy(args):
        start = len(calls)
        out = trial(args)
        per_trial.append(calls[start:])
        return out
    monkeypatch.setattr(harness, "_extremal_trial", spy)
    harness.run_experiment(cfg)
    return per_trial


def test_v_only_trials_call_the_traced_sampler(monkeypatch, tmp_path):
    # the traced run's ns_per_site divides by the sites this name sees
    per_trial = sites_per_trial(monkeypatch, logtail_config(
        radii="200", trials="6", out=str(tmp_path / "o")))
    assert len(per_trial) == 6
    assert all(calls and min(calls) >= 1 for calls in per_trial)


def test_v_only_logtail_trials_invert_at_most_64_sites(monkeypatch, tmp_path):
    per_trial = sites_per_trial(monkeypatch, logtail_config(out=str(tmp_path / "o")))
    assert len(per_trial) == 100
    assert np.median([sum(calls) for calls in per_trial]) <= 64


def test_a_plan_is_made_before_the_pool_forks(monkeypatch, tmp_path):
    # the workers inherit the parent's cached plan instead of each making it
    cfg = logtail_config(radii="200", trials="8", workers="2", out=str(tmp_path / "o"))
    top_plan.cache_clear()
    made = []
    map_trials = harness._map_trials
    monkeypatch.setattr(harness, "_map_trials", lambda *a: made.append(
        top_plan.cache_info().currsize) or map_trials(*a))
    harness.run_experiment(cfg)
    assert made == [1]


def test_plan_thresholds_hold_the_sites_of_every_kept_point():
    # keep[i] is the tail probability just below the level at site i
    spec, law, alpha = BoxSpec(2, 40), power_log(2.0, 1), 0.5
    gamma = resolve_gamma("calibrated", spec, law, alpha)
    plan = top_plan(spec, law, alpha, gamma, 32)
    assert plan is not None and plan.level < plan.check
    for trial in range(20):
        u = 1.0 - derive_stream(5, trial, 0).random(spec.site_count)
        values = sample_potential(spec, law, alpha, derive_stream(5, trial, 0)).values
        high = values >= plan.level
        assert np.all(u[high] <= plan.keep[high])
