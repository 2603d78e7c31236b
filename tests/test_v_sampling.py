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


MAX_KEY = 2 ** 64 - 1


def philox_stream(master_seed, trial_index, stream_index):
    """The seeding contract, built the long way: a Philox generator keyed by
    (master_seed, trial_index), its counter advanced stream_index * 2**64
    blocks."""
    bitgen = np.random.Philox(key=np.array([master_seed, trial_index], dtype=np.uint64))
    bitgen.advance(stream_index << 64)
    return np.random.Generator(bitgen)


@PROPERTY_SETTINGS
@given(keys=st.lists(st.tuples(st.integers(0, MAX_KEY) | st.sampled_from([0, MAX_KEY]),
                               st.integers(0, MAX_KEY) | st.sampled_from([0, MAX_KEY]),
                               st.sampled_from([harness.STREAM_POTENTIAL,
                                                harness.STREAM_SOLVER])),
                     min_size=1, max_size=4),
       n=st.integers(1, 9))
def test_a_rekeyed_generator_draws_what_derive_stream_draws(keys, n):
    # one generator, re-keyed from triple to triple, each time after draws
    # that leave words buffered: a 32-bit integer and an odd count of
    # normals. Its uniforms and normals are derive_stream's
    rng = derive_stream(7, 7)
    for key in keys:
        for draw in (lambda g: g.random(n), lambda g: g.standard_normal(n)):
            want = draw(philox_stream(*key)).tobytes()
            assert draw(derive_stream(*key)).tobytes() == want
            assert draw(harness.rekey(rng, *key)).tobytes() == want
            rng.integers(0, 2 ** 31, dtype=np.uint32)
            rng.standard_normal(3)


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


def blocks_of(trials, cuts=()):
    """`trials` (a range) split into consecutive blocks before each cut."""
    edges = [trials.start, *sorted(c for c in cuts if trials.start < c < trials.stop),
             trials.stop]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def assert_v_rows_equal_the_full_path(cfg, blocks):
    """Every V row of these blocks of trials equals the full path's, and each
    block's rows come back in trial order; returns whether the radius had a
    plan."""
    (L,) = cfg.radii
    gamma = resolve_gamma(cfg.scaling_mode, cfg.box(L), cfg.law, cfg.alpha)
    for trials in blocks:
        rows = harness._extremal_trial((cfg, L, gamma, trials))["rows"]
        assert [row["trial"] for row in rows] == list(trials)
        for row in rows:
            assert row["V"] == full_v_row(cfg, L, gamma, row["trial"]), row["trial"]
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
@given(cfg=v_configs(), first=st.integers(0, 10 ** 6), wide=st.booleans(),
       split=st.one_of(st.just("one block"), st.just("blocks of one"),
                       st.sets(st.integers(1, 5))))
def test_v_rows_equal_the_full_path(cfg, first, wide, split):
    # a wide keep margin evaluates many sites whose V lies below the level.
    # Any split of the trials into blocks gives the same rows; trials that
    # solve H come in blocks of one
    trials = range(first, first + 6)
    if cfg.source != "V" or split == "blocks of one":
        blocks = blocks_of(trials, trials)
    else:
        blocks = blocks_of(trials, () if split == "one block" else {first + c for c in split})
    with pytest.MonkeyPatch.context() as mp:
        if wide:
            top_plan.cache_clear()
            mp.setattr(operators, "KEEP_MARGIN", 0.05)
        try:
            planned = assert_v_rows_equal_the_full_path(cfg, blocks)
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
    # a trial of both sources samples all of V for H and reads no plan, and
    # comes in a block of one; a V-only radius's trials give the same rows
    # in blocks of one, in one block, and in blocks of 1, 3, 5 and 3 trials
    cfg = parse_config_text((CONFIGS_DIR / name).read_text(), {**overrides, "out": "unused"})
    trials = range(12)
    splits = [trials, (), (1, 4, 9)] if cfg.source == "V" else [trials]
    for cuts in splits:
        assert assert_v_rows_equal_the_full_path(cfg, blocks_of(trials, cuts)) == (
            cfg.source == "V")


def test_too_few_points_at_the_level_fall_back_to_every_site(monkeypatch):
    # on the decaying, calibrated box a count target of 1 puts the level
    # where about one point lies: most trials find fewer than top_m there
    # and evaluate every site. On the flat box a count target of top_m puts
    # it where about top_m points lie: about half the trials fall back, and
    # one block holds trials that do and trials that do not
    sizes = []
    monkeypatch.setattr(operators, "sample_omega_array",
                        lambda law, u: sizes.append(u.size) or sample_omega_array(law, u))
    for overrides, count_factor, mixed in (
            ({"alpha": "0.5", "scaling_mode": "calibrated"}, lambda m: 1 / m, False),
            ({}, lambda m: 1, True)):
        cfg = parse_config_text((CONFIGS_DIR / "maxlaw.cfg").read_text(),
                                {"radii": "200", "family": "power_log", "p": "2", "k": "1",
                                 "out": "unused", **overrides})
        monkeypatch.setattr(harness, "TOP_COUNT_FACTOR", count_factor(cfg.resolved_top_m()))
        (L,), n = cfg.radii, cfg.box(200).site_count
        gamma = resolve_gamma(cfg.scaling_mode, cfg.box(L), cfg.law, cfg.alpha)
        assert harness._top_plan(cfg, L, gamma) is not None
        for blocks in (blocks_of(range(20)), blocks_of(range(20), range(20))):
            sizes.clear()
            rows = [row for trials in blocks
                    for row in harness._extremal_trial((cfg, L, gamma, trials))["rows"]]
            # per block, one call on the kept sites of all its trials, then
            # one on every site for each trial that falls back
            fell_back = sum(s == n for s in sizes)
            assert len(sizes) == len(blocks) + fell_back
            assert 0 < fell_back and (fell_back < 20 or not mixed)
            assert [row["V"] for row in rows] == [full_v_row(cfg, L, gamma, t)
                                                  for t in range(20)]


# --- what the benchmark reads -----------------------------------------------------

def logtail_config(**overrides):
    """The maxlaw-logtail workload's config, serial."""
    return parse_config_text((CONFIGS_DIR / "maxlaw.cfg").read_text(), {
        "family": "power_log", "p": "2", "k": "1", "trials": "100", "workers": "1",
        **overrides})


def sites_per_block(monkeypatch, cfg):
    """(trials, sites of each operators.sample_omega_array call) for each
    block a run maps."""
    calls, blocks = [], []
    monkeypatch.setattr(operators, "sample_omega_array",
                        lambda law, u: calls.append(len(u)) or sample_omega_array(law, u))
    trial = harness._extremal_trial

    def spy(args):
        start = len(calls)
        out = trial(args)
        blocks.append((args[-1], calls[start:]))
        return out
    monkeypatch.setattr(harness, "_extremal_trial", spy)
    harness.run_experiment(cfg)
    return blocks


def test_v_only_trials_call_the_traced_sampler(monkeypatch, tmp_path):
    # the traced run's ns_per_site divides by the sites this name sees
    blocks = sites_per_block(monkeypatch, logtail_config(
        radii="200", trials="24", out=str(tmp_path / "o")))
    assert sorted(t for trials, _ in blocks for t in trials) == list(range(24))
    assert max(len(trials) for trials, _ in blocks) > 1
    assert all(calls and min(calls) >= 1 for _, calls in blocks)


def test_v_only_logtail_trials_invert_at_most_64_sites(monkeypatch, tmp_path):
    cfg = logtail_config(out=str(tmp_path / "o"))
    blocks = sites_per_block(monkeypatch, cfg)
    assert sorted(t for trials, _ in blocks for t in trials) == list(range(100))
    # each trial's kept sites, from the plan's thresholds on its uniforms: a
    # block inverts the tail law once, at its trials' kept sites, and none
    # of them falls back to every site
    (L,) = cfg.radii
    plan = harness._top_plan(cfg, L, resolve_gamma(cfg.scaling_mode, cfg.box(L), cfg.law,
                                                   cfg.alpha))
    kept = [np.count_nonzero(1.0 - derive_stream(cfg.master_seed, t, 0).random(plan.keep.size)
                             <= plan.keep) for t in range(100)]
    assert [calls for _, calls in blocks] == [[sum(kept[t] for t in trials)]
                                              for trials, _ in blocks]
    assert np.median(kept) <= 64


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
