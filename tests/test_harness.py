import functools
import importlib
import json
import math
import multiprocessing
import os
import re
import runpy
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings, strategies as st

from speclab.cli import build_parser, overrides_from
from speclab import eigen, harness, lattice, openblas
from speclab.cli import main as cli_main
from speclab.harness import (
    EXIT_ASSERT,
    EXIT_SOLVER,
    EXIT_USAGE,
    CONFIG_KEYS,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    derive_stream,
    parse_config_text,
    run_experiment,
)
from speclab.lattice import BoxSpec
from speclab.operators import (
    DENSE_CAP_DEFAULT,
    LatticeOperator,
    PotentialSample,
    build_hamiltonian,
    free_laplacian_eigs,
    restrict_potential,
    sample_potential,
)
from speclab.stats import count_in_intervals, rescale
from speclab.tails import power_log, stretched_exp

import stats_oracle
from eigen_oracle import dense_eigs

INF_ = math.inf


# --- seeded streams -----------------------------------------------------------

def test_stream_repeatable():
    a = derive_stream(123, 7, 0).random(100)
    b = derive_stream(123, 7, 0).random(100)
    np.testing.assert_array_equal(a, b)


def test_stream_golden_values():
    # frozen first outputs for fixed keys; a change here breaks every
    # recorded experiment
    g = derive_stream(20260809, 0, 0).integers(0, 2 ** 64, 2, dtype="uint64")
    assert [hex(int(v)) for v in g] == ["0x51eb030a4aea0486", "0xb0cf8b31b34cce46"]
    g = derive_stream(20260809, 1, 0).integers(0, 2 ** 64, 2, dtype="uint64")
    assert [hex(int(v)) for v in g] == ["0x5fcbdd56a07f0486", "0xff4420db6b795ed7"]
    g = derive_stream(20260809, 0, 1).integers(0, 2 ** 64, 2, dtype="uint64")
    assert [hex(int(v)) for v in g] == ["0x44dee8de149ca3c", "0x215e23d052216faf"]


def test_streams_differ_across_trials_and_channels():
    base = derive_stream(5, 0, 0).integers(0, 2 ** 64, 4, dtype="uint64")
    for trial, chan in [(1, 0), (0, 1), (2, 3)]:
        other = derive_stream(5, trial, chan).integers(0, 2 ** 64, 4, dtype="uint64")
        assert not np.array_equal(base, other)


def test_stream_uniformity_chi_square():
    import scipy.stats

    vals = derive_stream(999, 0, 0).integers(0, 256, 1_000_000)
    observed = np.bincount(vals, minlength=256)
    stat = np.sum((observed - 1_000_000 / 256) ** 2 / (1_000_000 / 256))
    p = scipy.stats.chi2.sf(stat, 255)
    assert p > 0.001


# --- config parsing -----------------------------------------------------------

CONFIG_TEXT = """
# comment line
experiment = extremal
dimension = 1
radii = 100,200
family = power_log
p = 2
k = 0
alpha = 0
scaling_mode = flat
trials = 8
master_seed = 42
intervals = 1:2,2:inf
x_grid = 0.5,1,2
source = both
"""


def test_parse_config_text():
    cfg = parse_config_text(CONFIG_TEXT)
    assert cfg.experiment == "extremal"
    assert cfg.radii == (100, 200)
    assert cfg.law == power_log(2.0, 0)
    assert cfg.intervals == ((1.0, 2.0), (2.0, math.inf))
    assert cfg.master_seed == 42


def test_parse_config_overrides_win():
    cfg = parse_config_text(CONFIG_TEXT, {"trials": "3", "master_seed": "7"})
    assert cfg.trials == 3 and cfg.master_seed == 7


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config_text(CONFIG_TEXT + "\nwavelength = 3\n")


def test_parse_config_rejects_a_key_set_twice():
    line = len(CONFIG_TEXT.splitlines()) + 1
    with pytest.raises(ConfigError, match=f"^line {line}: duplicate key radii$"):
        parse_config_text(CONFIG_TEXT + "radii = 40\n")
    with pytest.raises(ConfigError, match="^line 2: duplicate key trials$"):
        parse_config_text("trials = 2\ntrials=2\n")
    # a flag still overrides the file's one line
    assert parse_config_text(CONFIG_TEXT, {"radii": "40"}).radii == (40,)


@pytest.mark.parametrize("key, value", [
    ("radii", "20,,40"), ("x_grid", "1,,2"), ("x_grid", "1,"), ("x_grid", "1, ,2"),
    ("intervals", "1:2,,2:inf"), ("intervals", ",1:2"),
])
def test_list_values_reject_an_empty_item(key, value):
    with pytest.raises(ConfigError, match=f"^bad value '{re.escape(value)}' for {key}: empty item$"):
        parse_config_text(CONFIG_TEXT, {key: value})


def test_an_empty_intervals_value_means_none():
    # an empty x_grid is rejected: see test_cli_rejects_bad_values_before_compute
    assert parse_config_text(CONFIG_TEXT, {"intervals": ""}).intervals == ()


def test_parse_config_requires_experiment():
    with pytest.raises(ConfigError):
        parse_config_text("trials = 5")


def test_config_validation_failures():
    with pytest.raises(ConfigError):
        parse_config_text(CONFIG_TEXT, {"radii": "200,100"})
    with pytest.raises(ConfigError):
        parse_config_text(CONFIG_TEXT, {"trials": "0"})
    with pytest.raises(ConfigError):
        parse_config_text(CONFIG_TEXT, {"intervals": "1:2,1.5:3"})
    with pytest.raises(ConfigError):  # regime: flat requires alpha = 0
        parse_config_text(CONFIG_TEXT, {"alpha": "0.5"})
    with pytest.raises(ConfigError):  # alpha*p > d rejected outright
        parse_config_text(CONFIG_TEXT, {"alpha": "1.0", "scaling_mode": "power"})
    with pytest.raises(ConfigError, match="^alpha must be >= 0"):
        parse_config_text((CONFIGS_DIR / "tailsum.cfg").read_text(), {"alpha": "-0.5"})
    with pytest.raises(ConfigError, match="^sample takes one radius$"):
        parse_config_text((CONFIGS_DIR / "sample.cfg").read_text(), {"radii": "2,3"})


@pytest.mark.parametrize("experiment", ["extremal", "sandwich"])
def test_empty_radii_rejected_before_any_compute(experiment, tmp_path, monkeypatch, capsys):
    with pytest.raises(ConfigError, match="^radii must not be empty$"):
        ExperimentConfig(experiment=experiment, radii=())
    # the command line cannot spell an empty ladder; a config built from
    # Python that has none is still a usage error: one line, exit 1
    monkeypatch.setattr("speclab.cli.parse_config_text", lambda text, overrides:
                        ExperimentConfig(experiment=experiment, radii=(),
                                         out_dir=str(tmp_path / "out")))
    assert cli_main([experiment]) == EXIT_USAGE == 1
    assert capsys.readouterr().err == "speclab: error: radii must not be empty\n"
    assert not (tmp_path / "out").exists()


def test_calibration_bracket_checked_at_every_radius():
    # at the least gamma the tail sum is 0.926 at L = 3 and 1.145 at L = 100
    # (p = 1, k = 1, alpha = 2.7), so 1 is reached at L = 100 only
    calibrated = {"p": "1", "k": "1", "alpha": "2.7", "scaling_mode": "calibrated"}
    parse_config_text(CONFIG_TEXT, dict(calibrated, radii="100"))
    with pytest.raises(ConfigError, match="no bracket"):
        parse_config_text(CONFIG_TEXT, dict(calibrated, radii="3,100"))
    # alpha = 0 has the closed form, and sandwich resolves no gamma
    parse_config_text(CONFIG_TEXT, dict(calibrated, alpha="0", radii="3,100"))
    parse_config_text(
        "experiment = sandwich\np = 1\nk = 1\nalpha = 2.7\nscaling_mode = calibrated\n"
        "radii = 3\nx_grid = 6\n")


def test_a_validated_config_is_not_checked_again(tmp_path, monkeypatch):
    # a config is checked once, when it is built
    calls = []
    floor = harness.calibration_floor
    monkeypatch.setattr(harness, "calibration_floor",
                        lambda *args: calls.append(args) or floor(*args))
    cfg = parse_config_text(CONFIG_TEXT, {"alpha": "0.5", "scaling_mode": "calibrated",
                                          "radii": "3,5", "trials": "1", "source": "V",
                                          "out": str(tmp_path / "run")})
    assert len(calls) == 2
    assert run_experiment(cfg)["exit_code"] == 0
    assert len(calls) == 2
    # a changed copy is a new config and is checked in full
    with pytest.raises(ConfigError, match="no bracket"):
        replace(cfg, law=power_log(1.0, 1), alpha=3.0)
    assert len(calls) == 3


def test_a_calibrated_run_builds_each_box_table_once(tmp_path):
    # validate() checks each radius's floor, the run calibrates it and sums
    # its x grid: all from one orbit table per radius
    lattice.orbit_table.cache_clear()
    text = (Path(__file__).resolve().parent.parent / "configs" / "tailsum.cfg").read_text()
    cfg = parse_config_text(text, {"radii": "30,50", "out": str(tmp_path / "tailsum")})
    assert lattice.orbit_table.cache_info().misses == 2
    assert run_experiment(cfg)["exit_code"] == 0
    assert lattice.orbit_table.cache_info().misses == 2


def test_capacity_rejected_where_the_run_needs_the_full_spectrum():
    # ids at d = 2 takes the dense spectrum, capped at dense_cap
    d2 = "experiment = ids\ndimension = 2\nradii = 40\nalpha = 0.5\n"
    with pytest.raises(ConfigError, match="^6561 sites exceeds dense cap 4096$"):
        parse_config_text(d2)
    parse_config_text(d2 + "dense_cap = 6561\n")
    # ids at d = 1 only counts, in O(n) memory: the site cap alone binds it
    ids_cfg = (Path(__file__).resolve().parent.parent / "configs" / "ids.cfg").read_text()
    for L in ("100000", "200000"):
        assert parse_config_text(ids_cfg, {"radii": L}).radii == (int(L),)
    with pytest.raises(ConfigError, match="exceeds cap 100000000$"):
        parse_config_text(ids_cfg, {"radii": "50000000"})
    # a top slice has only the site cap: over dense_cap a d = 2 run goes to
    # Lanczos, and a d = 1 run bisects at any size
    extremal = "experiment = extremal\ndimension = 2\nradii = 40\nalpha = 0\n"
    parse_config_text(extremal)
    parse_config_text(extremal.replace("extremal", "sandwich") + "x_grid = 6\n")
    parse_config_text("experiment = maxlaw\nradii = 100000\nsource = H\n")
    with pytest.raises(ConfigError, match="^solver must be auto or lanczos$"):
        parse_config_text(extremal + "solver = dense\n")


def test_maxlaw_with_intervals_is_rejected():
    # it would count nothing, yet the interval starts would set top_m
    text = (CONFIGS_DIR / "maxlaw.cfg").read_text()
    with pytest.raises(ConfigError, match="maxlaw counts no intervals"):
        parse_config_text(text, {"intervals": "0.1:inf"})
    assert parse_config_text(text.replace("maxlaw", "extremal"),
                             {"intervals": "0.1:inf"}).resolved_top_m() == 40


@pytest.mark.parametrize("name", ["ids", "sandwich", "tailsum", "sample"])
def test_intervals_outside_extremal_are_rejected_before_compute(name, tmp_path, capsys):
    # only extremal counts them; elsewhere their starts would set only the
    # manifest's top_m (40 instead of 8 at 0.1:inf)
    config = CONFIGS_DIR / f"{name}.cfg"
    with pytest.raises(ConfigError, match=f"^{name} counts no intervals: use extremal$"):
        parse_config_text(config.read_text(), {"intervals": "0.1:inf"})
    out = tmp_path / "never"
    code = cli_main([name, "--config", str(config), "--intervals", "0.1:inf",
                     "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"speclab: error: {name} counts no intervals: use extremal\n")
    assert not out.exists()


def test_boundary_delta_rejected_outside_sandwich():
    text = ("experiment = maxlaw\nfamily = stretched_exp\ndelta = 1\nradii = 50\n"
            "alpha = 0.5\nscaling_mode = calibrated\n")
    # with decay, delta = 1 extremes are not Poisson: only the sandwich
    # bracket admits it
    for experiment in ("maxlaw", "extremal"):
        with pytest.raises(ConfigError, match="delta = 1 with alpha != 0"):
            parse_config_text(text.replace("maxlaw", experiment))
    parse_config_text(text.replace("maxlaw", "sandwich") + "x_grid = 6\n")
    # without decay they are Poisson, and both rescaling experiments run it
    no_decay = text.replace("alpha = 0.5\nscaling_mode = calibrated\n", "alpha = 0\n")
    for experiment in ("maxlaw", "extremal"):
        assert parse_config_text(no_decay.replace("maxlaw", experiment)).law.delta == 1.0


def test_boundary_delta_without_decay_runs_to_completion(tmp_path):
    # the statistics of so small a run are not asserted, only that it runs
    out = tmp_path / "border"
    code = cli_main(["extremal", "--family", "stretched_exp", "--delta", "1", "--L", "60",
                     "--trials", "4", "--intervals", "1:2,2:inf", "--out", str(out)])
    assert code == 0
    assert len((out / "extremal_L60.csv").read_text().splitlines()) == 1 + 2 * 4


def test_norm_kind_defaults():
    cfg = parse_config_text(CONFIG_TEXT)
    assert cfg.resolved_norm_kind() == "euclidean"
    cfg2 = parse_config_text(
        "experiment = sandwich\nfamily = stretched_exp\ndelta = 1\nalpha = 1\nx_grid = 6\nradii = 10"
    )
    assert cfg2.resolved_norm_kind() == "sup"


def test_top_m_default_rule():
    cfg = parse_config_text(CONFIG_TEXT)
    assert cfg.resolved_top_m() == max(8, math.ceil(4.0 / 0.5))
    cfg2 = parse_config_text(CONFIG_TEXT, {"intervals": "0.25:inf", "x_grid": "1"})
    assert cfg2.resolved_top_m() == 16


# --- experiment runs ----------------------------------------------------------

def small_extremal_cfg(tmp_path, **kw):
    """A small config, `extremal` unless `experiment` is given; only
    `extremal` counts the default intervals, and the others drop them."""
    base = dict(
        experiment="extremal",
        dimension=1,
        radii=(60,),
        law=power_log(2.0, 0),
        alpha=0.0,
        scaling_mode="flat",
        trials=6,
        master_seed=101,
        intervals=((1.0, 2.0), (2.0, math.inf)),
        x_grid=(1.0,),
        source="both",
        out_dir=str(tmp_path / "out"),
    )
    base.update(kw)
    if base["experiment"] != "extremal" and "intervals" not in kw:
        base["intervals"] = ()
    return ExperimentConfig(**base)


def test_run_extremal_writes_outputs(tmp_path):
    cfg = small_extremal_cfg(tmp_path)
    summary = run_experiment(cfg)
    out = Path(cfg.out_dir)
    assert (out / "extremal_L60.csv").exists()
    assert (out / "extremal_summary.json").exists()
    assert (out / "manifest.json").exists()
    header = (out / "extremal_L60.csv").read_text().splitlines()[0]
    assert header.startswith("trial,L,source,e1_raw,e1_rescaled,dropped")
    assert "count_1_2" in header and "count_2_inf" in header
    assert summary["exit_code"] == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == "extremal"


def test_rerun_is_byte_identical(tmp_path):
    cfg1 = small_extremal_cfg(tmp_path / "a")
    cfg2 = small_extremal_cfg(tmp_path / "b")
    run_experiment(cfg1)
    run_experiment(cfg2)
    b1 = (Path(cfg1.out_dir) / "extremal_L60.csv").read_bytes()
    b2 = (Path(cfg2.out_dir) / "extremal_L60.csv").read_bytes()
    assert b1 == b2


@pytest.mark.parametrize("solver", ["auto", "lanczos"])
def test_worker_count_independence(tmp_path, solver):
    # 121 sites: auto takes the exact tridiagonal path, lanczos runs ARPACK
    cfg1 = small_extremal_cfg(tmp_path / "w1", workers=1, trials=8, solver=solver)
    cfg3 = small_extremal_cfg(tmp_path / "w3", workers=3, trials=8, solver=solver)
    run_experiment(cfg1)
    run_experiment(cfg3)
    b1 = (Path(cfg1.out_dir) / "extremal_L60.csv").read_bytes()
    b3 = (Path(cfg3.out_dir) / "extremal_L60.csv").read_bytes()
    assert b1 == b3


def test_d1_auto_output_does_not_depend_on_dense_cap(tmp_path):
    # d = 1 bisects at any size: dense_cap binds only d >= 2
    def csv(dense_cap):
        cfg = small_extremal_cfg(tmp_path / str(dense_cap), trials=4, dense_cap=dense_cap)
        run_experiment(cfg)
        return (Path(cfg.out_dir) / "extremal_L60.csv").read_bytes()

    assert csv(0) == csv(120) == csv(DENSE_CAP_DEFAULT)


def test_sandwich_worker_count_independence(tmp_path):
    def run(tag, workers):
        cfg = ExperimentConfig(
            experiment="sandwich", dimension=1, radii=(10, 20), alpha=1.0,
            law=stretched_exp(1.0), trials=12, master_seed=77,
            x_grid=(6.0,), workers=workers, out_dir=str(tmp_path / tag),
        )
        run_experiment(cfg)
        return (tmp_path / tag / "sandwich_L20.csv").read_bytes()

    assert run("one", 1) == run("two", 2)


def test_v_source_matches_diagonal_operator_pipeline(tmp_path):
    # the no-solver V path must equal the spectrum of the diagonal matrix
    # diag(V), value for value
    cfg = small_extremal_cfg(tmp_path, trials=3)
    run_experiment(cfg)
    rows = (Path(cfg.out_dir) / "extremal_L60.csv").read_text().splitlines()[1:]
    v_rows = [r.split(",") for r in rows if r.split(",")[2] == "V"]
    for row in v_rows:
        trial = int(row[0])
        spec = BoxSpec(1, 60)
        pot = sample_potential(
            spec, cfg.law, cfg.alpha, derive_stream(cfg.master_seed, trial, 0)
        )
        eigs = np.linalg.eigvalsh(np.diag(pot.values))[::-1]
        eigs = eigs[eigs > 0.0]
        points = rescale(eigs, cfg.law, 121.0)
        assert row[3] == format(float(eigs[0]), ".17g")
        assert row[4] == format(points.top, ".17g")


def test_tailsum_run_and_csv_columns(tmp_path):
    cfg = ExperimentConfig(
        experiment="tailsum", dimension=1, radii=(50, 100), law=power_log(1.0, 0),
        alpha=0.5, scaling_mode="power", x_grid=(0.5, 1.0),
        out_dir=str(tmp_path / "ts"),
    )
    summary = run_experiment(cfg)
    lines = (Path(cfg.out_dir) / "tailsum_L100.csv").read_text().splitlines()
    assert lines[0] == "L,x,gamma_mode,gamma,sum,abs_err_vs_inv_x"
    assert len(lines) == 3
    assert "ratio_vs_power_formula" in summary["per_L"]["100"]
    assert summary["checks"]["gamma_increasing_along_ladder"]


def _csv_rows(cfg, L):
    lines = (Path(cfg.out_dir) / f"extremal_L{L}.csv").read_text().splitlines()
    return [dict(zip(lines[0].split(","), r.split(","))) for r in lines[1:]]


@pytest.mark.parametrize("d, L, solver, a", [
    (1, 150, "lanczos", 0.25), (1, 150, "auto", 0.25), (2, 10, "lanczos", 0.25),
    # so low a start that the solve grows until eigenvalues fall below the clamp
    (1, 150, "lanczos", 0.001),
])
def test_counts_are_exact_when_more_points_than_top_m_reach_an_interval(
        tmp_path, d, L, solver, a):
    # top_m = 2, but more points than that land in [a, inf): the solve grows
    cfg = small_extremal_cfg(
        tmp_path, dimension=d, trials=4, radii=(L,), top_m=2, source="H",
        solver=solver, intervals=((a, INF_),),
    )
    summary = run_experiment(cfg)
    assert summary["exit_code"] == 0
    counts = []
    for row in _csv_rows(cfg, L):
        spec = BoxSpec(d, L)
        pot = sample_potential(spec, cfg.law, cfg.alpha,
                               derive_stream(cfg.master_seed, int(row["trial"]), 0))
        if d == 1:
            eigs = scipy.linalg.eigvalsh_tridiagonal(pot.values, np.ones(spec.site_count - 1))
        else:
            eigs = dense_eigs(build_hamiltonian(spec, pot))
        eigs = eigs[eigs > 0.0][::-1]
        want = int(count_in_intervals(rescale(eigs, cfg.law, float(spec.site_count)),
                                      cfg.intervals)[0])
        assert int(row[f"count_{a:g}_inf"]) == want
        # dropped and points still describe the top m alone
        assert int(row["dropped"]) == np.count_nonzero(eigs[:2] < cfg.law.point_floor)
        assert len(row["points"].split(";")) == 2
        counts.append(want)
    assert max(counts) > cfg.top_m


def test_exact_and_lanczos_paths_write_equal_dropped_and_counts(tmp_path):
    def columns(solver):
        cfg = small_extremal_cfg(tmp_path / solver, solver=solver)
        run_experiment(cfg)
        return [(r["trial"], r["source"], r["dropped"], r["count_1_2"], r["count_2_inf"])
                for r in _csv_rows(cfg, 60)]

    assert columns("auto") == columns("lanczos")


@pytest.mark.parametrize("overrides, least", [
    # V's top 8 of 1001 sites all reach the floor, while most of its sites
    # sit below it
    ({"alpha": "0.25", "radii": "500"}, 0),
    # 11 sites, fewer than top_m of them at or above the floor in V and in H
    ({"alpha": "0.3", "radii": "5"}, 1),
    ({"alpha": "0.3", "radii": "5", "experiment": "maxlaw", "intervals": ""}, 1),
])
def test_dropped_counts_the_top_m_values_below_the_floor_for_v_and_h(overrides, least):
    cfg = parse_config_text(
        (CONFIGS_DIR / "extremal.cfg").read_text(),
        {"source": "both", "scaling_mode": "calibrated", "k": "1", "solver": "auto",
         "trials": "3", "out": "unused", **overrides})
    (L,), m, floor = cfg.radii, cfg.resolved_top_m(), cfg.law.point_floor
    gamma = harness.resolve_gamma(cfg.scaling_mode, cfg.box(L), cfg.law, cfg.alpha)
    for trial in range(3):
        (got,) = harness._extremal_trial((cfg, L, gamma, range(trial, trial + 1)))["rows"]
        pot = sample_potential(cfg.box(L), cfg.law, cfg.alpha,
                               derive_stream(cfg.master_seed, trial, 0))
        h = scipy.linalg.eigvalsh_tridiagonal(pot.values, np.ones(pot.values.size - 1))
        for source, values in (("V", pot.values), ("H", h)):
            top = np.sort(values[values > 0.0])[::-1][:m]
            want = int(np.count_nonzero(top < floor))
            assert got[source]["dropped"] == want >= least, (trial, source)


@pytest.mark.parametrize("solver", ["auto", "lanczos"])
def test_box_smaller_than_top_m_completes(tmp_path, solver):
    # 3 sites against the default top_m of 8
    cfg = small_extremal_cfg(tmp_path, radii=(1,), trials=3, source="H", solver=solver)
    assert cfg.resolved_top_m() == 8
    summary = run_experiment(cfg)
    assert summary["exit_code"] == 0
    assert len(_csv_rows(cfg, 1)) == 3


def test_ids_run_small(tmp_path):
    cfg = ExperimentConfig(
        experiment="ids", dimension=1, radii=(50, 150), law=power_log(1.0, 0),
        alpha=0.7, trials=2, master_seed=3, out_dir=str(tmp_path / "ids"),
        ks_threshold=0.5,
    )
    summary = run_experiment(cfg)
    assert summary["exit_code"] == 0
    assert set(summary["per_L"]) == {"50", "150"}
    assert (Path(cfg.out_dir) / "ids_L150.csv").exists()


@pytest.mark.parametrize("kw, sizes", [
    (dict(experiment="ids", radii=(20, 40), ks_threshold=0.5), None),
    (dict(radii=(20, 40), scaling_mode="power", alpha=0.25), [1, 1, 1]),
    # 40 V-only trials at 2 workers come in 8 * 2 = 16 blocks of 2 or 3
    (dict(radii=(20, 40), scaling_mode="power", alpha=0.25, source="V", trials=40),
     [2, 3, 2, 3, 2, 3, 2, 3] * 2),
], ids=["ids", "extremal", "extremal-V"])
def test_a_run_maps_every_radius_and_trial_in_one_pool_call(tmp_path, monkeypatch, kw, sizes):
    maps = []
    real = harness._map_trials

    def spy(cfg, worker, payloads):
        maps.append([(p[1], p[-1]) for p in payloads])  # (L, trial or block)
        return real(cfg, worker, payloads)

    monkeypatch.setattr(harness, "_map_trials", spy)
    cfg = small_extremal_cfg(tmp_path, **{"trials": 3, "workers": 2, **kw})
    n = cfg.trials
    summary = run_experiment(cfg)
    # radius-major, the largest radius first, and each radius folds its own
    # trials in order. An ids payload ends in its trial, an extremal one in
    # its block of consecutive trials: one trial each where trials solve H
    radii = sorted(cfg.radii, reverse=True)
    if sizes is None:
        assert maps == [[(L, t) for L in radii for t in range(n)]]
    else:
        ends = np.cumsum([0] + sizes).tolist()
        assert ends[-1] == n
        assert maps == [[(L, range(a, b)) for L in radii for a, b in zip(ends, ends[1:])]]
    assert set(summary["per_L"]) == {"20", "40"}
    for L in cfg.radii:
        lines = (Path(cfg.out_dir) / f"{cfg.experiment}_L{L}.csv").read_text().splitlines()
        rows = [r.split(",")[:2] for r in lines[1:]]
        assert rows == sorted(rows, key=lambda r: int(r[0]))
        assert {tuple(r) for r in rows} == {(str(t), str(L)) for t in range(n)}
        # a row per trial, and an extremal row per source of both
        assert len(rows) == n * (2 if cfg.experiment == "extremal" and cfg.source == "both"
                                 else 1)


def test_ids_d2_rows_equal_the_sample_distances_of_the_dense_spectrum(tmp_path):
    cfg = ExperimentConfig(
        experiment="ids", dimension=2, radii=(4, 7), law=power_log(1.0, 0), alpha=0.7,
        trials=3, master_seed=11, out_dir=str(tmp_path / "ids"), ks_threshold=0.5,
    )
    run_experiment(cfg)
    for L in cfg.radii:
        # the d = 2 free spectrum has multiplicities, so its sample has ties
        free = free_laplacian_eigs(2, L)
        assert np.unique(free).size < free.size
        rows = []
        for trial in range(cfg.trials):
            spec = cfg.box(L)
            pot = sample_potential(spec, cfg.law, cfg.alpha, derive_stream(11, trial, 0))
            eigs = dense_eigs(build_hamiltonian(spec, pot))
            bulk = eigs[(eigs >= -4.0) & (eigs <= 4.0)]
            rows.append(",".join([
                str(trial), str(L), format(stats_oracle.ks_distance(bulk, free), ".17g"),
                format(stats_oracle.levy_distance(bulk, free), ".17g"),
                format(stats_oracle.ks_distance(eigs, free), ".17g"),
                str(eigs.size - bulk.size)]))
        lines = (Path(cfg.out_dir) / f"ids_L{L}.csv").read_text().splitlines()
        assert lines[1:] == rows


def test_sandwich_run_small(tmp_path):
    cfg = ExperimentConfig(
        experiment="sandwich", dimension=1, radii=(10, 20), alpha=1.0,
        law=stretched_exp(1.0), trials=50, master_seed=3,
        x_grid=(6.0, 8.0), out_dir=str(tmp_path / "sw"),
    )
    summary = run_experiment(cfg)
    assert summary["exit_code"] == 0
    assert summary["checks"]["exact_cdf_nonincreasing_in_L"]
    assert summary["checks"]["exact_cdf_nondecreasing_in_x"]


@pytest.mark.parametrize("d, radii, dense_cap", [
    (1, (5, 10, 20, 40), DENSE_CAP_DEFAULT),
    (2, (2, 4, 7), DENSE_CAP_DEFAULT),
    # 25, 81 and 225 sites: L = 4 and 7 take the Lanczos path
    (2, (2, 4, 7), 50),
], ids=["1-radii0", "2-radii1", "2-lanczos"])
def test_sandwich_rows_obey_the_exact_eigenvalue_bounds(tmp_path, monkeypatch, d, radii,
                                                        dense_cap):
    # every row: E1(V) <= E1(H) (Rayleigh quotient at the maximal site) and
    # E1(H) <= E1(V) + 2d (the hopping has norm <= 2d); along the ladder the
    # boxes are nested principal submatrices, so by Cauchy interlacing E1(H)
    # never decreases. V >= 0 here, so 2d + e1_v is the operator norm bound.
    cfg = ExperimentConfig(
        experiment="sandwich", dimension=d, radii=radii, alpha=1.0,
        law=stretched_exp(1.0), trials=30, master_seed=11,
        x_grid=(6.0,), dense_cap=dense_cap, out_dir=str(tmp_path / "sw"),
    )
    requested = []
    topk = harness.extremal_topk
    monkeypatch.setattr(harness, "extremal_topk",
                        lambda op, m, *a, **kw: requested.append(m) or topk(op, m, *a, **kw))
    run_experiment(cfg)
    # Lanczos is asked for E1 alone, once per trial at each radius above the cap
    above_cap = sum(cfg.box(L).site_count > dense_cap for L in radii)
    assert requested == [1] * (cfg.trials * above_cap)
    ladder: dict[int, list[float]] = {}
    for L in radii:
        lines = (Path(cfg.out_dir) / f"sandwich_L{L}.csv").read_text().splitlines()[1:]
        assert len(lines) == cfg.trials
        for line in lines:
            trial, _, e1_h, e1_v = line.split(",")
            e1_h, e1_v = float(e1_h), float(e1_v)
            slack = 1e-12 * (2 * d + e1_v)
            assert e1_v >= 0.0
            assert e1_v - slack <= e1_h <= e1_v + 2 * d + slack
            ladder.setdefault(int(trial), []).append(e1_h)
    for trial, e1 in ladder.items():
        slack = 1e-12 * (2 * d + max(e1))
        assert all(b >= a - slack for a, b in zip(e1, e1[1:])), trial
        if d == 1:
            # a larger radius keeps the E1 below, or bisects one above it
            assert all(b >= a for a, b in zip(e1, e1[1:])), trial


# the canonical sandwich run's law and ladder (configs/sandwich.cfg)
CANONICAL_LADDER = dict(experiment="sandwich", dimension=1, radii=(25, 50, 100),
                        law=stretched_exp(1.0), alpha=1.0, master_seed=20260809,
                        x_grid=(6.0, 8.0, 10.0), workers=1)


def test_a_certified_radius_bisects_nothing_and_a_larger_v_outside_bisects(monkeypatch):
    # every radius after the first counts above s = E1 below + delta; a
    # count of 0 keeps that E1 with no bisection, and a V above s outside
    # the smaller box (its V are at most its E1) makes the count nonzero.
    # Decay keeps the far sites' V small, so every other trial gets a V of
    # max V + 3 > E1(25) planted at site 40, inside radius 50 alone
    cfg = ExperimentConfig(**CANONICAL_LADDER, trials=200)
    calls = []
    solve, count, sample = harness.full_spectrum, harness.count_above, harness.sample_potentials

    def planted(spec, *args):
        (pot,) = sample(spec, *args)
        if trial % 2:
            v = pot.values.copy()
            v[spec.radius + 40] = np.max(v) + 3.0
            pot = PotentialSample(spec=spec, omegas=pot.omegas, values=v)
        return [pot]

    def spy_solve(op, **kw):
        calls.append(("bisect", op.n))
        return solve(op, **kw)

    def spy_count(op, t):
        calls.append(("count", op.n, count(op, t)))
        return calls[-1][2]

    monkeypatch.setattr(harness, "full_spectrum", spy_solve)
    monkeypatch.setattr(harness, "count_above", spy_count)
    monkeypatch.setattr(harness, "sample_potentials", planted)
    certified = larger_v = 0
    for trial in range(cfg.trials):
        calls.clear()
        (row,) = harness._sandwich_trial((cfg, range(trial, trial + 1)))["rows"]
        counts = {call[1]: call[2] for call in calls if call[0] == "count"}
        bisected = [call[1] for call in calls if call[0] == "bisect"]
        assert sorted(counts) == [101, 201] and bisected[0] == 51
        assert len(bisected) == len(set(bisected))
        for below, L in zip(cfg.radii, cfg.radii[1:]):
            n, e = 2 * L + 1, row["e1_h"][below]
            assert (n in bisected) == (counts[n] > 0)
            if n not in bisected:
                certified += 1
                assert row["e1_h"][L] == e
            if row["e1_v"][L] > e + harness.LADDER_SLACK * (2.0 + row["e1_v"][L]):
                larger_v += 1
                assert n in bisected
        if trial % 2:
            assert 101 in bisected
    assert certified > 0 and larger_v >= cfg.trials // 2


@st.composite
def sandwich_configs(draw):
    d = draw(st.sampled_from([1, 2]))
    top = draw(st.integers(3, 40) if d == 1 else st.integers(2, 6))
    return ExperimentConfig(
        experiment="sandwich", dimension=d,
        radii=tuple(sorted(draw(st.sets(st.integers(1, top - 1), max_size=2)) | {top})),
        law=draw(st.one_of(st.builds(power_log, st.floats(0.5, 4.0), st.sampled_from([0, 1])),
                           st.builds(stretched_exp, st.floats(0.2, 1.0)))),
        alpha=draw(st.sampled_from([0.0, 0.5, 1.0])), trials=1,
        master_seed=draw(st.integers(0, 2 ** 32)), x_grid=(6.0,),
        solver=draw(st.sampled_from(["auto", "lanczos"])), out_dir="unused")


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=sandwich_configs(), first=st.integers(0, 10 ** 6),
       split=st.one_of(st.just("one block"), st.sets(st.integers(1, 5))))
def test_sandwich_block_rows_equal_the_per_trial_rows(cfg, first, split):
    # blocks of one are each trial's own rows, and their V maxima are those
    # of its own sample restricted to each radius; a single block and any
    # uneven split give the same rows, in trial order
    trials = range(first, first + 6)
    alone = [row for t in trials for row in harness._sandwich_trial((cfg, range(t, t + 1)))["rows"]]
    assert [row["trial"] for row in alone] == list(trials)
    for row in alone:
        big = sample_potential(cfg.box(max(cfg.radii)), cfg.law, cfg.alpha,
                               derive_stream(cfg.master_seed, row["trial"], 0))
        assert row["e1_v"] == {L: float(np.max(restrict_potential(big, L).values))
                               for L in cfg.radii}
    cuts = [] if split == "one block" else sorted(first + c for c in split)
    edges = [trials.start, *cuts, trials.stop]
    rows = [row for a, b in zip(edges, edges[1:])
            for row in harness._sandwich_trial((cfg, range(a, b)))["rows"]]
    assert rows == alone


@pytest.mark.parametrize("kw, blocked", [
    (dict(experiment="sandwich"), True),
    (dict(source="V"), True),
    (dict(experiment="maxlaw", source="V", intervals=()), True),
    (dict(), False),  # both sources: H is solved
    (dict(source="H"), False),
    (dict(experiment="maxlaw", source="H", intervals=()), False),
    (dict(experiment="ids", source="V", ks_threshold=0.5), False),  # counts
], ids=["sandwich", "extremal-V", "maxlaw-V", "extremal-both", "extremal-H", "maxlaw-H",
        "ids"])
@pytest.mark.parametrize("trials, workers", [
    (1, 1), (7, 1), (8, 1), (9, 1), (100, 2), (1000, 2), (5, 4), (1001, 3)])
def test_trial_blocks_cover_each_trial_once_in_near_equal_runs(tmp_path, kw, blocked, trials,
                                                               workers):
    cfg = small_extremal_cfg(tmp_path, trials=trials, workers=workers, **kw)
    blocks = harness._trial_blocks(cfg)
    assert [t for b in blocks for t in b] == list(range(trials))
    assert all(b.step == 1 and len(b) >= 1 for b in blocks)
    sizes = [len(b) for b in blocks]
    if blocked:
        assert len(blocks) == min(trials, 8 * workers)
        assert max(sizes) - min(sizes) <= 1
    else:
        assert sizes == [1] * trials


def test_a_certifying_ladder_writes_the_same_csvs_without_the_bundled_library(
        tmp_path, monkeypatch):
    # with scipy's extension out of the finder, the counts and the
    # bisections both take scipy.linalg.lapack's dstebz
    zeros = []
    count = harness.count_above

    def spy_count(op, t):
        found = count(op, t)
        zeros.append(found == 0)
        return found

    monkeypatch.setattr(harness, "count_above", spy_count)

    def run(tag: str) -> dict:
        cfg = ExperimentConfig(**CANONICAL_LADDER, trials=60, out_dir=str(tmp_path / tag))
        assert run_experiment(cfg)["exit_code"] == 0
        return {L: (tmp_path / tag / f"sandwich_L{L}.csv").read_bytes() for L in cfg.radii}

    extension = run("extension")
    assert any(zeros)
    zeros.clear()
    # a FileFinder given no loaders finds nothing
    monkeypatch.setattr(eigen, "FileFinder",
                        lambda path, *details: importlib.machinery.FileFinder(path))
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(eigen, "_dstebz", functools.cache(eigen._dstebz.__wrapped__))
    assert eigen._dstebz() is scipy.linalg.lapack.dstebz
    assert run("package") == extension
    assert any(zeros)


# --- one BLAS thread per process -------------------------------------------------

needs_openblas = pytest.mark.skipif(
    not openblas.bundled(),
    reason="numpy and scipy bundle no OpenBLAS with scipy_openblas_ entry points")


def blas_threads() -> dict[str, int]:
    return {lib.name: lib.get_num_threads() for lib in openblas.bundled()}


def set_blas_threads(n: int) -> None:
    for lib in openblas.bundled():
        lib.set_num_threads(n)


def _blas_threads_probe(_payload):
    """Mapped through the pool: the worker's pid and its BLAS thread counts."""
    return os.getpid(), blas_threads()


@needs_openblas
def test_output_does_not_depend_on_blas_thread_count(tmp_path):
    # d=2, L=70 (19881 sites): the Lanczos gemv Q[:t] @ w rounds differently
    # on 1 and 2 OpenBLAS threads at this size unless the run pins one
    src = Path(__file__).resolve().parents[1] / "src"
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, "-m", "speclab.cli", "extremal", "--dimension", "2",
             "--L", "70", "--trials", "4", "--workers", "1", "--solver", "lanczos",
             "--source", "H", "--seed", "7", "--out", str(out)],
            env=env, cwd=tmp_path, check=True, capture_output=True, timeout=300)
        csvs.append((out / "extremal_L70.csv").read_bytes())
    assert csvs[0] == csvs[1]


@needs_openblas
def test_serial_run_pins_every_bundled_openblas(tmp_path):
    set_blas_threads(2)
    try:
        summary = run_experiment(small_extremal_cfg(tmp_path, trials=2))
        assert set(blas_threads().values()) == {1}
    finally:
        set_blas_threads(1)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["blas_threads"] == blas_threads()
    # the summary is compared key for key against stored references
    assert "blas_threads" not in summary


def usable_cores(monkeypatch, cores: int | None) -> None:
    """Make `_map_trials` see `cores` usable cores; None hides the affinity
    mask, so that it falls back on os.cpu_count()."""
    if cores is None:
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cores)))


@needs_openblas
def test_pool_workers_pin_their_own_blas(tmp_path, monkeypatch):
    # the host runs 2 threads here, so a worker that merely inherited the
    # host's setting would read 2; two usable cores keep a real pool on any
    # host, and a free pool start sends all 8 payloads to it
    usable_cores(monkeypatch, 2)
    monkeypatch.setattr(harness, "POOL_START_S", 0.0)
    set_blas_threads(2)
    try:
        cfg = small_extremal_cfg(tmp_path, workers=2)
        results = harness._map_trials(cfg, _blas_threads_probe, list(range(8)))
    finally:
        set_blas_threads(1)
    pinned = {lib.name: 1 for lib in openblas.bundled()}
    assert all(pid != os.getpid() and threads == pinned for pid, threads in results)


def _os_threads_probe(_payload):
    return len(os.listdir("/proc/self/task"))


@needs_openblas
@pytest.mark.skipif(not Path("/proc/self/task").is_dir()
                    or multiprocessing.get_start_method() != "fork",
                    reason="counts a forked worker's threads through /proc")
def test_forked_workers_of_a_pinned_host_start_no_blas_threads(tmp_path, monkeypatch):
    # OpenBLAS's setter restarts the pool a fork shut down, and its threads
    # spin before they sleep; a worker that inherited the pin must not call it
    usable_cores(monkeypatch, 2)
    harness._pin_blas()
    cfg = small_extremal_cfg(tmp_path, workers=2)
    assert harness._map_trials(cfg, _os_threads_probe, list(range(4))) == [1] * 4


def test_run_completes_without_a_bundled_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(openblas, "bundled", lambda: ())
    cfg = small_extremal_cfg(tmp_path, workers=2, trials=4)
    assert run_experiment(cfg)["exit_code"] == 0
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    assert manifest["blas_threads"] == {}


# --- pool size and the parent's share of a map ---------------------------------

@pytest.fixture
def pool_log(monkeypatch):
    """Replace the process pool by one that maps in this process; returns
    the (pool size, payloads mapped) of every pool built."""
    log = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None):
            self.size = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            log.append((self.size, items))
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return log


@pytest.mark.parametrize("workers, payloads, cores, pool", [
    (100_000, 100_000, 2, 2),  # bounded by the usable cores
    (100_000, 3, 8, 3),  # by the payloads
    (2, 100, 8, 2),  # by workers
    (8, 100, 1, None),  # one usable core: serial
    (8, 1, 8, None),  # one payload: serial
    (8, 100, None, 3),  # no affinity mask: bounded by os.cpu_count()
])
def test_pool_starts_at_most_one_process_per_payload_and_core(
        tmp_path, monkeypatch, pool_log, workers, payloads, cores, pool):
    # a free pool start sends every payload to the pool
    monkeypatch.setattr(harness, "POOL_START_S", 0.0)
    usable_cores(monkeypatch, cores)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    cfg = small_extremal_cfg(tmp_path, workers=workers)
    items = list(range(payloads))
    assert harness._map_trials(cfg, str, items) == [str(i) for i in items]
    assert [size for size, _ in pool_log] == ([] if pool is None else [pool])


def test_a_cheap_map_builds_no_pool(tmp_path, monkeypatch, pool_log):
    # the parent's first chunk, 100 // (4 * 2) = 12 payloads of about a
    # microsecond, puts the other 88 far below POOL_START_S
    usable_cores(monkeypatch, 2)
    cfg = small_extremal_cfg(tmp_path, workers=2)
    items = list(range(100))
    assert harness._map_trials(cfg, str, items) == [str(i) for i in items]
    assert pool_log == []


def logtail_cfg(tmp_path, **overrides):
    """The benchmark's maxlaw-logtail run: configs/maxlaw.cfg at the k = 1
    law, 100 V-only trials on 2 workers."""
    text = (Path(__file__).resolve().parent.parent / "configs" / "maxlaw.cfg").read_text()
    return parse_config_text(text, {"family": "power_log", "p": "2", "k": "1", "trials": "100",
                                    "workers": "2", "out": str(tmp_path / "o"),
                                    **overrides})


def test_the_logtail_run_builds_no_pool(tmp_path, monkeypatch, pool_log):
    # its 16 blocks of 6 or 7 trials take a few ms in all: the parent's
    # first two predict the rest below POOL_START_S. The first run warms up
    usable_cores(monkeypatch, 2)
    cfg = logtail_cfg(tmp_path)
    assert [len(b) for b in harness._trial_blocks(cfg)] == [6, 6, 6, 7] * 4
    run_experiment(cfg)
    pool_log.clear()
    assert run_experiment(cfg)["exit_code"] == 0
    assert pool_log == []


def test_a_long_v_only_run_still_builds_a_pool(tmp_path, monkeypatch, pool_log):
    # 100 001 sites a trial: each block of 10 trials draws a million
    # uniforms, and the parent's first one or two of the 16 blocks predict
    # the rest far above POOL_START_S
    usable_cores(monkeypatch, 2)
    cfg = logtail_cfg(tmp_path, radii="50000", trials="160")
    assert run_experiment(cfg)["exit_code"] == 0
    [(size, batch)] = pool_log
    blocks = [range(t, t + 10) for t in range(0, 160, 10)]
    assert size == 2 and [p[-1] for p in batch] in (blocks[:15], blocks[:14])


def test_the_sandwich_ladder_run_pools_after_at_most_two_head_blocks(
        tmp_path, monkeypatch, pool_log):
    # the benchmark's sandwich-ladder run: 1000 trials in 16 blocks of 62 or
    # 63. One block takes several ms, so the head's one or two predict the
    # rest far above POOL_START_S, and the pool maps the other 14 or 15
    usable_cores(monkeypatch, 2)
    text = (Path(__file__).resolve().parent.parent / "configs" / "sandwich.cfg").read_text()
    cfg = parse_config_text(text, {"trials": "1000", "workers": "2",
                                   "out": str(tmp_path / "o")})
    blocks = harness._trial_blocks(cfg)
    assert len(blocks) == 16 and {len(b) for b in blocks} == {62, 63}
    assert run_experiment(cfg)["exit_code"] == 0
    [(size, batch)] = pool_log
    assert size == 2 and [p[-1] for p in batch] in (blocks[:15], blocks[:14])


def test_a_map_of_less_than_a_chunk_runs_nothing_in_the_parent(
        tmp_path, monkeypatch, pool_log):
    # a chunk of 4 payloads at 2 workers is 4 // 8 = 0 payloads: they all go
    # to the pool, however dear a pool start is
    usable_cores(monkeypatch, 2)
    monkeypatch.setattr(harness, "POOL_START_S", math.inf)
    cfg = small_extremal_cfg(tmp_path, workers=2)
    assert harness._map_trials(cfg, str, list(range(4))) == ["0", "1", "2", "3"]
    assert pool_log == [(2, [0, 1, 2, 3])]


def _dear_at_the_end(payload):
    """str(payload), after 10 ms of sleep for the last 5 of 40 payloads."""
    if payload >= 35:
        time.sleep(0.01)
    return str(payload)


@pytest.mark.parametrize("start, in_parent", [
    (0.0, {0}),  # a free pool start: no payload in the parent
    (1e-12, {1}),  # the parent runs one, the last, which predicts the rest
                   # above the start
    (0.25, {5}),  # payloads of 10 ms predict the rest at 0.35-0.39 s, between
                  # the start and HEAD_MARGIN times it: a chunk, then the pool
    (math.inf, {40}),  # a start no map repays: all in the parent
], ids=["pool", "one-then-pool", "some-then-pool", "parent"])
def test_the_parent_runs_the_end_of_the_list(tmp_path, monkeypatch, pool_log, start,
                                             in_parent):
    usable_cores(monkeypatch, 2)
    monkeypatch.setattr(harness, "POOL_START_S", start)
    cfg = small_extremal_cfg(tmp_path, workers=2)
    items = list(range(40))  # a chunk of 40 // 8 = 5
    assert harness._map_trials(cfg, _dear_at_the_end, items) == [str(i) for i in items]
    pooled = [p for _, batch in pool_log for p in batch]
    assert [size for size, _ in pool_log] == ([2] if pooled else [])
    assert pooled == items[:len(pooled)] and 40 - len(pooled) in in_parent


def test_a_slow_first_payload_pools_the_rest_at_once(tmp_path, monkeypatch, pool_log):
    # the last payload, the first the parent runs, takes 10 ms and predicts
    # the other 39 at 0.39 s, above HEAD_MARGIN * 25 ms: the parent runs no
    # second, though a chunk is 5 and 25 ms have not passed
    usable_cores(monkeypatch, 2)
    monkeypatch.setattr(harness, "POOL_START_S", 0.025)
    in_parent = []

    def spy(payload):
        if not pool_log:
            in_parent.append(payload)
        if payload == 39:
            time.sleep(0.01)
        return str(payload)

    cfg = small_extremal_cfg(tmp_path, workers=2)
    items = list(range(40))
    assert harness._map_trials(cfg, spy, items) == [str(i) for i in items]
    assert in_parent == [39]
    assert pool_log == [(2, items[:39])]


def test_one_slow_payload_keeps_a_cheap_map_in_the_parent(tmp_path, monkeypatch, pool_log):
    # on a fake clock the parent's chunk of 100 // (4 * 2) = 12 payloads
    # takes 0.25 ms each but the third, at 1.5 ms. Their mean, 0.35 ms, would
    # predict the other 88 at 31 ms, above POOL_START_S; their median
    # predicts 22 ms, below it
    usable_cores(monkeypatch, 2)
    monkeypatch.setattr(harness, "POOL_START_S", 0.025)
    cfg = small_extremal_cfg(tmp_path, workers=2)
    clock = [0.0]
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))

    def payload(p):
        clock[0] += 1.5e-3 if p == 97 else 2.5e-4
        return str(p)

    items = list(range(100))
    assert harness._map_trials(cfg, payload, items) == [str(i) for i in items]
    assert pool_log == []


# split -> POOL_START_S: every payload on the pool; the last in the parent and
# the rest on the pool; every payload in the parent
SPLITS = {"pool": 0.0, "one-then-pool": 1e-12, "parent": math.inf}
SPLIT_RUNS = {
    "extremal": dict(radii=(30, 60), trials=8, workers=2),  # both sources, intervals
    # 40 trials at 2 workers: 16 blocks of 2 or 3
    "sandwich": dict(experiment="sandwich", radii=(10, 20), alpha=1.0,
                     law=stretched_exp(1.0), trials=40, x_grid=(6.0,), workers=2),
    "ids": dict(experiment="ids", radii=(20, 40), trials=4, workers=2, ks_threshold=0.5),
}


@pytest.mark.parametrize("run", list(SPLIT_RUNS))
def test_output_does_not_depend_on_how_a_map_is_split(tmp_path, monkeypatch, run):
    # each run maps at least 8 payloads at 2 workers, a chunk of at least one
    usable_cores(monkeypatch, 2)
    pooled = []

    class CountingPool(harness.ProcessPoolExecutor):
        def map(self, fn, items, chunksize=1):
            items = list(items)
            pooled.append(len(items))
            return super().map(fn, items, chunksize=chunksize)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    # every byte but the fields equal runs differ in
    script = Path(__file__).resolve().parents[1] / "scripts" / "canonical_digests.py"
    digest = runpy.run_path(str(script))["digest"]
    outputs, shapes = {}, {}
    for split, start in SPLITS.items():
        monkeypatch.setattr(harness, "POOL_START_S", start)
        cfg = small_extremal_cfg(tmp_path / split, **SPLIT_RUNS[run])
        mark = len(pooled)
        run_experiment(cfg)
        shapes[split] = pooled[mark:]
        outputs[split] = {f.name: digest(f) for f in sorted(Path(cfg.out_dir).iterdir())}
    # a payload per radius and block; sandwich trials walk every radius
    n = len(harness._trial_blocks(cfg)) * (len(cfg.radii) if run != "sandwich" else 1)
    assert n == {"extremal": 16, "sandwich": 16, "ids": 8}[run]
    assert shapes == {"pool": [n], "one-then-pool": [n - 1], "parent": []}
    assert outputs["pool"] == outputs["one-then-pool"] == outputs["parent"]
    assert any(name.endswith(".csv") for name in outputs["pool"])


# --- the hooks the perfbench tracer patches -------------------------------------

def load_perfbench(monkeypatch, stem: str) -> types.ModuleType:
    """perfbench/<stem>.py, executed from its source without writing a cache.

    Registered for the test only: a dataclass looks its module up by name.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{stem}.py"
    module = types.ModuleType(f"perfbench_{stem}")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_tracer_hook_resolves(monkeypatch):
    spans = load_perfbench(monkeypatch, "spans")
    for module, attr, _ in spans.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for attr in spans.TRIAL_FUNCTIONS:
        assert callable(getattr(harness, attr, None)), attr
    # Tracer.install also wraps these two by name
    assert callable(getattr(harness, "_map_trials", None))
    assert callable(getattr(LatticeOperator, "apply", None))


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
def test_every_workload_builds_its_reference_config(monkeypatch, tmp_path, smoke):
    # the benchmark's gate fails a workload whose config, less out_dir,
    # differs from the `config` block of its reference
    root = Path(__file__).resolve().parents[1]
    workloads = load_perfbench(monkeypatch, "workloads")
    assert workloads.WORKLOADS
    for name, w in workloads.WORKLOADS.items():
        ref = root / "perfbench" / "reference" / f"{name}{'.smoke' if smoke else ''}.json"
        overrides = workloads.overrides_for(w, workloads.CANONICAL_SEED,
                                            str(tmp_path / name), smoke)
        cfg = parse_config_text((root / w.config_file).read_text(), overrides)
        got = {k: v for k, v in cfg.to_dict().items() if k != "out_dir"}
        assert got == json.loads(ref.read_text())["config"], name


@pytest.mark.parametrize("seed", ["canonical", 4242])
def test_every_smoke_workload_passes_the_benchmark_oracle(monkeypatch, tmp_path, seed):
    # the benchmark fails a workload whose outputs its oracle disputes
    root = Path(__file__).resolve().parents[1]
    gate = load_perfbench(monkeypatch, "gate")
    workloads = load_perfbench(monkeypatch, "workloads")
    seed = workloads.CANONICAL_SEED if seed == "canonical" else seed
    for name, w in workloads.WORKLOADS.items():
        cfg = parse_config_text((root / w.config_file).read_text(), workloads.overrides_for(
            w, seed, str(tmp_path / name), True))
        run_experiment(cfg)
        assert gate.oracle_check(cfg.to_dict(), Path(cfg.out_dir)) == [], name


def test_the_benchmark_layer_calls_still_run(monkeypatch):
    # the positional calls perfbench/micro.py makes into the package
    micro = load_perfbench(monkeypatch, "micro")
    for d, L in ((1, 5), (2, 2)):
        op = micro._operator(7, d, L)
        full = micro.full_spectrum(op)
        top = micro.extremal_topk(op, 2, np.random.default_rng(7))
        np.testing.assert_allclose(top.values, full.values[-2:], atol=1e-12)
    ladder = micro.exact_max_cdf_ladder(micro.BoxSpec(1, 100, "sup"), micro.stretched_exp(1.0),
                                        1.0, 8.0, [25, 50, 100])
    assert ladder.shape == (3,) and np.all(np.diff(ladder) <= 0)


@pytest.mark.parametrize("kw, expected", [
    # 121 sites by Lanczos, once per trial
    (dict(solver="lanczos"), dict(extremal_topk=3)),
    (dict(), dict(full_spectrum=3)),  # auto: the exact path at 121 sites
    # d = 1 counts by Sturm sequences and takes no spectrum; both KS
    # distances and the Levy distance per trial and radius
    (dict(experiment="ids", radii=(20, 40)), dict(ks_distance=12, levy_distance=6)),
    # d = 2 counts in its dense spectrum, once per trial and radius
    (dict(experiment="ids", dimension=2, radii=(3, 5), alpha=0.5),
     dict(full_spectrum=6, ks_distance=12, levy_distance=6)),
    # E_1 by bisection, once per trial and radius
    (dict(experiment="sandwich", radii=(10, 20), law=stretched_exp(1.0), alpha=1.0,
          x_grid=(6.0,)), dict(full_spectrum=6)),
], ids=["extremal-lanczos", "extremal-exact", "ids", "ids-d2", "sandwich-exact"])
def test_trials_call_the_kernels_the_tracer_patches(tmp_path, monkeypatch, kw, expected):
    calls = dict.fromkeys(("extremal_topk", "full_spectrum", "ks_distance", "levy_distance"), 0)
    for name in calls:
        def spy(*args, _name=name, _fn=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, spy)
    run_experiment(small_extremal_cfg(tmp_path, source="H", trials=3, **kw))
    assert calls == {**dict.fromkeys(calls, 0), **expected}


def test_sample_run_dumps_matrix(tmp_path):
    cfg = ExperimentConfig(
        experiment="sample", dimension=2, radii=(2,), law=power_log(2.0, 0),
        alpha=0.5, out_dir=str(tmp_path / "smp"),
    )
    run_experiment(cfg)
    matrix = (Path(cfg.out_dir) / "sample_matrix_L2.txt").read_text().splitlines()
    i, j, v = matrix[0].split()
    assert int(i) == 0 and int(j) in (0, 1, 5)
    csv = (Path(cfg.out_dir) / "sample_L2.csv").read_text().splitlines()
    assert csv[0] == "ordinal,site,omega,value"
    assert len(csv) == 26


def test_assert_flag_exit_code(tmp_path):
    cfg = small_extremal_cfg(
        tmp_path, trials=120, radii=(40,), assert_checks=True, ks_threshold=1e-6
    )
    summary = run_experiment(cfg)
    assert summary["exit_code"] == EXIT_ASSERT


def starved_lanczos(monkeypatch, max_iter: int) -> None:
    """Run every Lanczos solve at tol 1e-15 and `max_iter` restarts."""
    monkeypatch.setattr(harness, "extremal_topk",
                        functools.partial(harness.extremal_topk, tol=1e-15, max_iter=max_iter))


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    starved_lanczos(monkeypatch, 3)
    cfg = small_extremal_cfg(tmp_path, trials=4, radii=(80,), solver="lanczos", source="H")
    summary = run_experiment(cfg)
    assert summary["exit_code"] == EXIT_SOLVER
    assert summary["flagged_trials_total"] == 4


def test_trials_with_no_converged_pair_are_written_flagged(tmp_path, monkeypatch):
    # capped at one ARPACK iteration at tol 1e-15, trials 1 and 3 of this box
    # converge no pair at all
    starved_lanczos(monkeypatch, 1)
    cfg = small_extremal_cfg(
        tmp_path, trials=4, dimension=2, radii=(15,), alpha=0.5, master_seed=0,
        scaling_mode="power", top_m=10, solver="lanczos", source="H",
    )
    summary = run_experiment(cfg)
    assert summary["exit_code"] == EXIT_SOLVER
    lines = (Path(cfg.out_dir) / "extremal_L15.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    rows = [dict(zip(header, row)) for row in rows]
    assert [row["trial"] for row in rows] == ["0", "1", "2", "3"]
    assert all(row["converged"] == "0" for row in rows)
    empty = [row["trial"] for row in rows if row["points"] == ""]
    assert empty == ["1", "3"]
    assert all(rows[int(t)]["e1_raw"] == "0" for t in empty)


@pytest.mark.parametrize("flagged, code", [(1, 0), (2, EXIT_SOLVER)])
def test_solver_failure_rate_counts_h_solves_only(tmp_path, monkeypatch, flagged, code):
    # V trials never flag, so under source = both the 1 % bar is a share of
    # the 100 H solves: 2 flagged exceed it
    solve = harness._solve_h
    monkeypatch.setattr(harness, "_solve_h", lambda cfg, op, trial, m: replace(
        solve(cfg, op, trial, m), converged=trial >= flagged))
    cfg = small_extremal_cfg(tmp_path, experiment="maxlaw", trials=100, radii=(20,),
                             intervals=())
    summary = run_experiment(cfg)
    assert summary["flagged_trials_total"] == flagged
    assert summary["exit_code"] == code


# --- CLI ------------------------------------------------------------------------

def test_cli_tailsum(tmp_path, capsys):
    code = cli_main([
        "tailsum", "--L", "50", "--alpha", "0.5", "--family", "power_log",
        "--p", "1", "--scaling-mode", "power", "--x-grid", "1",
        "--out", str(tmp_path / "cli"),
    ])
    assert code == 0
    assert (tmp_path / "cli" / "tailsum_L50.csv").exists()


def test_cli_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(CONFIG_TEXT.replace("radii = 100,200", "radii = 40")
                    .replace("trials = 8", "trials = 2"))
    code = cli_main(["extremal", "--config", str(path),
                     "--out", str(tmp_path / "o")])
    assert code == 0


def test_cli_usage_error_exit_1(tmp_path):
    assert cli_main(["extremal", "--config", str(tmp_path / "missing.txt")]) == EXIT_USAGE
    assert cli_main(["tailsum", "--alpha", "0.5"]) == EXIT_USAGE  # flat + alpha>0


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"],
    ["--seed", str(2 ** 64)],
    ["--workers", "0"],
    ["--x-grid", "nan"],
    ["--x-grid", "inf"],
    ["--x-grid", ""],
    ["--alpha", "nan", "--scaling-mode", "calibrated"],
    ["--alpha", "inf", "--scaling-mode", "calibrated"],
    ["--alpha", "-0.5", "--scaling-mode", "calibrated"],
    ["--p", "inf"],
    ["--p", "nan"],
    ["--p", "0"],
    ["--family", "stretched_exp", "--delta", "nan"],
    ["--top-m", "-3"],
    ["--dense-cap", "-1"],
    ["--solver", "dense"],
    ["--assert", "ture"],
    ["--intervals", "1:2"],  # maxlaw counts no intervals
], ids=lambda flags: "_".join(flags))
def test_cli_rejects_bad_values_before_compute(tmp_path, capsys, flags):
    out = tmp_path / "never"
    code = cli_main(["maxlaw", "--L", "20", "--trials", "1", "--out", str(out)] + flags)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("speclab: error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["solver_tol", "solver_max_iter", "calibration_x"])
def test_removed_keys_are_rejected_before_compute(tmp_path, capsys, key):
    # Lanczos runs at eigen's fixed tolerance and restart cap, and the
    # calibration solves the tail sum at x = 1: no key sets either
    out = tmp_path / "o"
    path = tmp_path / "run.cfg"
    path.write_text(f"experiment = maxlaw\nradii = 20\ntrials = 1\n{key} = 1\n")
    assert cli_main(["maxlaw", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"speclab: error: unknown config keys: ['{key}']\n"
    argv = ["maxlaw", "--L", "20", "--trials", "1", "--out", str(out), expected_flag(key), "1"]
    assert cli_main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"speclab: error: unrecognized arguments: {expected_flag(key)} 1\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "argument experiment: invalid choice: 'bogus' (choose from "
                + ", ".join(repr(e) for e in EXPERIMENTS) + ")"),
    ([], "the following arguments are required: experiment"),
    (["maxlaw", "--L"], "argument --L: expected one argument"),
    (["maxlaw", "--trials", "1", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
], ids=["unknown-experiment", "no-experiment", "missing-value", "unknown-flag"])
def test_a_bad_command_line_prints_one_error_line(capsys, argv, message):
    assert cli_main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"speclab: error: {message}\n"
    assert captured.out == ""


def test_help_still_prints_usage_and_returns_0(capsys):
    assert cli_main(["--help"]) == 0
    assert cli_main(["maxlaw", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: speclab")
    assert "usage: speclab maxlaw" in captured.out
    assert captured.err == ""


# --- one schema: config-file keys and CLI flags ---------------------------------

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ("extremal", "ids", "maxlaw", "sample", "sandwich", "tailsum")


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_configs_load(name):
    cfg = parse_config_text((CONFIGS_DIR / f"{name}.cfg").read_text())
    cfg.validate()
    assert cfg.experiment == name
    assert sorted(p.stem for p in CONFIGS_DIR.glob("*.cfg")) == list(SHIPPED)


def expected_flag(key):
    return {"radii": "--L", "master_seed": "--seed"}.get(key, "--" + key.replace("_", "-"))


# key -> (a value other than the default, config lines both sides share)
PARITY = {
    "dimension": ("2", ""),
    "radii": ("10,20", ""),
    "norm_kind": ("sup", ""),
    "family": ("stretched_exp", ""),
    "p": ("3", ""),
    "k": ("1", ""),
    "delta": ("0.25", "family = stretched_exp"),
    "alpha": ("0.25", "scaling_mode = power"),
    "scaling_mode": ("calibrated", ""),
    "trials": ("7", ""),
    "master_seed": ("5", ""),
    "intervals": ("1:2,2:inf", ""),
    "x_grid": ("0.5,2", ""),
    "source": ("V", ""),
    "top_m": ("12", ""),
    "solver": ("lanczos", ""),
    "dense_cap": ("100", ""),
    "workers": ("2", ""),
    "out": ("elsewhere", ""),
    "assert": ("true", ""),
    "ks_threshold": ("0.1", ""),
    "p_threshold": ("0.05", ""),
}


def test_parity_covers_every_key():
    assert set(PARITY) == set(CONFIG_KEYS) - {"experiment"}


@pytest.mark.parametrize("key", sorted(PARITY))
def test_config_line_and_flag_build_equal_configs(key):
    value, shared = PARITY[key]
    # a key is set once per file: the radii case sets radii on its own line
    radii = "" if key == "radii" else "radii = 20\n"
    base = f"experiment = extremal\n{radii}{shared}\n"
    from_file = parse_config_text(base + f"{key} = {value}\n")
    if key == "radii":  # the ladder flag is repeated, one radius each
        flags = [tok for r in value.split(",") for tok in ("--L", r)]
    else:
        flags = [expected_flag(key), value]
    args = build_parser().parse_args(["extremal"] + flags)
    from_flag = parse_config_text(base, overrides_from(args))
    assert from_flag == from_file
    assert from_file != parse_config_text(base)


def test_bare_assert_flag_means_true():
    args = build_parser().parse_args(["extremal", "--assert"])
    assert parse_config_text("", overrides_from(args)).assert_checks
    args = build_parser().parse_args(["extremal", "--assert", "no"])
    assert not parse_config_text("", overrides_from(args)).assert_checks


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_help_lists_one_flag_per_key(experiment, capsys):
    assert cli_main([experiment, "--help"]) == 0
    options = capsys.readouterr().out.split("options:", 1)[1]
    listed = re.findall(r"^\s+(-[-\w]+)", options, flags=re.M)
    expected = ["-h", "--config"] + [expected_flag(k) for k in CONFIG_KEYS if k != "experiment"]
    assert sorted(listed) == sorted(expected)


def test_seed_range_bounds_accepted():
    for seed in (0, 2 ** 64 - 1):
        assert parse_config_text(CONFIG_TEXT, {"master_seed": str(seed)}).master_seed == seed


@pytest.mark.parametrize("argv, before_compute", [
    # d = 3 box over the site cap ("exceeds cap 100000000")
    (["tailsum", "--dimension", "3", "--L", "250", "--alpha", "0.5", "--p", "1",
      "--scaling-mode", "power"], True),
    # dense spectrum above dense_cap ("dense cap")
    (["ids", "--dimension", "2", "--L", "40", "--alpha", "0.5"], True),
    # calibrated mode whose tail sum can never reach 1 (DomainError); with
    # p = 1, k = 1 the sum at the least gamma is 0.827 at L = 3, alpha = 3,
    # and 0.861 at d = 2, L = 5, alpha = 5
    (["tailsum", "--L", "3", "--p", "1", "--k", "1", "--alpha", "3",
      "--scaling-mode", "calibrated"], True),
    (["extremal", "--dimension", "2", "--L", "5", "--p", "1", "--k", "1", "--alpha", "5",
      "--scaling-mode", "calibrated"], True),
    # a threshold outside [0, 1], the range of a p-value and of a KS
    # distance, would pass or fail its checks whatever the data
    (["extremal", "--L", "20", "--p-threshold", "-0.5"], True),
    (["extremal", "--L", "20", "--p-threshold", "1.5"], True),
    (["extremal", "--L", "20", "--ks-threshold", "-1"], True),
    (["ids", "--L", "20", "--ks-threshold", "2"], True),
    (["maxlaw", "--L", "20", "--p-threshold", "nan"], True),
], ids=["capacity", "dense_cap", "no_bracket", "no_bracket_d2", "p_threshold_below_0",
        "p_threshold_above_1", "ks_threshold_below_0", "ks_threshold_above_1",
        "p_threshold_nan"])
def test_cli_maps_library_errors_to_exit_1(tmp_path, capsys, argv, before_compute):
    out = tmp_path / "o"
    assert cli_main(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("speclab: error:") and err.count("\n") == 1
    if before_compute:
        assert not out.exists()
