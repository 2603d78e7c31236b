import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from speclab.cli import build_parser, overrides_from
from speclab import harness
from speclab.cli import main as cli_main
from speclab.eigen import full_spectrum
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
from speclab.operators import build_hamiltonian, sample_potential
from speclab.stats import rescale
from speclab.tails import power_log, stretched_exp

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


def test_calibration_bracket_checked_at_every_radius():
    # at the least gamma the tail sum is 3.17 at L = 3 and 9.39 at L = 100
    # (p = 2, alpha = 0.5), so 1/x = 5 is reached at L = 100 only
    calibrated = {"alpha": "0.5", "scaling_mode": "calibrated", "calibration_x": "0.2"}
    parse_config_text(CONFIG_TEXT, dict(calibrated, radii="100"))
    with pytest.raises(ConfigError, match="no bracket"):
        parse_config_text(CONFIG_TEXT, dict(calibrated, radii="3,100"))
    # alpha = 0 has the closed form, and sandwich resolves no gamma
    parse_config_text(CONFIG_TEXT, dict(calibrated, alpha="0", radii="3,100"))
    parse_config_text(
        "experiment = sandwich\nalpha = 0.5\nscaling_mode = calibrated\n"
        "calibration_x = 1e-9\nradii = 5\nx_grid = 6\n")


def test_a_validated_config_is_not_checked_again(monkeypatch):
    calls = []
    floor = harness.calibration_floor
    monkeypatch.setattr(harness, "calibration_floor",
                        lambda *args: calls.append(args) or floor(*args))
    cfg = parse_config_text(CONFIG_TEXT, {"alpha": "0.5", "scaling_mode": "calibrated",
                                          "radii": "3,5", "calibration_x": "0.4"})
    assert len(calls) == 2
    cfg.validate()
    assert len(calls) == 2
    # a changed copy is a new config and is checked in full
    with pytest.raises(ConfigError, match="no bracket"):
        replace(cfg, calibration_x=0.3).validate()
    assert len(calls) == 3


def test_capacity_rejected_where_the_run_needs_the_full_spectrum():
    d2 = "experiment = extremal\ndimension = 2\nradii = 40\nalpha = 0\nsolver = dense\n"
    with pytest.raises(ConfigError, match="dense cap 4096"):
        parse_config_text(d2)
    with pytest.raises(ConfigError, match="dense cap 4096"):
        parse_config_text(d2.replace("extremal", "sandwich") + "x_grid = 6\n")
    # the potential alone, or Lanczos above dense_cap, needs no dense matrix
    parse_config_text(d2 + "source = V\n")
    parse_config_text(d2.replace("dense", "auto"))
    parse_config_text(d2 + "dense_cap = 6561\n")
    d1 = "experiment = ids\nradii = 100000\nalpha = 0.5\n"
    with pytest.raises(ConfigError, match="tridiagonal cap"):
        parse_config_text(d1)
    parse_config_text(d1.replace("100000", "99999"))


def test_boundary_delta_rejected_outside_sandwich():
    text = "experiment = maxlaw\nfamily = stretched_exp\ndelta = 1\nalpha = 0\nradii = 50\n"
    with pytest.raises(ConfigError):
        parse_config_text(text)
    # the sandwich experiment accepts it
    parse_config_text(text.replace("maxlaw", "sandwich") + "x_grid = 6\n")


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


def test_worker_count_independence(tmp_path):
    cfg1 = small_extremal_cfg(tmp_path / "w1", workers=1, trials=8)
    cfg3 = small_extremal_cfg(tmp_path / "w3", workers=3, trials=8)
    run_experiment(cfg1)
    run_experiment(cfg3)
    b1 = (Path(cfg1.out_dir) / "extremal_L60.csv").read_bytes()
    b3 = (Path(cfg3.out_dir) / "extremal_L60.csv").read_bytes()
    assert b1 == b3


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
    # the no-solver V path must equal running the solve step on the
    # diagonal operator, value for value
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
        op = build_hamiltonian(spec, pot, "diagonal")
        eigs = full_spectrum(op).positive_descending()
        points = rescale(eigs, cfg.law, 121.0, source="V")
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


def test_undercount_warning_when_point_budget_saturates(tmp_path):
    # m = 2 retained points but ~8 land above the lowest interval endpoint
    cfg = small_extremal_cfg(
        tmp_path, trials=2, radii=(150,), top_m=2, source="H",
        solver="lanczos", intervals=((0.25, INF_),),
    )
    with pytest.warns(UserWarning, match="counts may be low"):
        summary = run_experiment(cfg)
    src = summary["per_L"]["150"]["sources"]["H"]
    assert src.get("undercount_risk_trials", 0) >= 1


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


@pytest.mark.parametrize("d, radii", [(1, (5, 10, 20, 40)), (2, (2, 4, 7))])
def test_sandwich_rows_obey_the_exact_eigenvalue_bounds(tmp_path, d, radii):
    # every row: E1(V) <= E1(H) (Rayleigh quotient at the maximal site) and
    # E1(H) <= E1(V) + 2d (the hopping has norm <= 2d); along the ladder the
    # boxes are nested principal submatrices, so by Cauchy interlacing E1(H)
    # never decreases. V >= 0 here, so 2d + e1_v is the operator norm bound.
    cfg = ExperimentConfig(
        experiment="sandwich", dimension=d, radii=radii, alpha=1.0,
        law=stretched_exp(1.0), trials=30, master_seed=11,
        x_grid=(6.0,), out_dir=str(tmp_path / "sw"),
    )
    run_experiment(cfg)
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


def test_solver_failure_exit_code(tmp_path):
    cfg = small_extremal_cfg(
        tmp_path, trials=4, radii=(80,), solver="lanczos",
        solver_max_iter=3, solver_tol=1e-15, source="H",
    )
    summary = run_experiment(cfg)
    assert summary["exit_code"] == EXIT_SOLVER
    assert summary["flagged_trials_total"] == 4


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
    ["--p", "inf"],
    ["--p", "nan"],
    ["--p", "0"],
    ["--family", "stretched_exp", "--delta", "nan"],
    ["--calibration-x", "0"],
    ["--calibration-x", "-1"],
    ["--solver-tol", "-1"],
    ["--solver-tol", "0"],
    ["--solver-max-iter", "0"],
    ["--top-m", "-3"],
    ["--dense-cap", "-1"],
    ["--assert", "ture"],
], ids=lambda flags: "_".join(flags))
def test_cli_rejects_bad_values_before_compute(tmp_path, capsys, flags):
    out = tmp_path / "never"
    code = cli_main(["maxlaw", "--L", "20", "--trials", "1", "--out", str(out)] + flags)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("speclab: error:") and err.count("\n") == 1
    assert not out.exists()


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
    "solver_tol": ("1e-8", ""),
    "solver_max_iter": ("500", ""),
    "dense_cap": ("100", ""),
    "workers": ("2", ""),
    "out": ("elsewhere", ""),
    "assert": ("true", ""),
    "ks_threshold": ("0.1", ""),
    "p_threshold": ("0.05", ""),
    "calibration_x": ("2", ""),
}


def test_parity_covers_every_key():
    assert set(PARITY) == set(CONFIG_KEYS) - {"experiment"}


@pytest.mark.parametrize("key", sorted(PARITY))
def test_config_line_and_flag_build_equal_configs(key):
    value, shared = PARITY[key]
    base = f"experiment = extremal\nradii = 20\n{shared}\n"
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
    # d = 3 box over the site cap (CapacityError)
    (["tailsum", "--dimension", "3", "--L", "250", "--alpha", "0.5", "--p", "1",
      "--scaling-mode", "power"], True),
    # dense spectrum above dense_cap (CapacityDenseError)
    (["ids", "--dimension", "2", "--L", "40", "--alpha", "0.5"], True),
    # calibrated mode whose tail sum can never reach 1/x (DomainError)
    (["tailsum", "--L", "3", "--alpha", "0.5", "--scaling-mode", "calibrated",
      "--calibration-x", "0.01"], True),
    (["extremal", "--dimension", "2", "--L", "5", "--alpha", "0.5",
      "--scaling-mode", "calibrated", "--calibration-x", "1e-9"], True),
], ids=["capacity", "dense_cap", "no_bracket", "no_bracket_tiny_x"])
def test_cli_maps_library_errors_to_exit_1(tmp_path, capsys, argv, before_compute):
    out = tmp_path / "o"
    assert cli_main(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("speclab: error:") and err.count("\n") == 1
    if before_compute:
        assert not out.exists()
