"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s` or on
failure). Statistical criteria run at fixed master seeds; deterministic
criteria are exact. The two large Monte Carlo runs are shared session
fixtures.
"""
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from speclab.eigen import extremal_topk
from speclab.harness import (
    STREAM_SOLVER,
    ExperimentConfig,
    derive_stream,
    run_experiment,
)
from speclab.lattice import BoxSpec
from speclab.operators import build_hamiltonian, free_laplacian_eigs, sample_potential
from speclab.scaling import (
    gamma_calibrated,
    gamma_critical,
    gamma_flat,
    gamma_power,
)
from speclab.tails import power_log, stretched_exp
from eigen_oracle import dense_eigs, free_operator
from tails_oracle import tail_sum

INF = math.inf
WORKERS = min(4, os.cpu_count() or 1)


def verdict(number: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:>2}: {label}" + (f" ({detail})" if detail else ""))
    return ok


# -- criterion 1 --------------------------------------------------------------


def test_criterion_01_flat_tail_sum_exact():
    t0 = time.perf_counter()
    laws = [power_log(2.0, 0), power_log(1.0, 1), stretched_exp(0.5), stretched_exp(1.0)]
    worst = 0.0
    for law in laws:
        for d in (1, 2):
            for L in (10, 100):
                spec = BoxSpec(d, L)
                gamma = gamma_flat(spec)
                for x in (0.5, 1.0, 2.0, 4.0):
                    s = tail_sum(spec, law, 0.0, gamma, x)
                    worst = max(worst, abs(s - 1.0 / x) * x)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert verdict(1, "alpha=0 tail sum equals 1/x to 1e-12", ok,
                   f"worst rel err {worst:.2e}, {elapsed:.2f}s")


# -- criteria 2 and 3: closed-form normalizations -------------------------------


def test_criterion_02_power_normalization_d1():
    t0 = time.perf_counter()
    law = power_log(1.0, 0)
    errs = {x: [] for x in (0.5, 1.0, 2.0)}
    for L in (10_000, 100_000, 1_000_000):
        spec = BoxSpec(1, L)
        gamma = gamma_power(1, 0.5, 1.0, 0, L)
        assert gamma == pytest.approx(4.0 * math.sqrt(L), rel=1e-13)
        for x in errs:
            s = tail_sum(spec, law, 0.5, gamma, x)
            errs[x].append(abs(s - 1.0 / x) * x)
    elapsed = time.perf_counter() - t0
    final_ok = all(e[-1] <= 0.02 for e in errs.values())
    monotone = all(all(b < a for a, b in zip(e, e[1:])) for e in errs.values())
    ok = final_ok and monotone and elapsed < 30.0
    assert verdict(2, "subcritical gamma: scaled error <= 0.02 and shrinking", ok,
                   f"errors at 1e6: {[f'{e[-1]:.4f}' for e in errs.values()]}, {elapsed:.1f}s")


def test_criterion_03_critical_normalization_d1():
    t0 = time.perf_counter()
    law = power_log(1.0, 0)
    devs = []
    for L in (10_000, 100_000, 1_000_000):
        spec = BoxSpec(1, L)
        gamma = gamma_critical(1, 1.0, 1.0, 0, L)
        assert gamma == pytest.approx(2.0 * math.log(L), rel=1e-13)
        s = tail_sum(spec, law, 1.0, gamma, 1.0)
        devs.append(abs(s - 1.0))
    elapsed = time.perf_counter() - t0
    ok = devs[-1] <= 0.15 and all(b < a for a, b in zip(devs, devs[1:])) and elapsed < 30.0
    assert verdict(3, "critical gamma: x*sum within 15% and improving", ok,
                   f"deviations {[f'{d:.4f}' for d in devs]}, {elapsed:.1f}s")


# -- criterion 4: cube-versus-ball ratio ----------------------------------------


def test_criterion_04_cube_ball_ratio_report(tmp_path):
    cfg = ExperimentConfig(
        experiment="tailsum", dimension=2, radii=(300, 500),
        law=power_log(2.0, 0), alpha=0.5, scaling_mode="calibrated",
        x_grid=(1.0,), out_dir=str(tmp_path / "ratio"),
    )
    summary = run_experiment(cfg)
    ratios = {
        L: summary["per_L"][str(L)]["ratio_vs_power_formula"] for L in (300, 500)
    }
    # stable to 3 significant digits: within one unit in the third
    # significant figure between the two radii
    spread = abs(ratios[300] - ratios[500])
    unit_3rd = 10.0 ** (math.floor(math.log10(max(ratios.values()))) - 2)
    ok = summary["exit_code"] == 0 and spread <= unit_3rd
    assert verdict(4, "calibrated/formula ratio reported, stable to 3 digits", ok,
                   f"ratios {ratios[300]:.5f} (L=300), {ratios[500]:.5f} (L=500)")


# -- criteria 5-7: solver and operator identities --------------------------------


def test_criterion_05_eigensolver_oracle_equivalence():
    t0 = time.perf_counter()
    law = power_log(2.0, 0)
    worst = 0.0
    for trial in range(20):
        spec = BoxSpec(2, 15)
        pot = sample_potential(spec, law, 0.5, derive_stream(505, trial, 0))
        op = build_hamiltonian(spec, pot)
        s = extremal_topk(op, 10, derive_stream(505, trial, STREAM_SOLVER))
        dense = dense_eigs(op)[-10:]
        worst = max(worst, float(np.max(np.abs(s.values - dense))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    assert verdict(5, "Lanczos top-10 matches dense oracle to 1e-8", ok,
                   f"worst dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_free_spectrum_identity():
    worst = 0.0
    ok_support = True
    for d, L in ((1, 10), (2, 5)):
        formula = free_laplacian_eigs(d, L)
        dense = dense_eigs(free_operator(BoxSpec(d, L)))
        worst = max(worst, float(np.max(np.abs(formula - dense))))
        ok_support &= bool(np.all(np.abs(formula) <= 2 * d))
    ok = worst <= 1e-10 and ok_support
    assert verdict(6, "free spectrum equals dense oracle, support in [-2d,2d]", ok,
                   f"worst dev {worst:.2e}")


def test_criterion_07_weyl_comparison_bound():
    law = power_log(2.0, 0)
    worst = 0.0
    cases = [(1, 200)] * 25 + [(2, 10)] * 25
    for trial, (d, L) in enumerate(cases):
        spec = BoxSpec(d, L)
        pot = sample_potential(spec, law, 0.5, derive_stream(707, trial, 0))
        H = build_hamiltonian(spec, pot).to_dense()
        eigs_h = np.sort(np.linalg.eigvalsh(H))[::-1]
        eigs_v = np.sort(pot.values)[::-1]
        dev = float(np.max(np.abs(eigs_h - eigs_v))) - 2 * d
        worst = max(worst, dev)
    ok = worst <= 1e-9
    assert verdict(7, "rank-matched |E_j(H) - E_j(V)| <= 2d on 50 instances", ok,
                   f"worst excess {worst:.2e}")


# -- criterion 8: empirical measure vs free measure -------------------------------


def test_criterion_08_ids_bulk_distance(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="ids", dimension=1, radii=(1000, 5000),
        law=power_log(1.0, 0), alpha=0.7, trials=5, master_seed=808,
        workers=WORKERS, out_dir=str(tmp_path / "ids"), ks_threshold=0.05,
    )
    summary = run_experiment(cfg)
    m1 = summary["per_L"]["1000"]["mean_ks_bulk"]
    m5 = summary["per_L"]["5000"]["mean_ks_bulk"]
    elapsed = time.perf_counter() - t0
    ok = m5 <= 0.05 and m5 < m1 and elapsed < 300.0
    assert verdict(8, "bulk KS to free measure <= 0.05 at L=5000, decreasing", ok,
                   f"means {m1:.4f} -> {m5:.4f}, {elapsed:.0f}s")


# -- criteria 9-10: Poisson statistics (shared 500-trial run) ----------------------


@pytest.fixture(scope="session")
def poisson_run(tmp_path_factory):
    cfg = ExperimentConfig(
        experiment="extremal", dimension=1, radii=(2000,),
        law=power_log(2.0, 0), alpha=0.0, scaling_mode="flat",
        trials=500, master_seed=909,
        intervals=((1.0, 2.0), (2.0, INF)), x_grid=(1.0,),
        source="both", solver="lanczos", workers=WORKERS,
        out_dir=str(tmp_path_factory.mktemp("poisson")),
    )
    t0 = time.perf_counter()
    summary = run_experiment(cfg)
    summary["_elapsed"] = time.perf_counter() - t0
    return summary


def test_criterion_09_frechet_max_law(poisson_run):
    srcs = poisson_run["per_L"]["2000"]["sources"]
    ks_v = srcs["V"]["max_law"]["statistic"]
    ks_h = srcs["H"]["max_law"]["statistic"]
    elapsed = poisson_run["_elapsed"]
    ok = ks_v <= 0.07 and ks_h <= 0.07 and elapsed < 600.0
    assert verdict(9, "max law KS <= 0.07 for V and for H (Lanczos)", ok,
                   f"KS_V {ks_v:.4f}, KS_H {ks_h:.4f}, {elapsed:.0f}s")


def test_criterion_10_poisson_interval_counts(poisson_run):
    srcs = poisson_run["per_L"]["2000"]["sources"]
    ok = True
    details = []
    for source in ("V", "H"):
        for rep in srcs[source]["poisson_gof"]:
            within = abs(rep["observed"] - rep["expected"]) <= 3.0 * rep["mean_se"]
            ok &= within and rep["p_value"] >= 0.01
            details.append(f"{source} {rep['test'].split('[')[1]} p={rep['p_value']:.3f}")
    assert verdict(10, "interval counts: mean within 3 SE, chi-square p >= 0.01",
                   ok, "; ".join(details))


# -- criterion 11: stretched tail, flat normalization ------------------------------


def test_criterion_11_stretched_flat_max_law(tmp_path):
    cfg = ExperimentConfig(
        experiment="maxlaw", dimension=1, radii=(2000,),
        law=stretched_exp(0.5), alpha=0.0, scaling_mode="flat",
        trials=500, master_seed=1111, x_grid=(1.0,),
        source="V", workers=WORKERS, out_dir=str(tmp_path / "stretch"),
    )
    summary = run_experiment(cfg)
    ks = summary["per_L"]["2000"]["sources"]["V"]["max_law"]["statistic"]
    ok = ks <= 0.07
    assert verdict(11, "stretched tail (delta=0.5) max law KS <= 0.07", ok,
                   f"KS {ks:.4f}")


# -- criterion 12: exact product brackets ------------------------------------------


def test_criterion_12_sandwich_brackets(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="sandwich", dimension=1, radii=(25, 50, 100),
        law=stretched_exp(1.0), alpha=1.0, norm_kind="sup",
        trials=2000, master_seed=1212, x_grid=(6.0, 8.0, 10.0),
        workers=WORKERS, out_dir=str(tmp_path / "sandwich"),
    )
    summary = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    brackets_ok = all(
        summary["per_L"]["50"][format(float(x), ".17g")]["within_bracket"]
        for x in (6.0, 8.0, 10.0)
    )
    mono_ok = (summary["checks"]["exact_cdf_nonincreasing_in_L"]
               and summary["checks"]["exact_cdf_nondecreasing_in_x"])
    ok = brackets_ok and mono_ok and summary["exit_code"] == 0 and elapsed < 600.0
    detail = ", ".join(
        f"x={x:g}: {summary['per_L']['50'][format(float(x), '.17g')]['mc_estimate']:.4f}"
        for x in (6.0, 8.0, 10.0)
    )
    assert verdict(12, "MC max prob inside exact product bracket; A monotone", ok,
                   f"{detail}, {elapsed:.0f}s")


# -- criterion 13: determinism ------------------------------------------------------


def test_criterion_13_byte_identical_reruns(tmp_path):
    def run(tag, workers):
        cfg = ExperimentConfig(
            experiment="extremal", dimension=1, radii=(200,),
            law=power_log(2.0, 0), alpha=0.0, scaling_mode="flat",
            trials=30, master_seed=1313,
            intervals=((1.0, 2.0), (2.0, INF)), x_grid=(1.0,),
            source="both", solver="lanczos", workers=workers,
            out_dir=str(tmp_path / tag),
        )
        run_experiment(cfg)
        return (tmp_path / tag / "extremal_L200.csv").read_bytes()

    first = run("a", 1)
    rerun = run("b", 1)
    multi = run("c", 3)
    ok = first == rerun == multi
    assert verdict(13, "reruns and worker counts produce identical CSV bytes", ok,
                   f"{len(first)} bytes")
