"""Experiment orchestration: config, seeded parallel trials, persistence.

Every random draw in a run comes from a counter-based (Philox) generator
keyed by (master_seed, trial_index) and advanced to a per-purpose stream
offset, so results are identical for any worker count or scheduling order.
Trials are mapped over a process pool and folded in trial-index order; CSV
outputs carry no timing, making reruns byte-identical.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .lattice import BoxSpec, CapacityError, check_capacity, site_array
from .operators import (
    DENSE_CAP_DEFAULT,
    build_hamiltonian,
    free_laplacian_eigs,
    restrict_potential,
    sample_potential,
    v_spectrum,
)
from .eigen import (
    LANCZOS_MAX_ITER_DEFAULT,
    LANCZOS_TOL_DEFAULT,
    Spectrum,
    check_full_spectrum_cap,
    extremal_topk,
    full_spectrum,
    solver_path,
)
from .scaling import (
    SCALING_MODES,
    calibration_floor,
    check_regime,
    gamma_power,
    resolve_gamma,
    tail_sum_stats,
)
from .stats import (
    count_in_intervals,
    exact_max_cdf_ladder,
    fit_lower_envelope_constant,
    ks_distance,
    levy_distance,
    max_law_test,
    poisson_gof,
    poisson_joint_gof,
    rescale,
    validate_intervals,
)
from .tails import TailLaw

# Stream offsets within a trial's keyed generator; far enough apart that
# draws for different purposes can never overlap.
STREAM_POTENTIAL = 0
STREAM_SOLVER = 1 << 32

EXIT_USAGE = 1
EXIT_ASSERT = 2
EXIT_SOLVER = 3

MAX_FLAGGED_FRACTION = 0.01


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def derive_stream(
    master_seed: int, trial_index: int, stream_index: int = 0
) -> np.random.Generator:
    """Independent uniform stream for (master_seed, trial, stream) triples.

    Philox is counter-based: the key is (master_seed, trial_index) and the
    counter is advanced by stream_index * 2**64 blocks, so distinct triples
    address disjoint segments of one keyed sequence.
    """
    key = np.array([master_seed, trial_index], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    if stream_index:
        bitgen.advance(int(stream_index) << 64)
    return np.random.Generator(bitgen)


# ---------------------------------------------------------------------------
# config schema: every config key is declared once, on its ExperimentConfig
# field, with the parser of its string value; defaults are the fields'


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(",") if s)


def _intervals(text: str) -> tuple[tuple[float, float], ...]:
    """Comma-separated a:b pairs; an empty or `inf` b is infinity."""
    out = []
    for token in filter(None, text.split(",")):
        a, b = token.split(":")
        out.append((float(a), math.inf if b.strip() in ("inf", "") else float(b)))
    return tuple(out)


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _bool(text: str) -> bool:
    if text.lower() not in _BOOLS:
        raise ValueError(f"expected one of {', '.join(_BOOLS)}")
    return _BOOLS[text.lower()]


def _key(parse: Callable[[str], object], default=MISSING, key: str | None = None):
    """A field set by config key `key` (default: the field's name) via `parse`."""
    return field(default=default, metadata={"key": key, "parse": parse})


# the law is set by four keys, passed as keyword arguments to law_from_keys
LAW_KEYS = {"family": str, "p": float, "k": int, "delta": float}


def law_from_keys(family: str = "power_log", p: float = 2.0, k: int = 0,
                  delta: float = 0.5) -> TailLaw:
    """The tail law of the `family` key; p and k or delta parametrize it."""
    return TailLaw.from_dict({"family": family, "p": p, "k": k, "delta": delta})


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = _key(str)
    dimension: int = _key(int, 1)
    radii: tuple[int, ...] = _key(_ints, (100,))
    norm_kind: str = _key(str, "")  # empty -> per-experiment default
    law: TailLaw = field(default_factory=law_from_keys, metadata={"keys": LAW_KEYS})
    alpha: float = _key(float, 0.0)
    scaling_mode: str = _key(str, "flat")
    trials: int = _key(int, 1)
    master_seed: int = _key(int, 20260809)
    intervals: tuple[tuple[float, float], ...] = _key(_intervals, ())
    x_grid: tuple[float, ...] = _key(_floats, (1.0,))
    source: str = _key(str, "both")  # V | H | both
    top_m: int = _key(int, 0)  # 0 -> max(8, ceil(4/x_min))
    solver: str = _key(str, "auto")  # auto | lanczos
    solver_tol: float = _key(float, LANCZOS_TOL_DEFAULT)
    solver_max_iter: int = _key(int, LANCZOS_MAX_ITER_DEFAULT)
    dense_cap: int = _key(int, DENSE_CAP_DEFAULT)
    workers: int = _key(int, 1)
    out_dir: str = _key(str, "out", key="out")
    assert_checks: bool = _key(_bool, False, key="assert")
    ks_threshold: float = _key(float, 0.07)
    p_threshold: float = _key(float, 0.01)
    calibration_x: float = _key(float, 1.0)

    def resolved_norm_kind(self) -> str:
        if self.norm_kind:
            return self.norm_kind
        return "sup" if self.experiment == "sandwich" else "euclidean"

    def box(self, radius: int) -> BoxSpec:
        return BoxSpec(self.dimension, radius, self.resolved_norm_kind())

    def resolved_top_m(self) -> int:
        if self.top_m > 0:
            return self.top_m
        candidates = [a for a, _ in self.intervals] + list(self.x_grid)
        x_min = min(candidates) if candidates else 0.5
        return max(8, math.ceil(4.0 / x_min))

    def validate(self) -> None:
        """Raise ConfigError unless the config can run.

        A config that passed once returns at once: it is frozen, and the
        calibration-bracket check costs one exact tail sum per radius.
        """
        if self.__dict__.get("_validated"):
            return
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for name, least in (("trials", 1), ("workers", 1), ("solver_max_iter", 1),
                            ("top_m", 0), ("dense_cap", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if list(self.radii) != sorted(set(self.radii)):
            raise ConfigError("radii must be strictly increasing")
        if self.scaling_mode not in SCALING_MODES:
            raise ConfigError(f"scaling_mode must be one of {SCALING_MODES}")
        if self.source not in ("V", "H", "both"):
            raise ConfigError("source must be V, H, or both")
        if self.solver not in ("auto", "lanczos"):
            raise ConfigError("solver must be auto or lanczos")
        if not self.x_grid:
            raise ConfigError("x_grid must not be empty")
        if not all(0 < x < math.inf for x in self.x_grid):
            raise ConfigError("x_grid values must be positive and finite")
        # the law's own constructor rejects a non-finite p or delta
        for name in ("alpha", "ks_threshold", "p_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("solver_tol", "calibration_x"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if (self.experiment in ("extremal", "maxlaw") and self.law.family == "stretched_exp"
                and self.law.delta >= 1.0 and self.alpha != 0.0):
            # without decay, delta = 1 extremes are still Poisson; with decay
            # they are not, and only the sandwich bracket checks that side
            raise ConfigError("delta = 1 with alpha != 0 is allowed only in the sandwich experiment")
        # interval, capacity, regime and calibration-bracket errors must
        # fail before any compute
        try:
            if self.intervals:
                validate_intervals(self.intervals)
            # the site cap of each box; only ids takes full spectra, which
            # have caps of their own
            for L in self.radii:
                box = self.box(L)
                check_capacity(box)
                if self.experiment == "ids":
                    check_full_spectrum_cap(self.dimension, box.site_count, self.dense_cap)
            # only the rescaling experiments consume a scaling mode; a
            # calibration whose tail sum can never reach 1/x fails here
            if self.experiment in ("extremal", "maxlaw", "tailsum"):
                check_regime(self.scaling_mode, self.dimension, self.law, self.alpha)
                if self.scaling_mode == "calibrated" and self.alpha != 0.0:
                    for L in self.radii:
                        calibration_floor(self.box(L), self.law, self.alpha,
                                          self.calibration_x)
        except ConfigError:
            raise
        except (ValueError, CapacityError) as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "_validated", True)

    def to_dict(self) -> dict:
        d = {
            "experiment": self.experiment,
            "dimension": self.dimension,
            "radii": list(self.radii),
            "norm_kind": self.resolved_norm_kind(),
            "law": self.law.to_dict(),
            "alpha": self.alpha,
            "scaling_mode": self.scaling_mode,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "intervals": [[a, "inf" if math.isinf(b) else b]
                          for a, b in self.intervals],
            "x_grid": list(self.x_grid),
            "source": self.source,
            "top_m": self.resolved_top_m(),
            "solver": self.solver,
            "solver_tol": self.solver_tol,
            "solver_max_iter": self.solver_max_iter,
            "dense_cap": self.dense_cap,
            "workers": self.workers,
            "out_dir": self.out_dir,
        }
        return d


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _interval_label(a: float, b: float) -> str:
    bs = "inf" if math.isinf(b) else f"{b:g}"
    return f"{a:g}_{bs}"


# ---------------------------------------------------------------------------
# per-trial computations (top-level functions so they pickle into workers)


def _solve_h(cfg: ExperimentConfig, op, trial: int, m: int) -> Spectrum:
    """The top min(m, n) of H's spectrum on the path `solver_path` picks."""
    m = min(m, op.n)
    if solver_path(cfg.dimension, op.n, cfg.solver, cfg.dense_cap) == "lanczos":
        rng = derive_stream(cfg.master_seed, trial, STREAM_SOLVER)
        return extremal_topk(op, m, rng, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    return full_spectrum(op, m=m)


def _extremal_trial(args):
    """One trial of the extremal/maxlaw pipeline at one box radius.

    H is solved for its top m = `resolved_top_m()` eigenvalues. When the
    extremal experiment counts intervals, the solve is repeated with m
    doubled (capped at n) while all m values came back, all rescaled into
    points and the smallest point still reaches the lowest interval start;
    every eigenvalue an interval can see is then in the solve, so the counts
    are exact given the solver's top set.
    """
    cfg, L, gamma, trial = args
    t0 = time.perf_counter()
    spec = cfg.box(L)
    rng = derive_stream(cfg.master_seed, trial, STREAM_POTENTIAL)
    potential = sample_potential(spec, cfg.law, cfg.alpha, rng)
    out = {"trial": trial, "L": L}
    m = cfg.resolved_top_m()
    with_counts = cfg.experiment == "extremal" and bool(cfg.intervals)
    for source in ("V", "H"):
        if cfg.source != "both" and cfg.source != source:
            continue
        if source == "V":
            eigs = v_spectrum(potential)
            eigs = eigs[eigs > 0.0]
            points = rescale(eigs, cfg.law, gamma)
            dropped = points.dropped_below_threshold
            resid, converged = 0.0, True
        else:
            op = build_hamiltonian(spec, potential)
            k = m
            while True:
                spectrum = _solve_h(cfg, op, trial, k)
                eigs = spectrum.positive_descending()
                points = rescale(eigs, cfg.law, gamma)
                if not (with_counts and spectrum.values.size == points.points.size == k < op.n
                        and points.points[-1] >= min(a for a, _ in cfg.intervals)):
                    break
                k = min(2 * k, op.n)
            # as on every path, H's dropped counts among its top m alone
            dropped = min(eigs.size, m) - min(points.points.size, m)
            resid = (0.0 if spectrum.residuals is None
                     else float(np.max(spectrum.residuals, initial=0.0)))
            converged = spectrum.converged
        out[source] = {
            "e1_raw": float(eigs[0]) if eigs.size else 0.0,
            "e1": points.top,
            "dropped": dropped,
            "points": points.points[:m].tolist(),
            "counts": count_in_intervals(points, cfg.intervals).tolist() if with_counts else [],
            "resid": resid,
            "converged": bool(converged),
        }
    out["wall"] = time.perf_counter() - t0
    return out


def _ids_trial(args):
    """One sample of the empirical-measure comparison at one box radius."""
    cfg, L, trial = args
    t0 = time.perf_counter()
    spec = cfg.box(L)
    rng = derive_stream(cfg.master_seed, trial, STREAM_POTENTIAL)
    potential = sample_potential(spec, cfg.law, cfg.alpha, rng)
    op = build_hamiltonian(spec, potential)
    eigs = full_spectrum(op, dense_cap=cfg.dense_cap).values
    free = free_laplacian_eigs(cfg.dimension, L)
    band = 2.0 * cfg.dimension
    bulk = eigs[(eigs >= -band) & (eigs <= band)]
    return {
        "trial": trial,
        "L": L,
        "ks_bulk": ks_distance(bulk, free),
        "levy_bulk": levy_distance(bulk, free),
        "ks_full": ks_distance(eigs, free),
        "n_outside_band": int(eigs.size - bulk.size),
        "wall": time.perf_counter() - t0,
    }


def _sandwich_trial(args):
    """Largest eigenvalue at every ladder radius from one shared sample."""
    cfg, trial = args
    t0 = time.perf_counter()
    big_spec = cfg.box(max(cfg.radii))
    rng = derive_stream(cfg.master_seed, trial, STREAM_POTENTIAL)
    big = sample_potential(big_spec, cfg.law, cfg.alpha, rng)
    e1 = {}
    e1v = {}
    for L in cfg.radii:
        pot = restrict_potential(big, L)
        op = build_hamiltonian(pot.spec, pot)
        top = float(_solve_h(cfg, op, trial, 1).values[-1])
        e1[L] = top if top > 0.0 else 0.0
        e1v[L] = float(np.max(pot.values))
    return {"trial": trial, "e1_h": e1, "e1_v": e1v,
            "wall": time.perf_counter() - t0}


@functools.cache
def _bundled_openblas() -> tuple[tuple[str, Callable, Callable], ...]:
    """(library basename, set_num_threads, get_num_threads) of each OpenBLAS
    bundled with numpy (`numpy.libs`) and scipy (`scipy.libs`); empty when
    neither wheel bundles one with the `scipy_openblas_` entry points."""
    found = []
    for pkg in (np, scipy):
        site = Path(pkg.__file__).resolve().parent.parent
        for path in sorted(glob.glob(str(site / f"{pkg.__name__}.libs" / "*openblas*"))):
            lib = ctypes.CDLL(path)
            suffix = "64_" if "openblas64" in path else ""
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            found.append((Path(path).name, setter, getter))
    return tuple(found)


def _pin_blas() -> dict[str, int]:
    """Pin every bundled OpenBLAS to one thread; return {library: threads}.

    Parallelism comes only from `workers`: a multi-threaded gemv burns idle
    cores and rounds Lanczos eigenvalues differently per thread count.
    Called at the start of `run_experiment` and as the pool's worker
    initializer (forkserver and spawn workers do not inherit the pin). A
    library already at one thread is left alone, because OpenBLAS's setter
    restarts a thread pool that a fork shut down, and each new thread spins
    ~0.04 s of CPU before it sleeps. The old count is not restored, so a
    host process stays at one BLAS thread once it has called
    `run_experiment`. Returns {} when no bundled OpenBLAS is found.
    """
    pinned = {}
    for name, set_threads, get_threads in _bundled_openblas():
        if get_threads() != 1:
            set_threads(1)
        pinned[name] = get_threads()
    return pinned


def _map_trials(cfg: ExperimentConfig, worker, payloads: list):
    """Map trials over the pool, then fold in submission (trial) order.

    `workers` is an upper bound: the pool has at most one process per
    payload and per usable core, and the map runs serially when that is one.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(cfg.workers, len(payloads), cores)
    if workers <= 1:
        return [worker(p) for p in payloads]
    # load the trials' solver stack once here, so forked workers inherit it
    import scipy.linalg, scipy.sparse.linalg, scipy.special  # noqa: E401,F401
    with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas) as pool:
        return list(pool.map(worker, payloads, chunksize=max(1, len(payloads) // (4 * workers))))


# ---------------------------------------------------------------------------
# experiment drivers


def _run_tailsum(cfg: ExperimentConfig, out: Path):
    rows_per_l: dict[int, list[list[str]]] = {}
    summary: dict = {"per_L": {}}
    checks: dict[str, bool] = {}
    prev_err: dict[float, float] = {}
    monotone = True
    gammas = []
    for L in cfg.radii:
        spec = cfg.box(L)
        plan = resolve_gamma(cfg.scaling_mode, spec, cfg.law, cfg.alpha,
                             cfg.calibration_x)
        gammas.append(plan.gamma)
        rows = []
        entry = {"gamma": plan.gamma, "mode": plan.mode, "x": {}}
        for x in cfg.x_grid:
            total, max_p, sum_sq = tail_sum_stats(spec, cfg.law, cfg.alpha,
                                                  plan.gamma, x)
            err = abs(total - 1.0 / x)
            rows.append([str(L), _fmt(x), plan.mode, _fmt(plan.gamma),
                         _fmt(total), _fmt(err)])
            entry["x"][_fmt(x)] = {
                "sum": total, "abs_err_vs_inv_x": err, "scaled_err": err * x,
                "max_site_prob": max_p, "sum_sq": sum_sq,
                "max_bound_inv_gamma_x": 1.0 / (plan.gamma * x),
            }
            if x in prev_err and err * x >= prev_err[x]:
                monotone = False
            prev_err[x] = err * x
        if (cfg.law.family == "power_log" and L >= 2
                and cfg.alpha * cfg.law.p < cfg.dimension - 1e-12):
            theory = gamma_power(cfg.dimension, cfg.alpha, cfg.law.p, cfg.law.k, L)
            entry["gamma_power_formula"] = theory
            entry["ratio_vs_power_formula"] = plan.gamma / theory
        rows_per_l[L] = rows
        summary["per_L"][str(L)] = entry
    if len(cfg.radii) > 1:
        summary["scaled_err_decreasing_along_ladder"] = monotone
        checks["gamma_increasing_along_ladder"] = all(
            b > a for a, b in zip(gammas, gammas[1:])
        )
    return rows_per_l, ["L", "x", "gamma_mode", "gamma", "sum", "abs_err_vs_inv_x"], summary, checks, 0


def _run_extremal(cfg: ExperimentConfig, out: Path):
    """The extremal experiment; maxlaw is the same without interval counts."""
    with_counts = cfg.experiment == "extremal"
    sources = ("V", "H") if cfg.source == "both" else (cfg.source,)
    count_cols = [f"count_{_interval_label(a, b)}" for a, b in cfg.intervals] \
        if with_counts else []
    header = ["trial", "L", "source", "e1_raw", "e1_rescaled", "dropped",
              "solver_resid", "converged"] + count_cols + ["points"]
    rows_per_l: dict[int, list[list[str]]] = {}
    summary: dict = {"per_L": {}}
    checks: dict[str, bool] = {}
    flagged_total = 0
    gammas = []
    for L in cfg.radii:
        spec = cfg.box(L)
        plan = resolve_gamma(cfg.scaling_mode, spec, cfg.law, cfg.alpha,
                             cfg.calibration_x)
        gammas.append(plan.gamma)
        payloads = [(cfg, L, plan.gamma, t) for t in range(cfg.trials)]
        results = _map_trials(cfg, _extremal_trial, payloads)
        rows = []
        entry: dict = {"gamma": plan.gamma, "mode": plan.mode, "sources": {}}
        for res in results:
            for source in sources:
                r = res[source]
                row = [str(res["trial"]), str(L), source, _fmt(r["e1_raw"]),
                       _fmt(r["e1"]), str(r["dropped"]), _fmt(r["resid"]),
                       "1" if r["converged"] else "0"]
                if with_counts:
                    row += [str(c) for c in r["counts"]]
                row.append(";".join(_fmt(p) for p in r["points"]))
                rows.append(row)
        rows_per_l[L] = rows
        for source in sources:
            good = [res for res in results if res[source]["converged"]]
            flagged = len(results) - len(good)
            flagged_total += flagged
            src_entry: dict = {"flagged_trials": flagged}
            if len(good) >= 100:
                maxima = [res[source]["e1"] for res in good]
                report = max_law_test(maxima, name=f"max_law_{source}_L{L}")
                src_entry["max_law"] = report.to_dict()
                checks[f"max_law_{source}_L{L}_ks"] = (
                    report.statistic <= cfg.ks_threshold
                )
            if with_counts and len(good) >= 100:
                gofs = []
                for i, iv in enumerate(cfg.intervals):
                    cts = [res[source]["counts"][i] for res in good]
                    rep = poisson_gof(cts, iv)
                    gofs.append(rep.to_dict())
                    label = _interval_label(*iv)
                    checks[f"gof_{source}_L{L}_{label}_p"] = (
                        rep.p_value >= cfg.p_threshold
                    )
                    checks[f"mean_{source}_L{L}_{label}_3se"] = bool(
                        rep.extra["mean_within_3se"]
                    )
                src_entry["poisson_gof"] = gofs
                if 2 <= len(cfg.intervals) <= 3:
                    joint = poisson_joint_gof(
                        np.array([res[source]["counts"] for res in good]),
                        cfg.intervals,
                    )
                    src_entry["poisson_joint_gof"] = joint.to_dict()
                    checks[f"gof_joint_{source}_L{L}_p"] = (
                        joint.p_value >= cfg.p_threshold
                    )
            entry["sources"][source] = src_entry
        summary["per_L"][str(L)] = entry
    if len(cfg.radii) > 1:
        checks["gamma_increasing_along_ladder"] = all(
            b > a for a, b in zip(gammas, gammas[1:])
        )
    solver_failed = flagged_total > MAX_FLAGGED_FRACTION * cfg.trials * len(cfg.radii) * len(sources)
    summary["flagged_trials_total"] = flagged_total
    return rows_per_l, header, summary, checks, (EXIT_SOLVER if solver_failed else 0)


def _run_ids(cfg: ExperimentConfig, out: Path):
    header = ["trial", "L", "ks_bulk", "levy_bulk", "ks_full", "n_outside_band"]
    rows_per_l: dict[int, list[list[str]]] = {}
    summary: dict = {"per_L": {}}
    checks: dict[str, bool] = {}
    means = []
    for L in cfg.radii:
        payloads = [(cfg, L, t) for t in range(cfg.trials)]
        results = _map_trials(cfg, _ids_trial, payloads)
        rows = [[str(r["trial"]), str(L), _fmt(r["ks_bulk"]), _fmt(r["levy_bulk"]),
                 _fmt(r["ks_full"]), str(r["n_outside_band"])] for r in results]
        rows_per_l[L] = rows
        mean_ks = float(np.mean([r["ks_bulk"] for r in results]))
        summary["per_L"][str(L)] = {
            "mean_ks_bulk": mean_ks,
            "mean_ks_full": float(np.mean([r["ks_full"] for r in results])),
            "mean_levy_bulk": float(np.mean([r["levy_bulk"] for r in results])),
        }
        means.append(mean_ks)
        checks[f"ids_ks_L{L}"] = mean_ks <= cfg.ks_threshold
    if len(means) > 1:
        decreasing = all(b < a for a, b in zip(means, means[1:]))
        summary["mean_ks_decreasing"] = decreasing
        checks["ids_ks_decreasing"] = decreasing
    return rows_per_l, header, summary, checks, 0


def _run_sandwich(cfg: ExperimentConfig, out: Path):
    header = ["trial", "L", "e1_h", "e1_v"]
    payloads = [(cfg, t) for t in range(cfg.trials)]
    results = _map_trials(cfg, _sandwich_trial, payloads)
    rows_per_l = {
        L: [[str(r["trial"]), str(L), _fmt(r["e1_h"][L]), _fmt(r["e1_v"][L])]
            for r in results]
        for L in cfg.radii
    }
    twod = 2.0 * cfg.dimension
    base_spec = cfg.box(max(cfg.radii))
    summary: dict = {"per_L": {}, "exact_cdf": {}}
    checks: dict[str, bool] = {}
    # exact product CDF on the grid and its monotonicity, from shared shells
    grid: dict[float, np.ndarray] = {}
    for x in sorted(set(list(cfg.x_grid) + [x + s for x in cfg.x_grid for s in (-twod, twod)])):
        if x >= 0:
            grid[x] = exact_max_cdf_ladder(base_spec, cfg.law, cfg.alpha, x,
                                           list(cfg.radii))
    for x, vals in grid.items():
        summary["exact_cdf"][_fmt(x)] = {str(L): float(v)
                                         for L, v in zip(cfg.radii, vals)}
    mono_L = all(
        all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1))
        for vals in grid.values()
    )
    xs_sorted = sorted(grid)
    mono_x = all(
        all(grid[x1][i] <= grid[x2][i] for x1, x2 in zip(xs_sorted, xs_sorted[1:]))
        for i in range(len(cfg.radii))
    )
    checks["exact_cdf_nonincreasing_in_L"] = mono_L
    checks["exact_cdf_nondecreasing_in_x"] = mono_x
    for i, L in enumerate(cfg.radii):
        entry = {}
        for x in cfg.x_grid:
            inside = np.array([r["e1_h"][L] <= x for r in results])
            p_hat = float(np.mean(inside))
            se = math.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
            lower = float(grid[x - twod][i]) if x - twod >= 0 else 0.0
            upper = float(grid[x + twod][i])
            # 3-sigma slack evaluated at the bracket endpoint under test, so
            # the comparison stays meaningful when p_hat sits at 0 or 1
            se_lo = math.sqrt(lower * (1.0 - lower) / cfg.trials)
            se_hi = math.sqrt(upper * (1.0 - upper) / cfg.trials)
            within = (lower - 3.0 * se_lo) <= p_hat <= (upper + 3.0 * se_hi)
            entry[_fmt(x)] = {
                "mc_estimate": p_hat, "se": se,
                "lower_exact": lower, "upper_exact": upper,
                "within_bracket": bool(within),
            }
            checks[f"bracket_L{L}_x{x:g}"] = bool(within)
        summary["per_L"][str(L)] = entry
    if cfg.law.family == "stretched_exp":
        fit_grid = [x for x in cfg.x_grid if x >= twod]
        if fit_grid:
            summary["fitted_c1"] = fit_lower_envelope_constant(
                base_spec, cfg.law, cfg.alpha, fit_grid
            )
    return rows_per_l, header, summary, checks, 0


def _run_sample(cfg: ExperimentConfig, out: Path):
    L = cfg.radii[0]
    spec = cfg.box(L)
    rng = derive_stream(cfg.master_seed, 0, STREAM_POTENTIAL)
    potential = sample_potential(spec, cfg.law, cfg.alpha, rng)
    op = build_hamiltonian(spec, potential)
    sites = site_array(spec)
    rows = []
    for i in range(spec.site_count):
        coords = " ".join(str(c) for c in sites[i])
        rows.append([str(i), coords, _fmt(potential.omegas[i]),
                     _fmt(potential.values[i])])
    header = ["ordinal", "site", "omega", "value"]
    matrix_path = out / f"sample_matrix_L{L}.txt"
    with open(matrix_path, "w") as fh:
        for i, j, v in op.triplets():
            fh.write(f"{i} {j} {_fmt(v)}\n")
    summary = {"matrix_file": matrix_path.name, "sites": spec.site_count}
    return {L: rows}, header, summary, {}, 0


# experiment name -> driver(cfg, out) returning (CSV rows per radius, header,
# summary, checks, exit code); drivers look trial functions up at call time
DRIVERS: dict[str, Callable] = {
    "ids": _run_ids,
    "extremal": _run_extremal,
    "maxlaw": _run_extremal,
    "tailsum": _run_tailsum,
    "sandwich": _run_sandwich,
    "sample": _run_sample,
}
EXPERIMENTS = tuple(DRIVERS)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one configured experiment; write CSVs, summary, and manifest.

    Returns the summary dict (with `exit_code`, `csv_files` keys added).
    Pins the bundled OpenBLAS of this process to one thread for good; see
    `_pin_blas`.
    """
    blas_threads = _pin_blas()
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    rows_per_l, header, summary, checks, code = DRIVERS[cfg.experiment](cfg, out)

    csv_files = []
    for L, rows in rows_per_l.items():
        path = out / f"{cfg.experiment}_L{L}.csv"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        csv_files.append(path.name)

    summary["checks"] = checks
    summary["all_checks_passed"] = all(checks.values()) if checks else True
    if code == 0 and cfg.assert_checks and not summary["all_checks_passed"]:
        code = EXIT_ASSERT
    summary["exit_code"] = code
    summary["csv_files"] = csv_files
    summary["wall_time_s"] = time.perf_counter() - t0

    with open(out / f"{cfg.experiment}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    manifest = {
        "blas_threads": blas_threads,
        "config": cfg.to_dict(),
        "package_version": __version__,
        "versions": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return summary


# ---------------------------------------------------------------------------
# flat key=value config files


def parse_config_text(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from `key = value` lines plus CLI overrides."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        raw[key] = val
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_strings(raw)


# config key -> (ExperimentConfig field, parser of the key's string value)
CONFIG_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    key: (f.name, parse)
    for f in fields(ExperimentConfig)
    for key, parse in (f.metadata.get("keys")
                       or {f.metadata["key"] or f.name: f.metadata["parse"]}).items()
}


def config_from_strings(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in raw:
        raise ConfigError("missing required key: experiment")
    values = {}
    for key, text in raw.items():
        try:
            values[key] = CONFIG_KEYS[key][1](str(text))
        except ValueError as exc:
            raise ConfigError(f"bad value {text!r} for {key}: {exc}") from exc
    try:
        law = law_from_keys(**{k: values.pop(k) for k in LAW_KEYS if k in values})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = ExperimentConfig(law=law, **{CONFIG_KEYS[k][0]: v for k, v in values.items()})
    cfg.validate()
    return cfg
