"""Experiment orchestration: config, seeded parallel trials, persistence.

Every random draw in a run comes from a counter-based (Philox) generator
keyed by (master_seed, trial_index) and advanced to a per-purpose stream
offset, so results are identical for any worker count or scheduling order.
Trials run in the parent, or over a process pool when they cost more than
starting one (`_map_trials`), and are folded in trial-index order; CSV
outputs carry no timing, making reruns byte-identical.
"""
from __future__ import annotations

import functools
import importlib
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

from . import __version__, openblas
from .lattice import BoxSpec, CapacityError, check_capacity, site_array
from .operators import (
    DENSE_CAP_DEFAULT,
    TopPlan,
    build_hamiltonian,
    check_dense_cap,
    free_laplacian_eigs,
    restrict_potential,
    sample_potential,
    sample_potentials,
    top_plan,
    top_values,
    v_spectrum,
)
from .eigen import (
    LANCZOS_MAX_ITER_DEFAULT,
    LANCZOS_TOL_DEFAULT,
    Spectrum,
    count_above,
    count_le,
    extremal_topk,
    full_spectrum,
    load_solver,
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
    RescaledPointSet,
    SpectrumCounts,
    count_in_intervals,
    exact_max_cdf_ladder,
    fit_lower_envelope_constant,
    ks_distance,
    levy_distance,
    max_law_test,
    poisson_gof,
    poisson_joint_gof,
    rescale,
    sorted_counter,
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

# a V sampling plan's level is where the box expects at least this many times
# top_m rescaled points, so that fewer than top_m reach it about once in 1e7
TOP_COUNT_FACTOR = 4

# seconds of CPU a 2-worker pool adds to a map: the fork, the executor's
# threads and each fresh worker's copy-on-write warm-up. On a 2-vCPU Xeon at
# one BLAS thread, an empty pool took 12-14 ms of CPU, parent and workers,
# and mapping the 100 V-only trials of the benchmark's maxlaw-logtail
# workload (configs/maxlaw.cfg, k = 1) over one took 23-28 ms more CPU than
# mapping them in process (quartiles of 15 alternating runs). `_map_trials`
# keeps in the parent a map that would take it less than this
POOL_START_S = 0.025
# `_map_trials` stops running payloads in the parent once those it ran
# predict the rest above this many times POOL_START_S. The first payloads of
# a map run slow: maxlaw-logtail's first trial took 0.28-0.42 ms in process
# against 0.11-0.20 ms for the next four (6 warm runs, 2-vCPU Xeon), so a
# margin keeps its 100 trials, about 12 ms, in the parent, while
# sandwich-ladder's first block of 62 or 63 of its 1000 trials (7-8 ms)
# predicts the other 15 at about 0.11 s, so the head runs at most two of
# its 16 blocks before it pools the rest
HEAD_MARGIN = 4
# a larger sandwich radius keeps the E1 of the radius below when none of its
# eigenvalues lies this many times norm_bound() above it: more than the
# 3 eps of dstebz's own tolerance (`_sandwich_trial`)
LADDER_SLACK = 4.0 * np.finfo(np.float64).eps


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@functools.cache
def _build_seed() -> np.random.SeedSequence:
    """What a generator is built from before `rekey` sets its key and
    counter: made once, since a new SeedSequence costs more than the Philox
    it seeds, and on first use, so that importing this module does not load
    numpy.random."""
    return np.random.SeedSequence(0)


def derive_stream(
    master_seed: int, trial_index: int, stream_index: int = 0
) -> np.random.Generator:
    """Independent uniform stream for (master_seed, trial, stream) triples.

    Philox is counter-based: the key is (master_seed, trial_index) and the
    counter is advanced by stream_index * 2**64 blocks, so distinct triples
    address disjoint segments of one keyed sequence. Each call builds a new
    generator; `rekey` moves one already built to another triple.
    """
    return rekey(np.random.Generator(np.random.Philox(_build_seed())), master_seed,
                 trial_index, stream_index)


def rekey(rng: np.random.Generator, master_seed: int, trial_index: int,
          stream_index: int = 0) -> np.random.Generator:
    """`rng`, its Philox bit generator set to the start of the stream of
    (master_seed, trial_index, stream_index), with nothing buffered; it then
    draws what `derive_stream` of the triple draws.

    The state is the key and the counter (0, stream_index, 0, 0), the
    256-bit block counter advanced by stream_index * 2**64. Setting it costs
    a few microseconds, where a new `Philox(key=...)` also builds and hashes
    a SeedSequence that the key then replaces.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, stream_index, 0, 0], dtype=np.uint64),
                  "key": np.array([master_seed, trial_index], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


# ---------------------------------------------------------------------------
# config schema: every config key is declared once, on its ExperimentConfig
# field, with the parser of its string value; defaults are the fields'


def _items(text: str) -> list[str]:
    """The comma-separated items of a list value, none of an empty value."""
    items = text.split(",") if text else []
    if not all(s.strip() for s in items):
        raise ValueError("empty item")
    return items


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in _items(text))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in _items(text))


def _intervals(text: str) -> tuple[tuple[float, float], ...]:
    """Comma-separated a:b pairs; an empty or `inf` b is infinity."""
    out = []
    for token in _items(text):
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
    """One experiment's settings, checked when built: every instance is valid.

    `__post_init__` runs `validate()`, so a config from `config_from_strings`,
    from the constructor or from `dataclasses.replace` has passed every
    check, and nothing checks it again.
    """

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
    dense_cap: int = _key(int, DENSE_CAP_DEFAULT)
    workers: int = _key(int, 1)
    out_dir: str = _key(str, "out", key="out")
    assert_checks: bool = _key(_bool, False, key="assert")
    ks_threshold: float = _key(float, 0.07)
    p_threshold: float = _key(float, 0.01)

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

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError unless the config can run, before any compute.

        Called once, by `__post_init__`; the calibration-bracket check costs
        one exact tail sum per radius.
        """
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for name, least in (("trials", 1), ("workers", 1), ("top_m", 0), ("dense_cap", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if not self.radii:
            raise ConfigError("radii must not be empty")
        if list(self.radii) != sorted(set(self.radii)):
            raise ConfigError("radii must be strictly increasing")
        if self.experiment == "sample" and len(self.radii) > 1:
            raise ConfigError("sample takes one radius")
        if self.experiment != "extremal" and self.intervals:
            # they would count nothing, yet their starts would set top_m
            raise ConfigError(f"{self.experiment} counts no intervals: use extremal")
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
        if not 0.0 <= self.alpha < math.inf:
            raise ConfigError(f"alpha must be >= 0 and finite, got {self.alpha}")
        # a KS distance and a p-value lie in [0, 1]: a threshold outside it
        # makes its checks pass or fail whatever the data
        for name in ("ks_threshold", "p_threshold"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
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
            # the site cap binds every box, and the dense cap an ids box at
            # d >= 2, whose trials take the dense spectrum; a d = 1 ids
            # trial only counts, in O(n) memory
            for L in self.radii:
                box = self.box(L)
                check_capacity(box)
                if self.experiment == "ids" and self.dimension >= 2:
                    check_dense_cap(box.site_count, self.dense_cap)
            # only the rescaling experiments consume a scaling mode; a
            # calibration whose tail sum can never reach 1 fails here
            if self.experiment in ("extremal", "maxlaw", "tailsum"):
                check_regime(self.scaling_mode, self.dimension, self.law, self.alpha)
                if self.scaling_mode == "calibrated" and self.alpha != 0.0:
                    for L in self.radii:
                        calibration_floor(self.box(L), self.law, self.alpha)
        except (ValueError, CapacityError) as exc:
            raise ConfigError(str(exc)) from exc

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
            # the Lanczos path's fixed tolerance and restart cap, which the
            # benchmark's recorded configs still carry
            "solver_tol": LANCZOS_TOL_DEFAULT,
            "solver_max_iter": LANCZOS_MAX_ITER_DEFAULT,
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
    if solver_path(cfg.dimension, op.n, m, cfg.solver, cfg.dense_cap) == "lanczos":
        rng = derive_stream(cfg.master_seed, trial, STREAM_SOLVER)
        return extremal_topk(op, m, rng)
    return full_spectrum(op, m=m)


def _solve_paths(cfg: ExperimentConfig) -> set[str]:
    """The `solver_path` names a config's mapped trials can take.

    None for `ids` at d = 1, whose trials only count, and for `source = V`,
    whose trials solve nothing; "dense" for `ids` at d >= 2; else the path of
    each radius's top-m solve, m = `resolved_top_m()`, or 1 for `sandwich`.
    """
    if cfg.experiment == "ids":
        return set() if cfg.dimension == 1 else {"dense"}
    if cfg.experiment != "sandwich" and cfg.source == "V":
        return set()
    m = 1 if cfg.experiment == "sandwich" else cfg.resolved_top_m()
    return {solver_path(cfg.dimension, cfg.box(L).site_count, m, cfg.solver, cfg.dense_cap)
            for L in cfg.radii}


def _top_plan(cfg: ExperimentConfig, L: int, gamma: float) -> TopPlan | None:
    """The V sampling plan (`operators.top_plan`) a V-only trial of one
    radius reads; None for the other sources.

    Its level is where the box expects TOP_COUNT_FACTOR * top_m rescaled
    points, never above the lowest interval start the run counts from.
    `_run_extremal` makes it before the fork, so the pool's workers inherit
    it from `top_plan`'s cache.
    """
    if cfg.source != "V":
        return None
    return top_plan(cfg.box(L), cfg.law, cfg.alpha, gamma,
                    TOP_COUNT_FACTOR * cfg.resolved_top_m(),
                    min((a for a, _ in cfg.intervals), default=math.inf))


def _extremal_trial(args):
    """A block of consecutive trials of the extremal/maxlaw pipeline at one
    box radius; `args` is (cfg, L, gamma, trials), `trials` a range. Returns
    {"rows": one dict per trial, in trial order, "wall": the block's time}.
    Trials that solve H come in blocks of one (`_trial_blocks`).

    H is solved for its top m = `resolved_top_m()` eigenvalues. When the run
    counts intervals, the solve is repeated with m doubled (capped at n)
    while all m values came back and the smallest still rescales to at
    least the lowest interval start; every eigenvalue an interval can see is
    then in the solve, so the counts are exact given the solver's top set.

    A V-only block evaluates only the sites its radius's `TopPlan` keeps
    (`top_values`), inverting the tail law once for the block, and draws
    each trial's uniforms from one generator re-keyed per trial (`rekey`).
    Each source rescales its positive values in one `rescale` call per
    block, only each trial's top m of them when the run counts no intervals,
    and `dropped` counts the values among a trial's top m that lie below
    the law's point floor.
    """
    cfg, L, gamma, trials = args
    t0 = time.perf_counter()
    spec, law, m = cfg.box(L), cfg.law, cfg.resolved_top_m()
    with_counts = bool(cfg.intervals)
    # source -> (descending values, solver residual, converged) per trial
    solved: dict[str, list[tuple[np.ndarray, float, bool]]] = {}
    if cfg.source == "V":
        rng = derive_stream(cfg.master_seed, trials[0])  # re-keyed for each trial
        streams = [functools.partial(rekey, rng, cfg.master_seed, t, STREAM_POTENTIAL)
                   for t in trials]
        solved["V"] = [(desc, 0.0, True) for desc in top_values(
            spec, law, cfg.alpha, streams, _top_plan(cfg, L, gamma), m)]
    else:
        (trial,) = trials
        potential = sample_potential(spec, law, cfg.alpha,
                                     derive_stream(cfg.master_seed, trial, STREAM_POTENTIAL))
        if cfg.source == "both":
            solved["V"] = [(v_spectrum(potential), 0.0, True)]
        op = build_hamiltonian(spec, potential)
        k = m
        while True:
            spectrum = _solve_h(cfg, op, trial, k)
            # values ascend: the first is the smallest of the top k
            if not (with_counts and spectrum.values.size == k < op.n
                    and rescale(spectrum.values[:1], law, gamma).top
                    >= min(a for a, _ in cfg.intervals)):
                break
            k = min(2 * k, op.n)
        resid = (0.0 if spectrum.residuals is None
                 else float(np.max(spectrum.residuals, initial=0.0)))
        solved["H"] = [(spectrum.values[::-1], resid, spectrum.converged)]
    rows = [{"trial": t, "L": L} for t in trials]
    for source, per_trial in solved.items():
        eigs = [desc[desc > 0.0] if with_counts else desc[desc > 0.0][:m]
                for desc, _, _ in per_trial]
        # rescale keeps each trial's values at or above the floor, a prefix
        points = rescale(np.concatenate(eigs), law, gamma).points
        stop = 0
        for row, e, (_, resid, converged) in zip(rows, eigs, per_trial):
            start, stop = stop, stop + int(np.count_nonzero(e >= law.point_floor))
            kept = RescaledPointSet(points[start:stop])
            row[source] = {
                "e1_raw": float(e[0]) if e.size else 0.0,
                "e1": kept.top,
                "dropped": min(e.size, m) - min(stop - start, m),
                "points": kept.points[:m].tolist(),
                "counts": count_in_intervals(kept, cfg.intervals).tolist() if with_counts else [],
                "resid": resid,
                "converged": bool(converged),
            }
    return {"rows": rows, "wall": time.perf_counter() - t0}


def _ids_trial(args):
    """One sample of the empirical-measure comparison at one box radius."""
    cfg, L, trial = args
    t0 = time.perf_counter()
    spec = cfg.box(L)
    rng = derive_stream(cfg.master_seed, trial, STREAM_POTENTIAL)
    potential = sample_potential(spec, cfg.law, cfg.alpha, rng)
    op = build_hamiltonian(spec, potential)
    # every column is a function of N(x) = #{eigenvalues <= x}: Sturm counts
    # at d = 1, binary search in the dense spectrum at d >= 2
    if cfg.dimension == 1:
        spectrum = SpectrumCounts(functools.partial(count_le, op), op.n)
    else:
        spectrum = SpectrumCounts(
            sorted_counter(full_spectrum(op, dense_cap=cfg.dense_cap).values), op.n)
    free = free_laplacian_eigs(cfg.dimension, L)
    band = 2.0 * cfg.dimension
    bulk = spectrum.window(-band, band)
    return {
        "trial": trial,
        "L": L,
        "ks_bulk": ks_distance(bulk, free),
        "levy_bulk": levy_distance(bulk, free),
        "ks_full": ks_distance(spectrum, free),
        "n_outside_band": spectrum.size - bulk.size,
        "wall": time.perf_counter() - t0,
    }


def _sandwich_trial(args):
    """Largest eigenvalue of H and of V at every ladder radius, each trial
    from one sample of the largest box; `args` is (cfg, trials), `trials` a
    range of consecutive trials. Returns {"rows": one dict per trial, in
    trial order, "wall": the block's time}.

    The block draws its samples in one `sample_potentials` call, from one
    generator re-keyed per trial (`rekey`), and takes each radius's V
    maxima in one reduction over the block.

    Each box is a principal submatrix of the next, so by Cauchy interlacing
    E1 never falls along the ladder (Horn & Johnson, Matrix Analysis,
    section 4.3). A radius whose E1 bisects (d = 1), above one whose E1 did,
    first counts its eigenvalues above s = e + delta (`count_above`), e the
    unclipped E1 below and delta = LADDER_SLACK * norm_bound(). If none is
    above s, E1 lies in [E1 below, s] and e is kept: within delta of E1, as
    a bisection is. dstebz at ABSTOL = 0 stops once an interval is narrower
    than ulp * TNORM + 2 ulp |lambda| (at most: ATOLI = ulp * TNORM and
    RTOLI = RELFAC * ulp, RELFAC = 2, with ulp = eps and TNORM the
    Gershgorin bound), and TNORM and |E1| are at most norm_bound(): it
    places E1 within 3 eps * norm_bound() < delta. Otherwise, as at the
    first radius and at d >= 2, E1 is solved, to the float it had without
    the count; that tolerance puts it above e.
    """
    cfg, trials = args
    t0 = time.perf_counter()
    big_spec, d = cfg.box(max(cfg.radii)), cfg.dimension
    rng = derive_stream(cfg.master_seed, trials[0])  # re-keyed for each trial
    bigs = sample_potentials(big_spec, cfg.law, cfg.alpha, [
        functools.partial(rekey, rng, cfg.master_seed, t, STREAM_POTENTIAL) for t in trials])
    # the block's V on a (trials,) + (side,) * d grid; each radius's box is
    # its central block, as in `restrict_potential`
    R, axes = big_spec.radius, tuple(range(1, d + 1))
    grid = np.stack([big.values for big in bigs]).reshape((len(trials),) + (big_spec.side,) * d)
    e1v = {L: np.max(grid[(slice(None),) + (slice(R - L, R + L + 1),) * d], axis=axes).tolist()
           for L in cfg.radii}
    bisects = {L: solver_path(d, cfg.box(L).site_count, 1, cfg.solver,
                              cfg.dense_cap) == "bisection" for L in cfg.radii}
    rows = []
    for i, (trial, big) in enumerate(zip(trials, bigs)):
        e1 = {}
        below = None  # the unclipped E1 of the radius below, when it bisected
        for L in cfg.radii:
            pot = restrict_potential(big, L)
            op = build_hamiltonian(pot.spec, pot)
            if (bisects[L] and below is not None
                    and count_above(op, below + LADDER_SLACK * op.norm_bound()) == 0):
                top = below
            else:
                top = float(_solve_h(cfg, op, trial, 1).values[-1])
            below = top if bisects[L] else None
            e1[L] = top if top > 0.0 else 0.0
        rows.append({"trial": trial, "e1_h": e1, "e1_v": {L: e1v[L][i] for L in cfg.radii}})
    return {"rows": rows, "wall": time.perf_counter() - t0}


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
    for lib in openblas.bundled():
        if lib.get_num_threads() != 1:
            lib.set_num_threads(1)
        pinned[lib.name] = lib.get_num_threads()
    return pinned


def _map_trials(cfg: ExperimentConfig, worker, payloads: list):
    """Map trials in this process or over a pool; results in payload order.

    `workers` is an upper bound: a pool has at most one process per payload
    and per usable core, and the map runs serially when that is one. Else
    the parent first runs payloads itself from the end of the list, the
    cheap end under `_map_radii`'s largest-radius-first order: at most one
    pool chunk, len(payloads) // (4 * workers), and none once those it ran
    predict the rest, at their median time, above HEAD_MARGIN * POOL_START_S.
    It finishes the list itself when that prediction is below POOL_START_S,
    and maps the rest over the pool otherwise. Where a payload runs changes
    no result, and the choice is written nowhere.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(cfg.workers, len(payloads), cores)
    if workers <= 1:
        return [worker(p) for p in payloads]
    tail: list = []  # results of payloads[-len(tail):], the last payload first
    times: list[float] = []  # the parent's time for each of them
    rest = 0.0  # the time the payloads left would take
    # the parent runs at most one payload in 4 * workers, so each worker gets
    # one. The (lower) median predicts the rest, so one slow payload among
    # fast ones does not send a cheap map to a pool
    while len(tail) < len(payloads) // (4 * workers) and rest < HEAD_MARGIN * POOL_START_S:
        t0 = time.perf_counter()
        tail.append(worker(payloads[-1 - len(tail)]))
        times.append(time.perf_counter() - t0)
        rest = sorted(times)[(len(times) - 1) // 2] * (len(payloads) - len(tail))
    left = payloads[:len(payloads) - len(tail)]
    if tail and rest < POOL_START_S:
        return [worker(p) for p in left] + tail[::-1]
    # load once, before the fork, what the trials import and no more, so the
    # workers inherit it: what each path their solves take calls (none when
    # they solve nothing), and numpy.random for every trial's derive_stream.
    # scipy.linalg brings numpy.random, but a run without it must load it
    # here, or every worker of every run imports it again
    importlib.import_module("numpy.random")
    for path in sorted(_solve_paths(cfg)):
        load_solver(path)
    with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas) as pool:
        pooled = list(pool.map(worker, left, chunksize=max(1, len(left) // (4 * workers))))
    return pooled + tail[::-1]


def _trial_blocks(cfg: ExperimentConfig) -> list[range]:
    """The runs of consecutive trials a map sends as payloads, in order.

    One trial each where trials solve H or count (`ids`). V-only extremal
    and maxlaw trials and `sandwich` trials share a block's fixed per-call
    costs: min(trials, 8 * workers) blocks, whose sizes differ by at most
    one. A radius then still maps at least 8 * workers payloads, or one per
    trial, so `_map_trials`'s head times at least two of them, and one slow
    payload (a garbage collection, a cold cache) cannot send a cheap map to
    a pool. Equal sizes matter too: the head runs the end of the list, and
    a short last block would predict the rest far too cheap.
    """
    n = cfg.trials
    if not (cfg.experiment == "sandwich"
            or (cfg.experiment in ("extremal", "maxlaw") and cfg.source == "V")):
        return [range(t, t + 1) for t in range(n)]
    k = min(n, 8 * cfg.workers)
    return [range(n * i // k, n * (i + 1) // k) for i in range(k)]


def _map_radii(cfg: ExperimentConfig, worker, payload: Callable) -> dict[int, list]:
    """One `_map_trials` call over payload(L, trials) for every radius and
    every block of `_trial_blocks`, the largest radius first so that its
    long trials start first; each radius's results come back in trial
    order, one per block."""
    radii, blocks = cfg.radii[::-1], _trial_blocks(cfg)  # validate() holds radii increasing
    results = _map_trials(cfg, worker, [payload(L, b) for L in radii for b in blocks])
    k = len(blocks)
    return {L: results[i * k:(i + 1) * k] for i, L in enumerate(radii)}


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
        gamma = resolve_gamma(cfg.scaling_mode, spec, cfg.law, cfg.alpha)
        gammas.append(gamma)
        rows = []
        entry = {"gamma": gamma, "mode": cfg.scaling_mode, "x": {}}
        for x in cfg.x_grid:
            total, max_p, sum_sq = tail_sum_stats(spec, cfg.law, cfg.alpha,
                                                  gamma, x)
            err = abs(total - 1.0 / x)
            rows.append([str(L), _fmt(x), cfg.scaling_mode, _fmt(gamma),
                         _fmt(total), _fmt(err)])
            entry["x"][_fmt(x)] = {
                "sum": total, "abs_err_vs_inv_x": err, "scaled_err": err * x,
                "max_site_prob": max_p, "sum_sq": sum_sq,
                "max_bound_inv_gamma_x": 1.0 / (gamma * x),
            }
            if x in prev_err and err * x >= prev_err[x]:
                monotone = False
            prev_err[x] = err * x
        if (cfg.law.family == "power_log" and L >= 2
                and cfg.alpha * cfg.law.p < cfg.dimension - 1e-12):
            theory = gamma_power(cfg.dimension, cfg.alpha, cfg.law.p, cfg.law.k, L)
            entry["gamma_power_formula"] = theory
            entry["ratio_vs_power_formula"] = gamma / theory
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
    with_counts = bool(cfg.intervals)
    sources = ("V", "H") if cfg.source == "both" else (cfg.source,)
    count_cols = [f"count_{_interval_label(a, b)}" for a, b in cfg.intervals] \
        if with_counts else []
    header = ["trial", "L", "source", "e1_raw", "e1_rescaled", "dropped",
              "solver_resid", "converged"] + count_cols + ["points"]
    rows_per_l: dict[int, list[list[str]]] = {}
    summary: dict = {"per_L": {}}
    checks: dict[str, bool] = {}
    flagged_total = 0
    gammas = {L: resolve_gamma(cfg.scaling_mode, cfg.box(L), cfg.law, cfg.alpha)
              for L in cfg.radii}
    for L, gamma in gammas.items():
        # each radius's V sampling plan, cached here so the workers inherit it
        _top_plan(cfg, L, gamma)
    by_radius = _map_radii(cfg, _extremal_trial, lambda L, ts: (cfg, L, gammas[L], ts))
    for L, gamma in gammas.items():
        results = [row for block in by_radius[L] for row in block["rows"]]
        rows = []
        entry: dict = {"gamma": gamma, "mode": cfg.scaling_mode, "sources": {}}
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
            gammas[b] > gammas[a] for a, b in zip(cfg.radii, cfg.radii[1:])
        )
    # only H solves can flag: the bar is a share of them, whatever the sources
    solver_failed = flagged_total > MAX_FLAGGED_FRACTION * cfg.trials * len(cfg.radii)
    summary["flagged_trials_total"] = flagged_total
    return rows_per_l, header, summary, checks, (EXIT_SOLVER if solver_failed else 0)


def _run_ids(cfg: ExperimentConfig, out: Path):
    header = ["trial", "L", "ks_bulk", "levy_bulk", "ks_full", "n_outside_band"]
    rows_per_l: dict[int, list[list[str]]] = {}
    summary: dict = {"per_L": {}}
    checks: dict[str, bool] = {}
    means = []
    by_radius = _map_radii(cfg, _ids_trial, lambda L, ts: (cfg, L, ts.start))
    for L in cfg.radii:
        results = by_radius[L]
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
    blocks = _map_trials(cfg, _sandwich_trial, [(cfg, b) for b in _trial_blocks(cfg)])
    results = [row for block in blocks for row in block["rows"]]
    rows_per_l = {
        L: [[str(r["trial"]), str(L), _fmt(r["e1_h"][L]), _fmt(r["e1_v"][L])]
            for r in results]
        for L in cfg.radii
    }
    twod = 2.0 * cfg.dimension
    summary: dict = {"per_L": {}, "exact_cdf": {}}
    checks: dict[str, bool] = {}
    # exact product CDF on the grid and its monotonicity, from one call:
    # a row per x, in increasing x, and a column per radius
    xs = sorted(x for x in {*cfg.x_grid, *(x + s for x in cfg.x_grid for s in (-twod, twod))}
                if x >= 0)
    table = exact_max_cdf_ladder(cfg.box(max(cfg.radii)), cfg.law, cfg.alpha, xs,
                                 list(cfg.radii))
    grid = dict(zip(xs, table))
    for x, vals in grid.items():
        summary["exact_cdf"][_fmt(x)] = {str(L): float(v)
                                         for L, v in zip(cfg.radii, vals)}
    checks["exact_cdf_nonincreasing_in_L"] = bool(np.all(table[:, 1:] <= table[:, :-1]))
    checks["exact_cdf_nondecreasing_in_x"] = bool(np.all(table[:-1] <= table[1:]))
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
            # the last column is the exact CDF of the largest box
            summary["fitted_c1"] = fit_lower_envelope_constant(
                cfg.law, fit_grid, [grid[x][-1] for x in fit_grid]
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
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
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
    return ExperimentConfig(law=law, **{CONFIG_KEYS[k][0]: v for k, v in values.items()})
