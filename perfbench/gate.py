"""Output gate: are a run's CSVs and summary right?

Two checks, both numeric within stated tolerances, so that an optimisation
which only reorders floating-point work is not counted as a failure:

* Reference (stored per workload at the canonical seed, under
  `reference/`): CSV digests, giving `outputs_identical`; per-column CSV
  aggregates; every number in the summary; and the `checks` map, where any
  change is flagged. `all_checks_passed` is recorded but not required: the
  shipped ids config fails its own `ids_ks_L1000` check.
* Oracle (every seed): for a sample of trials the potential is regenerated
  from the documented seeding contract (Philox keyed by (master_seed,
  trial), u = 1 - random()) and inverse-transformed here; the CSV row is
  recomputed with exact LAPACK tridiagonal eigenvalues; summary statistics
  are recomputed from the CSV columns.

The oracle covers the configurations the workloads use: d = 1, flat
normalisation for the rescaling experiments.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.special
import scipy.stats

RTOL_CSV = 1e-9        # per-column CSV aggregates against the reference
RTOL_SUMMARY = 1e-6    # summary statistics against the reference
ATOL_SUMMARY = 2e-6    # Levy distances are bisected to 1e-6
EIG_TOL = 1e-8         # eigenvalues, relative to the norm bound 2d + max|V|
POINT_RTOL = 1e-7      # rescaled points f(E)/gamma
ORACLE_TRIALS = 6      # trials per radius recomputed by the oracle

# columns whose values are rounding-level noise, not results
NOISE_COLUMNS = {"solver_resid"}
VOLATILE_SUMMARY_KEYS = {"wall_time_s"}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _load_summary(out_dir: Path, experiment: str) -> dict:
    summary = json.loads((out_dir / f"{experiment}_summary.json").read_text())
    for key in VOLATILE_SUMMARY_KEYS:
        summary.pop(key, None)
    return summary


def _flatten(obj, prefix: str = "") -> dict:
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
        return out
    if isinstance(obj, list):
        out = {}
        for i, v in enumerate(obj):
            out.update(_flatten(v, f"{prefix}{i}."))
        return out
    return {prefix[:-1]: obj}


def _column_aggregates(path: Path) -> dict:
    header, rows = _read_csv(path)
    out = {"rows": len(rows)}
    for j, col in enumerate(header):
        if col in NOISE_COLUMNS:
            continue
        cells = [r[j] for r in rows]
        if col == "points":
            cells = [p for c in cells for p in c.split(";") if p]
        try:
            vals = np.array([float(c) for c in cells])
        except ValueError:  # a label column such as `source`
            out[col] = {v: cells.count(v) for v in sorted(set(cells))}
            continue
        out[col] = [len(vals), float(vals.sum()), float(vals.min(initial=0.0)),
                    float(vals.max(initial=0.0))]
    return out


def snapshot(out_dir: Path, experiment: str, config: dict) -> dict:
    """The reference record of one run's outputs."""
    summary = _load_summary(out_dir, experiment)
    checks = summary.pop("checks")
    csvs = sorted(summary["csv_files"])
    blob = json.dumps(summary, sort_keys=True).encode()
    return {
        "config": {k: v for k, v in config.items() if k != "out_dir"},
        "csv_sha256": {name: _sha256(out_dir / name) for name in csvs},
        "summary_sha256": hashlib.sha256(blob).hexdigest(),
        "summary": {k: v for k, v in _flatten(summary).items()
                    if not k.startswith("csv_files")},
        "checks": checks,
        "csv_aggregates": {name: _column_aggregates(out_dir / name) for name in csvs},
    }


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    if isinstance(a, (bool, str)) or isinstance(b, (bool, str)) or a is None or b is None:
        return a == b
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def compare_reference(ref: dict, got: dict) -> tuple[bool, list[str]]:
    """(outputs_identical, problems) of a snapshot against the reference."""
    problems = []
    if ref["config"] != got["config"]:
        return False, ["config differs from the reference's"]
    identical = (ref["csv_sha256"] == got["csv_sha256"]
                 and ref["summary_sha256"] == got["summary_sha256"])
    if ref["checks"] != got["checks"]:
        changed = sorted(k for k in set(ref["checks"]) | set(got["checks"])
                         if ref["checks"].get(k) != got["checks"].get(k))
        problems.append(f"checks changed: {changed}")
    for key in sorted(set(ref["summary"]) | set(got["summary"])):
        a, b = ref["summary"].get(key), got["summary"].get(key)
        if not _close(a, b, RTOL_SUMMARY, ATOL_SUMMARY):
            problems.append(f"summary {key}: {b} vs reference {a}")
    for name, ref_cols in ref["csv_aggregates"].items():
        cols = got["csv_aggregates"].get(name)
        if cols is None or cols["rows"] != ref_cols["rows"]:
            problems.append(f"{name}: missing or wrong row count")
            continue
        for col, agg in ref_cols.items():
            other = cols.get(col)
            if isinstance(agg, list):
                ok = other is not None and other[0] == agg[0] and all(
                    _close(x, y, RTOL_CSV, 1e-12 * agg[0]) for x, y in zip(agg[1:], other[1:]))
            else:
                ok = agg == other
            if not ok:
                problems.append(f"{name} column {col}: {other} vs reference {agg}")
    return identical, problems


# ---------------------------------------------------------------------------
# oracle: an independent recomputation from the seeding contract


def _uniforms(seed: int, trial: int, n: int) -> np.ndarray:
    key = np.array([seed, trial], dtype=np.uint64)
    return 1.0 - np.random.Generator(np.random.Philox(key=key)).random(n)


def _f(law: dict, x: np.ndarray) -> np.ndarray:
    if law["family"] == "power_log":
        out = x ** law["p"]
        return out * np.log(x) ** (-law["k"]) if law["k"] else out
    return np.exp(x ** law["delta"])


def _tail(law: dict, x: np.ndarray) -> np.ndarray:
    """P(omega >= x) = min(1, 1/f(x)) above the clamp, 1 below it."""
    above = x >= _clamp(law)
    x = np.where(above, x, 1.0)
    if law["family"] == "power_log":
        inv = x ** (-law["p"]) * np.log(x) ** law["k"]
    else:
        inv = np.exp(-(x ** law["delta"]))
    return np.where(above, np.minimum(1.0, inv), 1.0)


def _clamp(law: dict) -> float:
    """Lower end of the sampled range; the oracle covers f(e^(k/p)) >= 1."""
    if law["family"] == "stretched_exp":
        return 0.0
    p, k = law["p"], law["k"]
    if k == 0:
        return 1.0
    if k * math.log(math.e * p / k) < 0.0:
        raise NotImplementedError("oracle needs f(e^(k/p)) >= 1")
    return math.exp(k / p)


def _omegas(law: dict, u: np.ndarray) -> np.ndarray:
    """f^-1(max(1/u, f(clamp))), in closed form (Lambert W for k >= 1)."""
    clamp = _clamp(law)
    y = 1.0 / u
    if law["family"] == "stretched_exp":
        return np.log(y) ** (1.0 / law["delta"])
    p, k = law["p"], law["k"]
    if k == 0:
        return y ** (1.0 / p)
    y = np.maximum(y, float(_f(law, np.array(clamp))))
    # x^p log(x)^-k = y  <=>  s = log x = -(k/p) W_-1(-(p/k) y^(-1/k))
    arg = np.maximum(-(p / k) * y ** (-1.0 / k), -1.0 / math.e)
    return np.exp(-(k / p) * scipy.special.lambertw(arg, -1).real)


def _potential(c: dict, trial: int, L: int) -> np.ndarray:
    if c["dimension"] != 1:
        raise NotImplementedError("oracle covers d = 1")
    n = 2 * L + 1
    omegas = _omegas(c["law"], _uniforms(c["master_seed"], trial, n))
    return omegas / (1.0 + np.abs(np.arange(-L, L + 1.0))) ** c["alpha"]


def _top_eigs(V: np.ndarray, count: int) -> np.ndarray:
    """The `count` largest eigenvalues of tridiag(1, V, 1), descending."""
    n = V.size
    count = min(count, n)
    vals = scipy.linalg.eigvalsh_tridiagonal(
        V, np.ones(n - 1), select="i", select_range=(n - count, n - 1))
    return vals[::-1]


def _sampled_trials(trials: int) -> list[int]:
    return sorted({int(t) for t in np.linspace(0, trials - 1, min(trials, ORACLE_TRIALS)).round()})


def _rows_by_trial(out_dir: Path, experiment: str, L: int):
    header, rows = _read_csv(out_dir / f"{experiment}_L{L}.csv")
    return [dict(zip(header, r)) for r in rows]


def _oracle_extremal(c: dict, out_dir: Path, summary: dict) -> list[str]:
    problems = []
    law, m = c["law"], c["top_m"]
    floor = max(_clamp(law), np.finfo(float).tiny)
    sources = ("V", "H") if c["source"] == "both" else (c["source"],)
    if c["scaling_mode"] != "flat":
        raise NotImplementedError("oracle covers flat normalisation")
    for L in c["radii"]:
        gamma = float(2 * L + 1)
        rows = {(int(r["trial"]), r["source"]): r
                for r in _rows_by_trial(out_dir, c["experiment"], L)}
        if len(rows) != c["trials"] * len(sources):
            problems.append(f"L={L}: {len(rows)} rows for {c['trials']} trials")
            continue
        for t in _sampled_trials(c["trials"]):
            V = _potential(c, t, L)
            atol = EIG_TOL * (2.0 + np.max(np.abs(V)))
            for source in sources:
                row = rows[(t, source)]
                if source == "V":
                    eigs = np.sort(V[V > 0.0])[::-1]
                    wide = eigs
                else:
                    wide = _top_eigs(V, 4 * m)
                    wide = wide[wide > 0.0]
                    eigs = wide[:m]
                kept = eigs[eigs >= floor]
                points = _f(law, kept) / gamma
                got_points = [float(p) for p in row["points"].split(";") if p]
                where = f"L={L} trial {t} source {source}"
                if not _close(float(row["e1_raw"]), float(eigs[0]) if eigs.size else 0.0,
                              0.0, atol):
                    problems.append(f"{where}: e1_raw {row['e1_raw']} vs oracle {eigs[0]}")
                if int(row["dropped"]) != eigs.size - kept.size:
                    problems.append(f"{where}: dropped {row['dropped']} vs oracle "
                                    f"{eigs.size - kept.size}")
                if len(got_points) != min(m, points.size) or not np.allclose(
                        got_points, points[:m], rtol=POINT_RTOL, atol=0.0):
                    problems.append(f"{where}: rescaled points differ from the oracle")
                all_points = _f(law, wide[wide >= floor]) / gamma
                for a, b in c["intervals"]:
                    b = math.inf if b == "inf" else b
                    col = f"count_{a:g}_{'inf' if math.isinf(b) else format(b, 'g')}"
                    want = int(np.sum((all_points >= a) & (all_points < b)))
                    if int(row[col]) != want:
                        problems.append(f"{where}: {col} {row[col]} vs oracle {want}")
        for source in sources:
            entry = summary["per_L"][str(L)]["sources"][source]
            good = [float(r["e1_rescaled"]) for (t, s), r in sorted(rows.items())
                    if s == source and r["converged"] == "1"]
            if "max_law" in entry:
                stat = scipy.stats.kstest(good, lambda x: np.exp(-1.0 / x)).statistic
                if not _close(entry["max_law"]["statistic"], float(stat), 1e-9, 1e-12):
                    problems.append(f"L={L} {source}: max-law KS {entry['max_law']['statistic']}"
                                    f" vs {stat} from the CSV")
    return problems


def _oracle_sandwich(c: dict, out_dir: Path, summary: dict) -> list[str]:
    problems = []
    radii, L_max = c["radii"], max(c["radii"])
    rows = {L: _rows_by_trial(out_dir, "sandwich", L) for L in radii}
    for t in _sampled_trials(c["trials"]):
        V = _potential(c, t, L_max)
        for L in radii:
            sub = V[L_max - L: L_max + L + 1]
            row = rows[L][t]
            e1_h = float(_top_eigs(sub, 1)[0])
            if int(row["trial"]) != t or not _close(float(row["e1_h"]), e1_h, 1e-10) \
                    or not _close(float(row["e1_v"]), float(sub.max()), 1e-12):
                problems.append(f"L={L} trial {t}: e1 differs from the oracle")
    law, alpha = c["law"], c["alpha"]
    for xs, per_l in summary["exact_cdf"].items():
        x = float(xs)
        for L in radii:
            w = (1.0 + np.abs(np.arange(-L, L + 1.0))) ** alpha
            tail = _tail(law, w * x)
            want = 0.0 if np.any(tail >= 1.0) else math.exp(np.sum(np.log1p(-tail)))
            if not _close(per_l[str(L)], want, 1e-9, 1e-300):
                problems.append(f"exact CDF at x={xs} L={L}: {per_l[str(L)]} vs {want}")
    for L in radii:
        e1 = np.array([float(r["e1_h"]) for r in rows[L]])
        for xs, entry in summary["per_L"][str(L)].items():
            if entry["mc_estimate"] != float(np.mean(e1 <= float(xs))):
                problems.append(f"L={L} x={xs}: Monte Carlo estimate disagrees with the CSV")
    return problems


def _oracle_ids(c: dict, out_dir: Path, summary: dict) -> list[str]:
    problems = []
    for L in c["radii"]:
        n = 2 * L + 1
        rows = _rows_by_trial(out_dir, "ids", L)
        free = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        row = rows[0]
        eigs = scipy.linalg.eigvalsh_tridiagonal(_potential(c, 0, L), np.ones(n - 1))
        bulk = eigs[(eigs >= -2.0) & (eigs <= 2.0)]
        ks_bulk = scipy.stats.ks_2samp(bulk, free, method="asymp").statistic
        ks_full = scipy.stats.ks_2samp(eigs, free, method="asymp").statistic
        atol = 3.0 / n  # one eigenvalue crossing a free one moves KS by 1/n
        if not (_close(float(row["ks_bulk"]), ks_bulk, 0.0, atol)
                and _close(float(row["ks_full"]), ks_full, 0.0, atol)
                and int(row["n_outside_band"]) == n - bulk.size):
            problems.append(f"L={L} trial 0: KS or band count differs from the oracle")
        for r in rows:
            if not 0.0 < float(r["levy_bulk"]) <= float(r["ks_bulk"]) + 1e-12:
                problems.append(f"L={L} trial {r['trial']}: Levy distance not in (0, KS]")
        mean_ks = float(np.mean([float(r["ks_bulk"]) for r in rows]))
        if not _close(summary["per_L"][str(L)]["mean_ks_bulk"], mean_ks, 1e-12):
            problems.append(f"L={L}: mean KS disagrees with the CSV")
    return problems


ORACLES = {
    "extremal": _oracle_extremal,
    "maxlaw": _oracle_extremal,
    "sandwich": _oracle_sandwich,
    "ids": _oracle_ids,
}


def oracle_check(config: dict, out_dir: Path) -> list[str]:
    """Problems the independent recomputation finds in one run's outputs."""
    summary = _load_summary(out_dir, config["experiment"])
    return ORACLES[config["experiment"]](config, out_dir, summary)
