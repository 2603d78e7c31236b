"""speclab benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--record-reference]

Run from a checkout holding `src/` and `configs/`. speclab is imported from
`src/`; nothing is installed. Every workload runs one `ExperimentConfig`
through `speclab.harness.run_experiment` in this process, repeated for about
--seconds seconds after one untimed warm-up at smoke size. Each repetition
writes its own output directory under `perfbench/out/`, removed at exit.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  wall_s            median wall time of run_experiment (pool start-up,
                    trials, folding, CSV/JSON writes; no imports)
  trials_per_cpu_s  median of trials x radii per CPU-second, counting
                    user+sys of this process and its pool workers
  setup_s           median over SETUP_PROBES fresh interpreters of the time
                    from process start to a parsed, validated config
  peak_rss_mb       max RSS over this process and its pool workers
--trace 1 alternates untraced and traced repetitions for about half of
--seconds, then runs the layer microbenchmarks (about 10 s), and reports
the per-layer metrics. Layer time is given as a
share of the run's busy time (`<layer>.share`), because a layer a workload
never calls would otherwise report a time of exactly zero; absolute busy
and self times are printed in the per-layer table.

Outputs are checked by gate.py. `attempted` counts trials x radii over the
timed repetitions; `failed` counts flagged (unconverged) trials, and every
unit of a repetition that raised, exited nonzero, wrote outputs that differ
from the first repetition's, or (first repetition) failed the gate. The last
stdout line is the JSON result. BLAS thread settings are recorded as found
and never set here: extremal-lanczos measures what they cost.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SHARE_LAYERS = {  # metric -> (layer, span field)
    "eigen.extremal_topk.share": ("eigen.extremal_topk", "busy_s"),
    "eigen.extremal_topk.self_share": ("eigen.extremal_topk", "self_s"),
    "operators.apply.share": ("operators.apply", "busy_s"),
    "eigen.full_spectrum.share": ("eigen.full_spectrum", "busy_s"),
    "tails.sample_omega_array.share": ("tails.sample_omega_array", "busy_s"),
    "operators.sample_potential.self_share": ("operators.sample_potential", "self_s"),
    "lattice.weights_array.share": ("lattice.weights_array", "busy_s"),
    "operators.restrict_potential.share": ("operators.restrict_potential", "busy_s"),
    "operators.build_hamiltonian.share": ("operators.build_hamiltonian", "busy_s"),
    "stats.exact_max_cdf_ladder.share": ("stats.exact_max_cdf_ladder", "busy_s"),
    "stats.rescale.share": ("stats.rescale", "busy_s"),
    "stats.count_in_intervals.share": ("stats.count_in_intervals", "busy_s"),
    "stats.max_law_test.share": ("stats.max_law_test", "busy_s"),
    "stats.poisson_gof.share": ("stats.poisson_gof", "busy_s"),
    "stats.poisson_joint_gof.share": ("stats.poisson_joint_gof", "busy_s"),
    "stats.ks_distance.share": ("stats.ks_distance", "busy_s"),
    "stats.levy_distance.share": ("stats.levy_distance", "busy_s"),
    "scaling.resolve_gamma.share": ("scaling.resolve_gamma", "busy_s"),
}
UNIT_SUFFIXES = (("_s", "s"), (".ms", "ms"), (".us", "us"), ("ns_per_site", "ns"),
                 ("share", "ratio"), ("_frac", "ratio"), ("_mb", "MiB"),
                 ("_cpu_s", "1/s"))


def unit_of(name: str) -> str:
    """Unit of a metric, from its name; counts have no suffix."""
    unit = "count"
    for suffix, u in UNIT_SUFFIXES:
        if name.endswith(suffix):
            unit = u
    return unit


def environment() -> dict:
    """Where and with what a result was measured; BLAS settings as found."""
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    blas = []
    for pkg in (numpy, scipy):
        site = Path(pkg.__file__).resolve().parent.parent
        for path in sorted(glob.glob(str(site / f"{pkg.__name__}.libs" / "*openblas*"))):
            lib = ctypes.CDLL(path)
            suffix = "64_" if "openblas64" in path else ""
            entry = {"library": Path(path).name}
            for key, sym, restype in (("threads", "get_num_threads", ctypes.c_int),
                                      ("config", "get_config", ctypes.c_char_p)):
                fn = getattr(lib, f"scipy_openblas_{sym}{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], restype
                    val = fn()
                    entry[key] = val.decode() if isinstance(val, bytes) else val
            blas.append(entry)
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "openblas": blas,
        "start_method": __import__("multiprocessing").get_start_method(),
    }


def measure_setup(workload: str, seed: int, smoke: bool, probes: int) -> list[float]:
    """Seconds from interpreter start to a validated config, per probe."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload,
                                 str(seed), str(int(smoke))],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return times


@dataclass
class Rep:
    wall: float
    cpu: float
    units: int
    failed: int
    digest: str
    traced: bool
    spans: list
    error: str | None = None


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _output_digest(out_dir: Path) -> str:
    """Digest of what a run wrote, less its wall time and output path."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_summary.json"):
            doc = json.loads(data)
            doc.pop("wall_time_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        elif path.name == "manifest.json":
            doc = json.loads(data)
            doc["config"].pop("out_dir", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest()


class Bench:
    """One workload's runs at one seed, inside one output directory."""

    def __init__(self, workload, seed: int, smoke: bool, work_dir: Path):
        from speclab.harness import parse_config_text, run_experiment

        self.text = (ROOT / workload.config_file).read_text()
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.work_dir = work_dir
        self.parse, self.run_experiment = parse_config_text, run_experiment
        self.reps: list[Rep] = []

    def config(self, out_dir: Path, smoke: bool | None = None):
        from workloads import overrides_for

        smoke = self.smoke if smoke is None else smoke
        return self.parse(self.text, overrides_for(self.workload, self.seed, str(out_dir), smoke))

    def warm_up(self) -> None:
        """Loads lazily imported code and starts BLAS threads, untimed."""
        self.run_experiment(self.config(self.work_dir / "warmup", smoke=True))

    def rep(self, tracer=None) -> Rep:
        run_experiment = self.run_experiment
        out_dir = self.work_dir / f"rep{len(self.reps)}"
        cfg = self.config(out_dir)
        units = cfg.trials * len(cfg.radii)
        error, flagged = None, 0
        s0 = resource.getrusage(resource.RUSAGE_SELF)
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            summary = tracer.run(run_experiment, cfg) if tracer else run_experiment(cfg)
            if summary["exit_code"] != 0:
                error = f"exit code {summary['exit_code']}"
            flagged = summary.get("flagged_trials_total", 0)
        except Exception:  # one repetition failing must not end the run
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        s1 = resource.getrusage(resource.RUSAGE_SELF)
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = _cpu(s1) - _cpu(s0) + _cpu(c1) - _cpu(c0)
        digest = "" if error else _output_digest(out_dir)
        first = next((r.digest for r in self.reps if not r.error), digest)
        if not error and digest != first:
            error = "outputs differ from the first successful repetition's"
        spans = tracer.spans[:] if tracer else []
        if tracer:
            tracer.spans.clear()
        rep = Rep(wall, cpu, units, units if error else min(units, flagged), digest,
                  tracer is not None, spans, error)
        self.reps.append(rep)
        if len(self.reps) > 1:
            shutil.rmtree(out_dir, ignore_errors=True)
        return rep

    def gate(self) -> dict:
        """Oracle and (canonical seed) reference checks of the first repetition.

        A failed check counts every unit of the first repetition as failed.
        """
        import gate

        out_dir = self.work_dir / "rep0"
        identical, problems = None, ["first repetition failed"]
        if not self.reps[0].error:
            cfg = self.config(out_dir).to_dict()
            path = reference_path(self.workload.name, self.smoke)
            ref = json.loads(path.read_text()) if path.is_file() else None
            try:
                problems = gate.oracle_check(cfg, out_dir)
                if ref and ref["config"]["master_seed"] == self.seed:
                    identical, more = gate.compare_reference(
                        ref, gate.snapshot(out_dir, cfg["experiment"], cfg))
                    problems += more
            except (OSError, KeyError, IndexError, ValueError) as exc:
                problems = [f"outputs missing or malformed: {exc!r}"]
        if problems:
            self.reps[0].failed = self.reps[0].units
        return {"passed": not problems, "outputs_identical": identical,
                "problems": problems}


def reference_path(name: str, smoke: bool) -> Path:
    return HERE / "reference" / f"{name}{'.smoke' if smoke else ''}.json"


def timed_reps(bench: Bench, seconds: float) -> None:
    """Repeat until the next repetition would end after `seconds`."""
    start = time.perf_counter()
    while True:
        bench.rep()
        walls = [r.wall for r in bench.reps]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return


def traced_reps(bench: Bench, seconds: float) -> None:
    """Untraced/traced pairs while the next pair would end within `seconds`."""
    from spans import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        bench.rep()
        tracer.install()
        try:
            bench.rep(tracer)
        finally:
            tracer.uninstall()
        pair = time.perf_counter() - t0
        if time.perf_counter() - start + pair > seconds:
            return


def layer_table(bench: Bench) -> dict[str, float]:
    """Per-layer totals averaged over the traced repetitions."""
    from spans import layer_metrics

    workers = bench.config(bench.work_dir).workers
    per_rep = [layer_metrics(r.spans, workers) for r in bench.reps if r.traced and not r.error]
    if not per_rep:
        raise RuntimeError("every traced repetition failed")
    keys = sorted({k for m in per_rep for k in m})
    return {k: statistics.fmean(m.get(k, 0.0) for m in per_rep) for k in keys}


def per_layer_metrics(bench: Bench, table: dict, micro: dict) -> dict[str, float]:
    untraced = [r.wall for r in bench.reps if not r.traced]
    traced = [r.wall for r in bench.reps if r.traced]
    busy = table["harness.busy_s"]
    out = {name: table.get(f"{layer}.{field}", 0.0) / busy
           for name, (layer, field) in SHARE_LAYERS.items()}
    topk_calls = table.get("eigen.extremal_topk.calls", 0.0)
    sites = table.get("tails.sample_omega_array.sites", 0.0)
    out.update({
        "eigen.extremal_topk.calls": topk_calls,
        "eigen.extremal_topk.iterations": table.get("eigen.extremal_topk.iterations", 0.0),
        "eigen.extremal_topk.converged_frac":
            table.get("eigen.extremal_topk.converged", 0.0) / topk_calls if topk_calls else 0.0,
        "operators.apply.calls": table.get("operators.apply.calls", 0.0),
        "eigen.full_spectrum.calls": table.get("eigen.full_spectrum.calls", 0.0),
        "eigen.full_spectrum.sites": table.get("eigen.full_spectrum.sites", 0.0),
        "tails.sample_omega_array.sites": sites,
        "tails.sample_omega_array.ns_per_site":
            table.get("tails.sample_omega_array.busy_s", 0.0) / sites * 1e9,
        "harness.busy_s": busy,
        "harness.pool_idle_frac": table["harness.pool_idle_frac"],
        "harness.unattributed_s": table["harness.unattributed_s"],
        "harness.trace_overhead_s": statistics.median(traced) - statistics.median(untraced),
    })
    out.update(micro)
    return out


def end_to_end_metrics(bench: Bench, setup: list[float]) -> dict[str, float]:
    reps = bench.reps
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": statistics.median(r.wall for r in reps),
        "trials_per_cpu_s": statistics.median(r.units / r.cpu for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="master_seed of the runs (default: the canonical one)")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up probe, for testing the benchmark")
    parser.add_argument("--record-reference", action="store_true",
                        help="write reference/<workload>.json from one repetition "
                             "at the canonical seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "speclab" / "harness.py").is_file():
        print(f"perfbench: no speclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import CANONICAL_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = CANONICAL_SEED if args.seed is None else args.seed
    if not 0 <= seed < 2 ** 64:
        print("perfbench: --seed must be in [0, 2**64)", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    setup = [] if args.trace or args.record_reference else measure_setup(
        args.workload, seed, args.smoke, 1 if args.smoke else SETUP_PROBES)
    work_dir = HERE / "out" / f"run-{os.getpid()}"
    try:
        bench = Bench(WORKLOADS[args.workload], seed, args.smoke, work_dir)
        if args.record_reference:
            return record_reference(bench, seed, CANONICAL_SEED)
        print("env " + json.dumps(environment(), sort_keys=True))
        bench.warm_up()
        if args.trace:
            traced_reps(bench, args.seconds / 2)
            from micro import micro_metrics

            table = layer_table(bench)
            metrics = per_layer_metrics(bench, table, micro_metrics(seed))
        else:
            timed_reps(bench, args.seconds)
            table = {}
            metrics = end_to_end_metrics(bench, setup)
        verdict = bench.gate()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reps = bench.reps
    attempted = sum(r.units for r in reps)
    failed = sum(r.failed for r in reps)
    for i, r in enumerate(reps):
        print(f"rep {i} {'traced' if r.traced else 'untraced'} wall {r.wall:.4f} s "
              f"cpu {r.cpu:.4f} s units {r.units} failed {r.failed}"
              + (f" error: {r.error.strip().splitlines()[-1]}" if r.error else ""))
    print(f"gate passed={verdict['passed']} outputs_identical={verdict['outputs_identical']}")
    for problem in verdict["problems"]:
        print(f"gate problem: {problem}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} units)")
    for key in sorted(k for k in table if k.endswith((".busy_s", ".self_s", ".calls"))):
        print(f"layer {key} {table[key]:.6g}")
    result = {}
    for m in declared:
        name = m["name"]
        if name not in metrics or unit_of(name) != m["unit"]:
            print(f"perfbench: metric {name} ({m['unit']}) was not measured",
                  file=sys.stderr)
            return 2
        result[name] = {"value": metrics[name], "unit": m["unit"]}
        print(f"metric {name} {metrics[name]!r} {m['unit']}")
    correct = verdict["passed"] and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def record_reference(bench: Bench, seed: int, canonical: int) -> int:
    import gate

    if seed != canonical:
        print("perfbench: references are recorded at the canonical seed", file=sys.stderr)
        return 2
    bench.rep()
    if bench.reps[0].error:
        print(f"perfbench: run failed: {bench.reps[0].error}", file=sys.stderr)
        return 1
    out_dir = bench.work_dir / "rep0"
    cfg = bench.config(out_dir).to_dict()
    problems = gate.oracle_check(cfg, out_dir)
    if problems:
        print("perfbench: oracle disagrees:\n" + "\n".join(problems), file=sys.stderr)
        return 1
    path = reference_path(bench.workload.name, bench.smoke)
    path.write_text(json.dumps(gate.snapshot(out_dir, cfg["experiment"], cfg),
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
