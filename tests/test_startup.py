"""What a fresh interpreter loads on its way to a validated config or a pool.

Each test runs its script in a new interpreter, because this test session
has long since imported SciPy's solver and stats stacks itself.
"""
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(script: str) -> dict:
    """Run `script` in a new interpreter at the repo root; its last stdout
    line, read as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_config_validation_and_rejection_load_no_scipy_submodule():
    out = run_fresh("""
import contextlib, io, json, sys
from pathlib import Path
import speclab.cli
from speclab.harness import parse_config_text

configs = sorted(Path("configs").glob("*.cfg"))
for path in configs:
    parse_config_text(path.read_text())
with contextlib.redirect_stderr(io.StringIO()):
    code = speclab.cli.main(["sandwich", "--config", "configs/sandwich.cfg",
                             "--solver", "dense"])
heavy = ("scipy.stats", "scipy.linalg", "scipy.sparse", "scipy.special", "scipy.optimize")
print(json.dumps({"configs": len(configs), "code": code,
                  "loaded": [m for m in heavy if m in sys.modules]}))
""")
    assert out == {"configs": 6, "code": 1, "loaded": []}


# one small run per path rule, as (config, overrides, the WATCHED modules
# its pool loads for the solves, scipy.linalg bringing numpy.ma): sandwich
# and a d = 1 auto extremal run bisect through scipy's dstebz wrapper,
# whose extension loads without scipy.linalg, extremal runs Lanczos, maxlaw
# (source V) and a d = 1 ids solve nothing, and a d >= 2 ids takes the
# dense spectrum
POOL_RUNS = {
    "sandwich": ("sandwich", {"radii": "5,10", "trials": "4"}, ["scipy.linalg._flapack"]),
    "extremal": ("extremal", {"radii": "50", "trials": "2"},
                 ["numpy.ma", "scipy.linalg", "scipy.linalg._flapack", "scipy.sparse.linalg"]),
    "extremal_d1_auto": ("extremal", {"radii": "50", "trials": "2", "solver": "auto"},
                         ["scipy.linalg._flapack"]),
    "maxlaw": ("maxlaw", {"radii": "50", "trials": "2"}, []),
    "ids": ("ids", {"radii": "20,40", "trials": "2"}, []),
    "ids_d2": ("ids", {"dimension": "2", "radii": "3", "trials": "2"},
               ["numpy.ma", "scipy.linalg", "scipy.linalg._flapack"]),
}
# the bisecting cases again with the extension out of the finder, where
# bisection takes the same function through scipy.linalg.lapack
FALLBACK_RUNS = ("sandwich", "extremal_d1_auto")
WATCHED = ("numpy.random", "numpy.ma", "scipy.linalg", "scipy.linalg._flapack",
           "scipy.sparse.linalg", "scipy.special")
# eigen's FileFinder given no loaders, so that it finds nothing
NO_EXTENSION = """
import importlib.machinery
from speclab import eigen
eigen.FileFinder = lambda path, *details: importlib.machinery.FileFinder(path)
"""


@functools.cache
def pooled_run(case: str, extension: bool = True) -> dict:
    """One `run_experiment` of a POOL_RUNS case at 2 workers in a fresh
    interpreter, over a pool that records which WATCHED modules are loaded
    when it is built and then maps the trials in process, recording every
    module they import; also the SHA-256 of each CSV written. With
    `extension` False the lookup of scipy's dstebz extension finds none."""
    name, small, _ = POOL_RUNS[case]
    return run_fresh(f"""
import hashlib, json, sys, tempfile
from pathlib import Path
from speclab import harness
from speclab.harness import parse_config_text, run_experiment
{"" if extension else NO_EXTENSION}
record = {{}}


class RecordingPool:
    def __init__(self, max_workers, initializer=None):
        record["at_pool"] = [m for m in {WATCHED!r} if m in sys.modules]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        before = set(sys.modules)
        results = [fn(item) for item in items]
        record["imported_by_trials"] = sorted(set(sys.modules) - before)
        return results


harness.ProcessPoolExecutor = RecordingPool
harness.os.sched_getaffinity = lambda pid: {{0, 1}}
with tempfile.TemporaryDirectory() as tmp:
    overrides = dict({small!r}, workers="2", out=tmp)
    cfg = parse_config_text(Path("configs/{name}.cfg").read_text(), overrides)
    record["code"] = run_experiment(cfg)["exit_code"]
    record["csv"] = {{f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                     for f in sorted(Path(tmp).glob("*.csv"))}}
record["after_trials"] = [m for m in {WATCHED!r} if m in sys.modules]
print(json.dumps(record))
""")


@pytest.mark.parametrize("case", list(POOL_RUNS))
def test_pool_is_built_after_the_solver_stack_is_loaded(case):
    # before the fork: what each path the trials take calls, and the numpy
    # module every trial needs; scipy.special is watched to show it is not
    # loaded by then, since no trial calls it, and numpy.ma to show that a
    # run without scipy.linalg does not load it
    out = pooled_run(case)
    assert out["code"] == 0
    assert out["at_pool"] == ["numpy.random"] + POOL_RUNS[case][2]


@pytest.mark.parametrize("case", list(POOL_RUNS))
def test_a_trial_imports_nothing_its_pool_did_not_preload(case):
    # a module a trial imports would be imported again by every worker of
    # every run
    out = pooled_run(case)
    assert out["code"] == 0
    assert out["imported_by_trials"] == []


def test_a_bisecting_run_loads_no_scipy_linalg():
    # the sandwich run's parent does not load it either: not before the
    # fork, nor after its trials and checks
    out = pooled_run("sandwich")
    assert "scipy.linalg" not in out["at_pool"] + out["after_trials"]


@pytest.mark.parametrize("case", FALLBACK_RUNS)
def test_without_the_bundled_library_bisection_falls_back_on_scipy(case):
    # with scipy's extension out of the finder: the same CSVs, bit for bit,
    # and the pool preloads scipy.linalg, which the fallback imports
    out, extension = pooled_run(case, extension=False), pooled_run(case)
    assert out["code"] == 0
    assert out["csv"] == extension["csv"] and out["csv"]
    assert out["at_pool"] == ["numpy.random", "numpy.ma", "scipy.linalg",
                              "scipy.linalg._flapack"]
    assert out["imported_by_trials"] == []


@pytest.mark.parametrize("extension", [True, False])
def test_scipys_dstebz_loads_without_scipy_linalg_and_is_its_own(extension):
    # the extension alone, registered under its name, so that a later
    # import of scipy.linalg takes it and loads it no second time; a finder
    # that finds nothing gives the function through the package
    out = run_fresh(f"""
import json, sys
{"" if extension else NO_EXTENSION}
from speclab.eigen import _dstebz

dstebz = _dstebz()
loaded = [m for m in {WATCHED!r} if m in sys.modules]
import scipy.linalg
print(json.dumps({{"loaded": loaded, "same": scipy.linalg.lapack.dstebz is dstebz,
                  "registered": sys.modules["scipy.linalg._flapack"].dstebz is dstebz}}))
""")
    loaded = ["scipy.linalg._flapack"] if extension else [
        "numpy.random", "numpy.ma", "scipy.linalg", "scipy.linalg._flapack"]
    assert out == {"loaded": loaded, "same": True, "registered": True}


def test_a_map_that_ends_in_the_parent_builds_no_pool_and_preloads_nothing():
    # a pool start no map repays keeps all 100 trials of a V-only maxlaw run
    # at 2 workers in the parent, which loads no solver module
    out = run_fresh(f"""
import json, math, sys, tempfile
from pathlib import Path
from speclab import harness
from speclab.harness import parse_config_text, run_experiment

pools = []
harness.ProcessPoolExecutor = lambda *args, **kwargs: pools.append(args)
harness.os.sched_getaffinity = lambda pid: {{0, 1}}
harness.POOL_START_S = math.inf
with tempfile.TemporaryDirectory() as tmp:
    overrides = {{"radii": "50", "trials": "100", "workers": "2", "out": tmp}}
    cfg = parse_config_text(Path("configs/maxlaw.cfg").read_text(), overrides)
    code = run_experiment(cfg)["exit_code"]
print(json.dumps({{"code": code, "pools": len(pools),
                  "loaded": [m for m in {WATCHED!r} if m in sys.modules]}}))
""")
    assert out == {"code": 0, "pools": 0, "loaded": ["numpy.random"]}


def test_sandwich_and_ids_runs_load_no_scipy_special():
    # no trial calls scipy.special: k >= 1 tails invert by real Newton steps.
    # Only a critical-mode gamma with k >= 1 reaches Lambert W
    # (scaling.h_inv), in the parent, and neither config asks for one
    out = run_fresh("""
import json, sys, tempfile
from pathlib import Path
from speclab.harness import parse_config_text, run_experiment

codes = []
with tempfile.TemporaryDirectory() as tmp:
    for name, small in (("sandwich", {"radii": "5,10", "trials": "40"}),
                        ("ids", {"radii": "20,40", "trials": "2"})):
        # one serial run, whose trials run here, and one over the pool
        for workers in ("1", "2"):
            overrides = dict(small, workers=workers, out=str(Path(tmp) / name / workers))
            cfg = parse_config_text(Path(f"configs/{name}.cfg").read_text(), overrides)
            codes.append(run_experiment(cfg)["exit_code"])
print(json.dumps({"codes": codes, "special": "scipy.special" in sys.modules}))
""")
    assert out == {"codes": [0, 0, 0, 0], "special": False}


def test_extremal_and_maxlaw_runs_load_no_scipy_stats():
    # the max-law KS tail, the Poisson pmf and tails and the chi-square tail
    # need only scipy.special. maxlaw counts no intervals, so only the
    # extremal run has Poisson reports
    out = run_fresh("""
import json, sys, tempfile
from pathlib import Path
from speclab.harness import parse_config_text, run_experiment

runs = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, small in (("maxlaw", {"radii": "50"}),
                        ("extremal", {"radii": "50", "source": "both",
                                      "intervals": "1:2,2:inf"})):
        overrides = dict(small, trials="100", workers="1", out=str(Path(tmp) / name))
        cfg = parse_config_text(Path(f"configs/{name}.cfg").read_text(), overrides)
        summary = run_experiment(cfg)
        written = json.loads((Path(tmp) / name / f"{name}_summary.json").read_text())
        runs[name] = {"code": summary["exit_code"],
                      "reports": {src: sorted(k for k in entry if k != "flagged_trials")
                                  for src, entry in written["per_L"]["50"]["sources"].items()}}
print(json.dumps({"runs": runs, "stats": "scipy.stats" in sys.modules}))
""")
    reports = ["max_law", "poisson_gof", "poisson_joint_gof"]
    assert out == {"runs": {"maxlaw": {"code": 0, "reports": {"V": ["max_law"]}},
                            "extremal": {"code": 0, "reports": {"H": reports, "V": reports}}},
                   "stats": False}
