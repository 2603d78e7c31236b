"""What a fresh interpreter loads on its way to a validated config or a pool.

Each test runs its script in a new interpreter, because this test session
has long since imported SciPy's solver and stats stacks itself.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_pool_is_built_after_the_solver_stack_is_loaded():
    out = run_fresh("""
import json, sys
from pathlib import Path
from speclab import harness
from speclab.harness import parse_config_text

SOLVER_STACK = ("scipy.linalg", "scipy.sparse.linalg", "scipy.special")
before = [m for m in SOLVER_STACK if m in sys.modules]
at_pool = []


class RecordingPool:
    # records which of the solver stack is loaded when the pool is built
    def __init__(self, max_workers, initializer=None):
        at_pool.append([m for m in SOLVER_STACK if m in sys.modules])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


harness.ProcessPoolExecutor = RecordingPool
harness.os.sched_getaffinity = lambda pid: {0, 1}
cfg = parse_config_text(Path("configs/sandwich.cfg").read_text(), {"workers": "2"})
harness._map_trials(cfg, str, list(range(4)))
print(json.dumps({"before": before, "at_pool": at_pool}))
""")
    assert out == {"before": [],
                   "at_pool": [["scipy.linalg", "scipy.sparse.linalg", "scipy.special"]]}
