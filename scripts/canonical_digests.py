"""Print one SHA-256 per output file of every canonical config.

Runs each `configs/*.cfg` of a source tree through the `speclab` command
line at `--workers 2`, each into its own directory under a fresh temporary
directory, and prints `<sha256>  <config>/<file>` lines in sorted order,
each config's exit code on an `exit <code>  <config>` line before them.
Two fields that differ between equal runs are left out of the digest: the
summary's `wall_time_s` and the manifest's `config.out_dir`. Every other
byte counts, so "byte-identical before and after a change" is a `diff` of
two runs:

    python scripts/canonical_digests.py > after.txt
    python scripts/canonical_digests.py path/to/other/checkout > before.txt
    diff before.txt after.txt

Each `--workers 2` run also writes `time <config> <seconds>`, its wall time,
on stderr; stdout holds the digests alone.

Each config also runs at `--workers 1`. Output must not depend on the
worker count, so a config whose exit code or any digest (less the
manifest's `config.workers`) differs between the two runs gets a
`workers-differ <config>` line after the digests, and the script exits 1.

The tree to run is the first argument (default: the checkout holding this
script); its own `src/` is put first on the path, so each tree runs its own
code.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKERS = ("2", "1")  # the printed run first


def digest(path: Path, config_keys: tuple[str, ...] = ("out_dir",)) -> str:
    """SHA-256 of the file; of a JSON file, less the summary's `wall_time_s`
    and the manifest's `config_keys`."""
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        doc.pop("wall_time_s", None)  # the summary's
        for key in config_keys:  # the manifest's
            doc.get("config", {}).pop(key, None)
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def fingerprint(code: int, out: Path) -> dict[str, str]:
    """A run's exit code and the digest of each file it wrote, less the
    manifest's `workers`: what must not change with the worker count."""
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {"exit": str(code), **{f.name: digest(f, ("out_dir", "workers")) for f in files}}


def workers_differ(parallel: dict[str, dict], serial: dict[str, dict]) -> list[str]:
    """A `workers-differ <config>` line for each config whose fingerprint
    differs between the two runs, in sorted order."""
    return [f"workers-differ {name}" for name in sorted(parallel.keys() | serial.keys())
            if parallel.get(name) != serial.get(name)]


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    lines = []
    fingerprints: dict[str, dict[str, dict]] = {workers: {} for workers in WORKERS}
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in sorted((root / "configs").glob("*.cfg")):
            for workers in WORKERS:
                # each canonical config is named after its experiment
                out = Path(tmp) / workers / cfg.stem
                start = time.perf_counter()
                code = subprocess.run(
                    [sys.executable, "-m", "speclab.cli", cfg.stem, "--config", str(cfg),
                     "--workers", workers, "--out", str(out)],
                    env=env, cwd=tmp, stdout=subprocess.DEVNULL).returncode
                fingerprints[workers][cfg.stem] = fingerprint(code, out)
                if workers == WORKERS[0]:
                    print(f"time {cfg.stem} {time.perf_counter() - start:.3f}",
                          file=sys.stderr, flush=True)
                    lines.append(f"exit {code}  {cfg.stem}")
                    if out.is_dir():
                        lines += [f"{digest(f)}  {cfg.stem}/{f.name}"
                                  for f in sorted(out.iterdir())]
    differ = workers_differ(*fingerprints.values())
    print("\n".join(lines + differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
