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
from pathlib import Path

WORKERS = "2"


def digest(path: Path) -> str:
    """SHA-256 of the file; of a JSON file, less the fields equal runs differ in."""
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        doc.pop("wall_time_s", None)  # the summary's
        doc.get("config", {}).pop("out_dir", None)  # the manifest's
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in sorted((root / "configs").glob("*.cfg")):
            # each canonical config is named after its experiment
            out = Path(tmp) / cfg.stem
            run = subprocess.run(
                [sys.executable, "-m", "speclab.cli", cfg.stem, "--config", str(cfg),
                 "--workers", WORKERS, "--out", str(out)],
                env=env, cwd=tmp, stdout=subprocess.DEVNULL)
            lines.append(f"exit {run.returncode}  {cfg.stem}")
            if out.is_dir():
                lines += [f"{digest(f)}  {cfg.stem}/{f.name}" for f in sorted(out.iterdir())]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
