"""Set-up probe: one interpreter start up to a parsed, validated config.

Loads what `speclab <experiment> --config ...` loads (speclab.cli and
everything it imports), builds the workload's config through
`parse_config_text`, which calls `validate()`, and prints `ready`. run.py
times this from process start to that line.

    python3 perfbench/probe.py <workload> <seed> <smoke 0|1>
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS, overrides_for  # noqa: E402

import speclab.cli  # noqa: E402,F401
from speclab.harness import parse_config_text  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    parse_config_text((ROOT / workload.config_file).read_text(),
                      overrides_for(workload, int(sys.argv[2]), "unused", sys.argv[3] == "1"))
    print("ready", flush=True)
