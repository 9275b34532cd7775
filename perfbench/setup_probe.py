"""Set-up probe: a fresh interpreter does what a run does before its first item.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports percgame and its CLI, builds the CLI parser (`percgame --help`),
builds the workload's inputs from the seed, and prints time.perf_counter()
(CLOCK_MONOTONIC, comparable with the parent's clock) as the moment the
first item could run.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from percgame import cli  # noqa: E402

from workloads import build_plan  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(["--help"])
        except SystemExit:
            pass
    build_plan(workload, seed, HERE.parent / ".perfbench" / "probe")
    print(time.perf_counter())
    return 0


if __name__ == "__main__":
    sys.exit(main())
