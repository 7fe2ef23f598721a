"""Set-up probe: a fresh interpreter imports the module a workload's user
imports, prepares one pass (config file and environment spec), and exits.
``run.py`` times this process from outside; usage:

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]), sys.argv[3])
