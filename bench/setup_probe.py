"""Set-up probe: import kwl, generate one workload's inputs, print ``ready``.

``run.py`` starts this script several times and times each from process
start to the ``ready`` line, which is the set-up a fresh run pays before
its first timed call.  Usage: ``python3 bench/setup_probe.py WORKLOAD SEED``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (needs the src path above)

if __name__ == "__main__":
    workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
