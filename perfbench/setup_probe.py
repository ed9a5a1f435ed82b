"""Time one cold set-up: import romdom and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <work dir>

Prints the seconds taken. run.py starts this several times in fresh
interpreters, because only the first import in a process does real work.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports romdom)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - t0)
