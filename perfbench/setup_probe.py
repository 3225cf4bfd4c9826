"""Time the program's set-up in a fresh interpreter: import stiefel_sync and
build every scenario file named on the command line.

    python3 perfbench/setup_probe.py <src dir> <scenario.json> [...]

Prints the seconds taken.
"""

import time

start = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import stiefel_sync  # noqa: E402,F401
from stiefel_sync.scenario import Scenario  # noqa: E402

for path in sys.argv[2:]:
    Scenario.from_file(path)
print(time.perf_counter() - start)
