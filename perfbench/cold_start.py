"""Cold start probe: import the package, parse a config, build the first case.

Run in a fresh interpreter by run.py. Prints the CLOCK_MONOTONIC time at
which the first case is built, so the parent can measure set-up time from
the moment it started this process.

    python3 perfbench/cold_start.py SRC_DIR CONFIG_JSON
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

from clifford_ym import runner  # noqa: E402

runner.build_case(runner.parse_config(json.loads(sys.argv[2])))
print(repr(time.monotonic()))
