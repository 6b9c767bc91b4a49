"""Time the benchmark's set-up in a fresh process.

Set-up is everything before the first trial: ``import repro`` with the
runner, then loading, validating and compiling the workload's scenario
documents.  It is timed as process CPU time and scaled to the
reference host by the ``py`` calibration kernel run right after it
(see ``calibrate.py``).  Prints one JSON object: the scaled seconds,
the raw wall and CPU seconds and the host slowness.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

_w0 = time.perf_counter()
_c0 = time.process_time()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.exp.runner  # noqa: E402,F401
from workloads import build_trials  # noqa: E402

build_trials(sys.argv[1], int(sys.argv[2]))
cpu_s = time.process_time() - _c0
wall_s = time.perf_counter() - _w0

from calibrate import Calibration  # noqa: E402

calibration = Calibration(("py",), warmup=2)
slowness = calibration.slowness(calibration.run(8))
print(json.dumps({"setup_s": cpu_s / slowness, "wall_s": wall_s,
                  "cpu_s": cpu_s, "slowness": slowness}))
