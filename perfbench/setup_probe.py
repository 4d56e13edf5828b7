"""Set-up probe: build one workload in a fresh process and print the clock.

Run by run.py as ``setup_probe.py <workload> <seed> <out_dir> <tiny 0|1>``;
the last line printed is ``time.perf_counter()`` once the workload is
ready (imports done, configs generated and parsed, first inputs drawn).
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

name, seed, out_dir, tiny = sys.argv[1:5]
workloads.make(name, Path(out_dir), int(seed), tiny == "1")
print(repr(perf_counter()))
