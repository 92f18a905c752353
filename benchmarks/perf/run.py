"""Run benchmark workloads: the command ``BENCHMARK.json`` names.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The same as ``python -m benchmarks.perf run``; see README.md.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))
