"""``python -m benchmarks.perf run|compare`` (see cli.py)."""

import sys

from benchmarks.perf.cli import main

sys.exit(main())
