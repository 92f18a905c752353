"""Gateway server child for the gateway workloads.

Runs ``repro serve`` exactly as a user would start it.  With
``--trace-dir`` the span wrappers are installed first and the server's
spans are written there when it exits (SIGINT)::

    python -m benchmarks.perf.serve [--trace-dir DIR] -- --port 0
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.serve")
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]
    # The harness stops the server with SIGINT; a parent shell may have
    # started us with SIGINT ignored, which Python would keep.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from repro.cli import main as repro_main

    if args.trace_dir is None:
        return repro_main(["serve", *serve_args])

    from benchmarks.perf.tracing import Tracer

    tracer = Tracer(args.trace_dir)
    tracer.install()
    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.restore()
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
