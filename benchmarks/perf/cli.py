"""Benchmark harness: run the workloads, compare run records.

::

    python -m benchmarks.perf run [--workload NAME ...] [--seed 2024]
        [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
    python -m benchmarks.perf compare PARENT.json ... [--change CHANGE.json ...]
        [--json FILE]

``benchmarks/perf/run.py`` is the ``run`` command on its own; it is the
command ``BENCHMARK.json`` names.  The metric catalogue (names, units,
direction, regression bounds) is ``BENCHMARK.json``; the workload-scoped
metrics below complete it.  This module imports only the standard
library: the solver runs in child processes (``workload.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
SCHEMA = "repro.perf_run/v1"

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Wall-clock budget of one workload run, set-ups and scoring included.
RUN_TIMEOUT_S = 170.0

#: End-to-end metrics that exist on some workloads only, so they cannot
#: be ``BENCHMARK.json`` metrics (every workload must emit those):
#: name -> (unit, better, bound).  Bound 0 marks metrics that depend
#: only on the outputs and must repeat exactly.
WORKLOAD_METRICS: Dict[str, Tuple[str, str, float]] = {
    "error_rate": ("ratio", "lower", 0.0),
    "quality_ratio": ("ratio", "lower", 0.0),
    "sim_tts_us": ("us", "lower", 0.0),
    "sim_ets_uj": ("uJ", "lower", 0.0),
    "first_frame_p50_s": ("s", "lower", 0.25),
    "latency_p95_s": ("s", "lower", 0.25),
}


class HarnessError(Exception):
    """A workload process failed to run to completion."""


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json`` at the root of the checkout."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        spec: Dict[str, Any] = json.load(fh)
    return spec


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(cmd: List[str], deadline: float) -> Tuple[float, List[str]]:
    """Run one workload process; return (set-up seconds, stdout lines).

    Set-up runs from the spawn to the ``READY`` line.  The process leads
    its own process group, so a timeout also stops the gateway server
    and pool workers it started.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    lines: "queue.Queue[Optional[Tuple[float, str]]]" = queue.Queue()

    def pump() -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            lines.put((time.perf_counter(), line.rstrip("\n")))
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    setup_s: Optional[float] = None
    out: List[str] = []
    try:
        while True:
            try:
                item = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise HarnessError(f"timed out after {RUN_TIMEOUT_S:.0f} s") from None
            if item is None:
                break
            stamp, line = item
            if line == "READY" and setup_s is None:
                setup_s = stamp - start
            else:
                out.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError("workload process did not exit") from None
    finally:
        _kill_group(proc.pid)
        proc.wait()
        reader.join(timeout=5)
    if code != 0:
        raise HarnessError(f"workload process exited with code {code}")
    if setup_s is None:
        raise HarnessError("workload process never finished set-up")
    return setup_s, out


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Dict[str, Any]:
    """Time ``name``'s set-up, run it once, and build its run record."""
    work = ROOT / "benchmarks" / "perf" / ".work"
    work.mkdir(exist_ok=True)
    trace_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    reps = 1 if trace or smoke else SETUP_REPEATS
    setups: List[float] = []
    out: List[str] = []
    try:
        # The measured run goes first: set-up-only processes started
        # just before it were seen to slow its timed phase.
        for rep in range(reps):
            cmd = [
                sys.executable, "-m", "benchmarks.perf.workload",
                "--workload", name,
                "--seed", str(seed),
                "--seconds", repr(float(seconds)),
                "--trace", "1" if trace else "0",
                "--trace-dir", str(trace_dir),
            ]
            if smoke:
                cmd.append("--smoke")
            if rep > 0:
                cmd.append("--setup-only")
            setup_s, lines = _spawn(cmd, deadline)
            setups.append(setup_s)
            out = out or lines
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    if not out:
        raise HarnessError("workload process printed no result")
    result = json.loads(out[-1])
    attempted, failed = int(result["attempted"]), int(result["failed"])
    return {
        "schema": SCHEMA,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "cpu_count": os.cpu_count(),
        "attempted": attempted,
        "failed": failed,
        "failures": result["failures"],
        "runs": result["runs"],
        "timed_wall_s": result["timed_wall_s"],
        "digest": result["digest"],
        "samples": {**result["samples"], "setup_s": setups},
        "end_to_end": {"setup_s": statistics.median(setups), **result["end_to_end"]},
        "workload_metrics": {
            "error_rate": failed / attempted if attempted else 1.0,
            **result["workload_metrics"],
        },
        "per_layer": result["per_layer"],
    }


def result_line(spec: Dict[str, Any], record: Dict[str, Any]) -> Dict[str, Any]:
    """The last stdout line: the metrics ``BENCHMARK.json`` lists."""
    section = "per_layer" if record["trace"] else "end_to_end"
    metrics = {}
    for metric in spec[section]:
        if metric["name"] not in record[section]:
            raise HarnessError(f"{record['workload']} did not emit {metric['name']}")
        metrics[metric["name"]] = {
            "value": record[section][metric["name"]],
            "unit": metric["unit"],
        }
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def _units(spec: Dict[str, Any]) -> Dict[str, str]:
    units = {name: unit for name, (unit, _, _) in WORKLOAD_METRICS.items()}
    for section in ("end_to_end", "per_layer"):
        units.update({m["name"]: m["unit"] for m in spec[section]})
    return units


def print_record(spec: Dict[str, Any], record: Dict[str, Any]) -> None:
    units = _units(spec)
    mode = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']}  seed={record['seed']}  {mode}  "
        f"ops={record['attempted']}  failed={record['failed']}  "
        f"timed={record['timed_wall_s']:.2f} s"
    )
    for failure in record["failures"]:
        print(f"   FAIL {failure}")
    sections = ["end_to_end", "workload_metrics"]
    if record["trace"]:
        sections.append("per_layer")
    for section in sections:
        for name, value in record[section].items():
            print(f"   {name:<30} {value:>14.6g} {units.get(name, '')}")


def cmd_run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro sources under {ROOT / 'src'}; run the benchmark "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else spec["run_seconds"]
    records = []
    code = 0
    for name in names:
        try:
            record = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke)
        except HarnessError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            code = 1
            continue
        records.append(record)
        print_record(spec, record)
        print(json.dumps(result_line(spec, record)), flush=True)
        if record["failed"]:
            code = 1
    if args.out is not None:
        args.out.write_text(
            json.dumps({"schema": SCHEMA, "runs": records}, indent=1) + "\n",
            encoding="utf-8",
        )
    return code


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """improved / regressed / unchanged / unresolved (see README.md)."""
    sign = 1.0 if better == "higher" else -1.0
    q1, p_median, q3 = _quartiles(parent)
    c_median = statistics.median(change)
    scale = abs(p_median) or 1.0
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (q3 - q1) / scale > bound and not every_run_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_median - p_median) > q3 - q1:
        return "improved"
    if sign * (p_median - c_median) / scale > bound:
        return "regressed"
    return "unchanged"


def _load_records(paths: Sequence[Path]) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for path in paths:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        if document.get("schema") != SCHEMA:
            raise HarnessError(f"{path} is not a {SCHEMA} document")
        records.extend(document["runs"])
    return records


#: Untraced runs carry the end-to-end metrics, traced runs the per-layer ones.
_MODES = ((False, ("end_to_end", "workload_metrics")), (True, ("per_layer",)))


def _metric_values(
    records: Sequence[Dict[str, Any]],
    workload: str,
    traced: bool,
    sections: Sequence[str],
) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for record in records:
        if record["workload"] == workload and record["trace"] == traced:
            for section in sections:
                for name, value in record[section].items():
                    values.setdefault(name, []).append(float(value))
    return values


def summarize(
    spec: Dict[str, Any], records: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Median and quartiles of every metric, per workload and mode."""
    units = _units(spec)
    workloads: Dict[str, Any] = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        entry: Dict[str, Any] = {}
        for traced, sections in _MODES:
            table = {}
            for name, values in _metric_values(records, workload, traced, sections).items():
                q1, median, q3 = _quartiles(values)
                table[name] = {
                    "median": median, "q1": q1, "q3": q3,
                    "n": len(values), "unit": units.get(name, ""),
                }
            if table:
                entry["traced" if traced else "untraced"] = table
        if entry:
            workloads[workload] = entry
    return {
        "schema": "repro.perf_summary/v1",
        "runs": len(records),
        **{
            key: sorted({record[key] for record in records})
            for key in ("git_sha", "python", "numpy", "cpu_count", "seconds", "seed")
        },
        "workloads": workloads,
    }


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    parent = _load_records(args.parent)
    change = _load_records(args.change or [])
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update({name: (better, bound) for name, (_, better, bound) in WORKLOAD_METRICS.items()})
    units = _units(spec)
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for traced, sections in _MODES:
            old = _metric_values(parent, workload, traced, sections)
            new = _metric_values(change, workload, traced, sections)
            if not old:
                continue
            mode = "traced" if traced else "untraced"
            print(f"== {workload} ({mode}; parent median [q1, q3]{' -> change' if change else ''})")
            for name, p in old.items():
                q1, median, q3 = _quartiles(p)
                row = f"   {name:<30} {units.get(name, ''):<7} {median:>12.6g} [{q1:.4g}, {q3:.4g}]"
                c = new.get(name)
                if c:
                    cq1, cmedian, cq3 = _quartiles(c)
                    delta = (cmedian - median) / abs(median) if median else 0.0
                    row += f"  -> {cmedian:>12.6g} [{cq1:.4g}, {cq3:.4g}] {delta:+8.2%}"
                    if name in rules:
                        outcome = verdict(p, c, *rules[name])
                        regressed |= outcome == "regressed"
                        row += f"  {outcome}"
                print(row)
    if args.json is not None:
        args.json.write_text(
            json.dumps(summarize(spec, parent), indent=1) + "\n", encoding="utf-8"
        )
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", metavar="NAME",
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=2024)
    run.add_argument("--seconds", type=float, default=None,
                     help="timed phase length (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="1: per-layer metrics from a traced run")
    run.add_argument("--smoke", action="store_true",
                     help="tiny inputs and minimum op counts (harness self-test)")
    run.add_argument("--out", type=Path, default=None,
                     help=f"write the {SCHEMA} run records here")
    compare = sub.add_parser("compare", help="compare run records of two commits")
    compare.add_argument("parent", nargs="+", type=Path)
    compare.add_argument("--change", nargs="+", type=Path, default=None)
    compare.add_argument("--json", type=Path, default=None,
                         help="write the parent's median summary here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_compare(args)
