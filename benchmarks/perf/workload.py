"""The four benchmark workloads; each runs in a fresh interpreter.

The harness (``cli.py``) starts this module once per set-up it times::

    python -m benchmarks.perf.workload --workload NAME --seed N \\
        --seconds S [--trace 0|1] [--trace-dir DIR] [--smoke] [--setup-only]

The process prints ``READY`` when set-up is complete; the harness times
set-up from the spawn to that line.  With ``--setup-only`` it then tears
down and exits.  Otherwise it runs the timed phase (a closed loop of
operations until ``--seconds`` have passed, and at least the workload's
``min_ops``), scores the outputs untimed, and prints one JSON payload as
its last line.

Every input derives from ``--seed`` through ``np.random.default_rng``.
Metrics that depend only on the outputs (quality, feasibility, the
modelled chip time and energy, the output digest) are taken over the
first ``min_ops`` operations, so they repeat exactly at one seed however
many operations the timed phase fits.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import itertools
import json
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.perf.tracing import Span, Tracer, layer_metrics, load_spans, wrapper_cost_s

clock = time.perf_counter

#: Seed space for the annealer and instance seeds drawn from the rng.
_SEED_SPACE = 2**31 - 2
#: Seed of the fixed instances of the in-process workloads (the
#: repository's benchmark seed).
INSTANCE_SEED = 2024


class BenchError(Exception):
    """The workload could not run (not an output mismatch)."""


@dataclass
class Run:
    """Arguments of one workload process."""

    seed: int
    seconds: float
    smoke: bool
    setup_only: bool
    trace_dir: Optional[Path]
    tracer: Optional[Tracer] = None

    def setup_done(self) -> bool:
        """Signal the end of set-up; False when only set-up is timed."""
        print("READY", flush=True)
        return not self.setup_only

    @contextlib.contextmanager
    def traced(self) -> Iterator[None]:
        """Install the span wrappers in this process for the block."""
        if self.tracer is None:
            yield
            return
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.restore()


@dataclass
class Op:
    """One timed operation and what it returned."""

    index: int
    latency_s: float = 0.0
    first_frame_s: Optional[float] = None
    error: str = ""
    output: Any = None
    client_s: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """What a workload measured, before the harness adds set-up."""

    ops: List[Op]
    wall_s: float
    runs: int
    failures: List[str]
    end_to_end: Dict[str, float]
    workload_metrics: Dict[str, float]
    layer_counts: Dict[str, float]
    spans: List[Span]
    digest: str


def _digest(value: object) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()[:16]


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, _SEED_SPACE))


def _tour_error(instance: Any, tour: Sequence[int], length: float) -> str:
    """Why ``tour`` is not a valid tour of ``length``, or ''."""
    from repro.tsp.tour import tour_length

    cities = np.asarray(tour, dtype=np.int64)
    if cities.shape != (instance.n,) or not np.array_equal(
        np.sort(cities), np.arange(instance.n)
    ):
        return "tour is not a permutation of the cities"
    recomputed = tour_length(instance, cities)
    if recomputed != length:
        return f"length {length!r} != recomputed {recomputed!r}"
    return ""


def _peak_rss_self_mb() -> float:
    """Peak RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _cpu_self_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _reap_pool_workers(timeout_s: float = 5.0) -> None:
    """Wait for exited pool workers so their CPU and RSS are counted."""
    deadline = clock() + timeout_s
    while multiprocessing.active_children() and clock() < deadline:
        time.sleep(0.01)


def _accept_ratio(pairs: Sequence[Tuple[int, int]]) -> float:
    proposed = sum(p for p, _ in pairs)
    return sum(a for _, a in pairs) / proposed if proposed else 0.0


# ----------------------------------------------------------------------
# In-process TSP workloads
# ----------------------------------------------------------------------
@dataclass
class InProcessSpec:
    """An in-process ``solve_ensemble`` closed loop."""

    instance: Any
    options: Any
    seeds_per_op: int
    min_ops: int
    oracle_samples: int


def _run_inprocess(run: Run, spec: InProcessSpec) -> Outcome:
    from repro import AnnealerConfig, ClusteredCIMAnnealer, solve_ensemble
    from repro.errors import ReproError
    from repro.hardware import EnergyModel, LatencyModel
    from repro.tsp.reference import bhh_estimate, reference_length

    instance = spec.instance
    rng = np.random.default_rng(run.seed)
    # The timed calls get an O(1) reference so solve_ensemble does not
    # compute one; quality is scored against reference_length afterwards.
    stand_in = bhh_estimate(instance)

    def next_seeds() -> List[int]:
        first = _draw_seed(rng)
        return [first + k for k in range(spec.seeds_per_op)]

    ops: List[Op] = []
    cpu0 = _cpu_self_s()
    with run.traced():
        t0 = clock()
        while len(ops) < spec.min_ops or clock() - t0 < run.seconds:
            op = Op(len(ops))
            seeds = next_seeds()
            start = clock()
            try:
                result = solve_ensemble(
                    instance, seeds, reference=stand_in, options=spec.options
                )
                op.output = (seeds, result)
            except ReproError as exc:
                op.error = repr(exc)
            op.latency_s = clock() - start
            ops.append(op)
        wall = clock() - t0
    _reap_pool_workers()
    cpu_s = _cpu_self_s() - cpu0
    peak_rss_mb = _peak_rss_self_mb()

    # ---- scoring (untimed) ---------------------------------------------
    failures: List[str] = []
    runs = 0
    for op in ops:
        if op.error:
            failures.append(f"op {op.index}: {op.error}")
            continue
        seeds, result = op.output
        if [r.seed for r in result.telemetry.runs if r.ok] != seeds:
            op.error = "not every seed returned a result"
        for seed, r in zip(seeds, result.results):
            problem = _tour_error(instance, r.tour, r.length)
            if problem:
                op.error = f"seed {seed}: {problem}"
        if op.error:
            failures.append(f"op {op.index}: {op.error}")
        else:
            runs += len(seeds)

    scored = [op for op in ops[: spec.min_ops] if not op.error]
    oracle_rng = np.random.default_rng([run.seed, 1])
    for _ in range(spec.oracle_samples if scored else 0):
        op = scored[int(oracle_rng.integers(len(scored)))]
        seeds, result = op.output
        k = int(oracle_rng.integers(len(seeds)))
        fast = result.results[k]
        serial = ClusteredCIMAnnealer(
            replace(AnnealerConfig(), seed=seeds[k])
        ).solve(instance)
        if not (
            np.array_equal(fast.tour, serial.tour)
            and fast.length == serial.length
            and fast.chip.summary() == serial.chip.summary()
        ):
            op.error = f"seed {seeds[k]} differs from the serial annealer"
            failures.append(f"op {op.index}: {op.error}")

    solves = [r for op in scored for r in op.output[1].results]
    reference = reference_length(instance)
    latencies = [op.latency_s for op in ops if not op.error]
    return Outcome(
        ops=ops,
        wall_s=wall,
        runs=runs,
        failures=failures,
        end_to_end={
            "latency_p50_s": statistics.median(latencies) if latencies else 0.0,
            "runs_per_s": runs / wall,
            "peak_rss_mb": peak_rss_mb,
            "feasible_rate": (
                len(solves) / (len(ops[: spec.min_ops]) * spec.seeds_per_op)
            ),
        },
        workload_metrics=_mean_metrics(
            {
                "quality_ratio": [r.length / reference for r in solves],
                "sim_tts_us": [
                    LatencyModel().report(r.chip).total_time_s * 1e6
                    for r in solves
                ],
                "sim_ets_uj": [
                    EnergyModel().report(r.chip).total_energy_j * 1e6
                    for r in solves
                ],
            }
        ),
        layer_counts={
            "engine.accept_ratio": _accept_ratio(
                [
                    (lv.swaps_proposed, lv.swaps_accepted)
                    for op in ops
                    if not op.error
                    for r in op.output[1].results
                    for lv in r.levels
                ]
            ),
            "executor.retries": float(
                sum(op.output[1].telemetry.total_retries for op in ops if op.output)
            ),
            "executor.pool_rebuilds": float(
                sum(op.output[1].telemetry.pool_rebuilds for op in ops if op.output)
            ),
            "server.cpu_s": cpu_s,
            "server.cpu_util": cpu_s / wall,
        },
        spans=_collect_spans(run),
        digest=_digest(
            [[[int(c) for c in r.tour], r.length] for r in solves]
        ),
    )


def _mean_metrics(values: Dict[str, List[float]]) -> Dict[str, float]:
    return {
        name: statistics.fmean(v) if v else 0.0 for name, v in values.items()
    }


def _collect_spans(run: Run) -> List[Span]:
    if run.tracer is None or run.trace_dir is None:
        return []
    return list(run.tracer.spans) + load_spans(run.trace_dir)


def tsp_pcb3038_serial(run: Run) -> Optional[Outcome]:
    """Paper-scale TSP, one seed per serial ``solve_ensemble`` call."""
    from repro import EnsembleOptions, make_paper_instance, random_clustered, solve_ensemble
    from repro.tsp.generators import pcb_style

    # One fixed instance, as the paper's pcb3038 is one dataset: the seed
    # picks the annealer seeds, so run-to-run work stays comparable.
    if run.smoke:
        instance = pcb_style(100, seed=INSTANCE_SEED)
    else:
        instance = make_paper_instance("pcb3038", seed=INSTANCE_SEED)
    options = EnsembleOptions()
    solve_ensemble(
        random_clustered(40, n_clusters=4, seed=run.seed),
        [run.seed],
        reference=1.0,
        options=options,
    )
    if not run.setup_done():
        return None
    spec = InProcessSpec(
        instance, options, seeds_per_op=1, min_ops=2, oracle_samples=0
    )
    return _run_inprocess(run, spec)


def tsp_ensemble_batched(run: Run) -> Optional[Outcome]:
    """32-seed clustered80 ensembles on the batched pool path."""
    from repro import EnsembleOptions, random_clustered, solve_ensemble

    # The clustered80 instance of BENCH_ensemble.json, fixed like pcb3038.
    if run.smoke:
        instance = random_clustered(30, n_clusters=3, seed=INSTANCE_SEED)
        options = EnsembleOptions(max_workers=2, batch_size=4)
        seeds_per_op, min_ops = 8, 2
    else:
        instance = random_clustered(80, n_clusters=4, seed=INSTANCE_SEED)
        options = EnsembleOptions(max_workers=2, batch_size=16)
        seeds_per_op, min_ops = 32, 6
    solve_ensemble(
        random_clustered(30, n_clusters=3, seed=run.seed),
        [1, 2, 3, 4],
        reference=1.0,
        options=EnsembleOptions(max_workers=2, batch_size=2),
    )
    if not run.setup_done():
        return None
    spec = InProcessSpec(
        instance, options, seeds_per_op, min_ops=min_ops, oracle_samples=2
    )
    return _run_inprocess(run, spec)


# ----------------------------------------------------------------------
# Gateway workloads
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One gateway job: the request and the problem it encodes."""

    index: int
    request: Any
    problem: Any


class GatewayProcess:
    """``repro serve`` with its defaults, in a child process."""

    def __init__(self, trace_dir: Optional[Path]) -> None:
        cmd = [sys.executable, "-m", "benchmarks.perf.serve"]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--", "--port", "0"]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=env
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line.startswith("gateway"):
            self.stop()
            raise BenchError(f"gateway did not start: {line!r}")
        self.url = line.split()[2]

    def _proc_stat(self) -> List[str]:
        text = Path(f"/proc/{self.proc.pid}/stat").read_text()
        return text.rsplit(")", 1)[1].split()

    def cpu_s(self) -> float:
        """utime + stime (+ reaped children) of the server so far."""
        fields = self._proc_stat()
        ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the server drains and writes its spans), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


async def _wait_ready(client: Any, timeout_s: float = 60.0) -> None:
    from repro.errors import ReproError

    deadline = clock() + timeout_s
    while True:
        try:
            await client._request("GET", "/readyz")
            return
        except (ReproError, OSError):
            if clock() > deadline:
                raise BenchError("gateway never became ready") from None
            await asyncio.sleep(0.02)


async def _run_job(client: Any, job: Job) -> Op:
    """Submit, stream SSE to ``end``, then fetch the result."""
    from repro.errors import ReproError

    op = Op(job.index)
    start = clock()
    try:
        t = clock()
        handle = await client.submit(job.request)
        op.client_s["submit"] = clock() - t
        frames = []
        t = clock()
        async for record in client.stream(str(handle["job_id"])):
            if not frames:
                op.first_frame_s = clock() - start
            frames.append(record)
        op.client_s["stream"] = clock() - t
        t = clock()
        doc = await client.result(str(handle["job_id"]))
        op.client_s["result"] = clock() - t
        op.output = (frames, doc)
    except (ReproError, OSError, EOFError) as exc:
        op.error = repr(exc)
    op.latency_s = clock() - start
    return op


async def _closed_loop(
    client: Any,
    make_job: Callable[[int], Job],
    seconds: float,
    min_ops: int,
    clients: int = 2,
) -> Tuple[Dict[int, Op], Dict[int, Job], float, float, Dict[str, Any], Dict[str, Any]]:
    """``clients`` callers, each sending its next job when one returns.

    Returns the ops and jobs by index, the start and length of the timed
    phase, and ``/metrics`` before and after it.
    """
    ops: Dict[int, Op] = {}
    jobs: Dict[int, Job] = {}
    indices = itertools.count()
    before = await client.metrics()
    t0 = clock()

    async def caller() -> None:
        while True:
            j = next(indices)
            if j >= min_ops and clock() - t0 >= seconds:
                return
            jobs[j] = make_job(j)
            ops[j] = await _run_job(client, jobs[j])

    await asyncio.gather(*(caller() for _ in range(clients)))
    wall = clock() - t0
    after = await client.metrics()
    return ops, jobs, t0, wall, before, after


def _router_counts(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    per_shard = [
        a["jobs"] - b["jobs"]
        for a, b in zip(after["per_shard"], before["per_shard"])
    ]
    mean = statistics.fmean(per_shard)
    return {
        "router.rejected": float(after["jobs_rejected"] - before["jobs_rejected"]),
        "router.failovers": float(after["failovers"] - before["failovers"]),
        "router.shard_spread": max(per_shard) / mean if mean else 0.0,
    }


def _run_gateway(
    run: Run,
    make_job: Callable[[int], Job],
    warmup: Sequence[Job],
    min_ops: int,
    check: Callable[[Job, Op], str],
) -> Optional[Outcome]:
    from repro import solve_ensemble
    from repro.gateway.client import AsyncGatewayClient

    server = GatewayProcess(run.trace_dir if run.tracer is not None else None)
    try:
        client = AsyncGatewayClient(server.url)

        async def warm_up() -> None:
            await _wait_ready(client)
            for job in warmup:
                op = await _run_job(client, job)
                if op.error:
                    raise BenchError(f"warm-up job failed: {op.error}")

        asyncio.run(warm_up())
        if not run.setup_done():
            return None
        cpu0 = server.cpu_s()
        ops_by_index, jobs, t0, wall, before, after = asyncio.run(
            _closed_loop(client, make_job, run.seconds, min_ops)
        )
        cpu_s = server.cpu_s() - cpu0
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    # ---- scoring (untimed) ---------------------------------------------
    ops = [ops_by_index[j] for j in sorted(ops_by_index)]
    failures: List[str] = []
    runs = 0
    for op in ops:
        if not op.error:
            op.error = check(jobs[op.index], op)
        if op.error:
            failures.append(f"job {op.index}: {op.error}")
        else:
            runs += len(jobs[op.index].request.seeds)

    scored = [op for op in ops[:min_ops] if not op.error]
    oracle_rng = np.random.default_rng([run.seed, 1])
    picks = oracle_rng.choice(len(scored), size=min(2, len(scored)), replace=False)
    for pick in sorted(int(p) for p in picks):
        op = scored[pick]
        local = solve_ensemble(jobs[op.index].request)
        doc = op.output[1]
        same = doc["tours"] == [[int(c) for c in r.tour] for r in local.results]
        same = same and doc["lengths"] == [float(r.length) for r in local.results]
        if not same:
            op.error = "differs from the same request solved in-process"
            failures.append(f"job {op.index}: {op.error}")

    frames = [f for op in ops if not op.error for f in op.output[0]]
    latencies = [op.latency_s for op in ops if not op.error]
    first_frames = [op.first_frame_s for op in ops if not op.error and op.first_frame_s]
    feasible = [op.output[2] for op in ops[:min_ops] if not op.error]
    counts = {
        "engine.accept_ratio": _accept_ratio(
            [(f.trials_proposed, f.trials_accepted) for f in frames]
        ),
        "executor.retries": float(sum(f.retries for f in frames)),
        "executor.pool_rebuilds": float(
            sum(
                op.output[1]["telemetry"]["pool_rebuilds"]
                for op in ops
                if not op.error
            )
        ),
        "server.cpu_s": cpu_s,
        "server.cpu_util": cpu_s / wall,
        **_router_counts(before, after),
    }
    for op_name in ("macs", "spin_flips", "rng_draws"):
        counts[f"problems.{op_name}"] = float(
            sum(f.ops.get(op_name, 0) for f in frames)
        )
    for call in ("submit", "stream", "result"):
        counts[f"client.{call}.s"] = sum(op.client_s.get(call, 0.0) for op in ops)

    spans = _collect_spans(run)
    spans = [s for s in spans if t0 <= s[2] <= t0 + wall]
    workload_metrics = {
        "first_frame_p50_s": statistics.median(first_frames) if first_frames else 0.0,
    }
    return Outcome(
        ops=ops,
        wall_s=wall,
        runs=runs,
        failures=failures,
        end_to_end={
            "latency_p50_s": statistics.median(latencies) if latencies else 0.0,
            "runs_per_s": runs / wall,
            "peak_rss_mb": peak_rss_mb,
            "feasible_rate": sum(feasible) / len(ops[:min_ops]),
        },
        workload_metrics=workload_metrics,
        layer_counts=counts,
        spans=spans,
        digest=_digest([op.output[1]["tours"] for op in scored]),
    )


def _check_tsp_job(job: Job, op: Op) -> str:
    frames, doc = op.output
    seeds = list(job.request.seeds)
    if doc.get("state") != "done" or doc.get("seeds") != seeds:
        return f"job ended {doc.get('state')!r} with seeds {doc.get('seeds')}"
    if sorted(f.seed for f in frames if f.ok) != sorted(seeds):
        return "SSE frames do not cover every seed"
    for tour, length in zip(doc["tours"], doc["lengths"]):
        problem = _tour_error(job.problem, tour, length)
        if problem:
            return problem
    op.output = (frames, doc, True)
    return ""


def _check_qubo_job(job: Job, op: Op) -> str:
    frames, doc = op.output
    if doc.get("state") != "done" or len(doc.get("tours", ())) != 1:
        return f"job ended {doc.get('state')!r}"
    qubo = job.problem.to_qubo()
    bits = np.asarray(doc["tours"][0], dtype=np.float64)
    if bits.shape != (qubo.n_vars,) or not np.isin(bits, (0.0, 1.0)).all():
        return "result is not a bit vector of the QUBO's size"
    if not np.isclose(doc["lengths"][0], qubo.energy(bits), rtol=1e-9, atol=1e-9):
        return "reported energy differs from the recomputed energy"
    feasible = bool(job.problem.is_feasible(job.problem.decode(bits)))
    op.output = (frames, doc, feasible)
    return ""


def gateway_tsp_stream(run: Run) -> Optional[Outcome]:
    """Clustered TSP jobs through ``repro serve``, streamed over SSE."""
    from repro import random_clustered
    from repro.runtime.options import SolveRequest

    n_cities, min_ops = (20, 2) if run.smoke else (60, 8)

    def make_job(j: int) -> Job:
        rng = np.random.default_rng([run.seed, 0, j])
        instance = random_clustered(n_cities, n_clusters=4, seed=_draw_seed(rng))
        first = _draw_seed(rng)
        request = SolveRequest.build(instance, [first, first + 1])
        return Job(j, request, instance)

    warm = random_clustered(20, n_clusters=2, seed=run.seed)
    warmup = [Job(-1, SolveRequest.build(warm, [run.seed]), warm)]
    outcome = _run_gateway(run, make_job, warmup, min_ops, check=_check_tsp_job)
    if outcome is not None:
        ratios = [
            ratio
            for op in outcome.ops[:min_ops]
            if not op.error
            for ratio in op.output[1]["ratios"]
        ]
        outcome.workload_metrics["quality_ratio"] = (
            statistics.fmean(ratios) if ratios else 0.0
        )
    return outcome


QUBO_FAMILIES = ("coloring", "knapsack", "maxsat")
QUBO_BACKENDS = ("cluster-cim", "dense-ising", "simcim")


def gateway_qubo_mix(run: Run) -> Optional[Outcome]:
    """1-seed QUBO jobs cycling 3 families x 3 backends."""
    from repro.problems import make_problem
    from repro.runtime.options import SolveRequest

    size = 6 if run.smoke else 24

    def make_job(j: int) -> Job:
        rng = np.random.default_rng([run.seed, 0, j])
        family = QUBO_FAMILIES[j % 3]
        backend = QUBO_BACKENDS[(j // 3) % 3]
        problem = make_problem(family, size, _draw_seed(rng))
        request = SolveRequest.build(
            problem.to_qubo(), [_draw_seed(rng)], backend=backend
        )
        return Job(j, request, problem)

    warmup = []
    for backend in QUBO_BACKENDS:
        problem = make_problem("knapsack", 4, run.seed)
        request = SolveRequest.build(problem.to_qubo(), [run.seed], backend=backend)
        warmup.append(Job(-1, request, problem))
    outcome = _run_gateway(
        run, make_job, warmup, min_ops=9 if run.smoke else 90, check=_check_qubo_job
    )
    if outcome is not None:
        latencies = [op.latency_s for op in outcome.ops if not op.error]
        outcome.workload_metrics["latency_p95_s"] = (
            statistics.quantiles(latencies, n=20)[18] if len(latencies) > 1 else 0.0
        )
    return outcome


WORKLOADS: Dict[str, Callable[[Run], Optional[Outcome]]] = {
    "tsp-pcb3038-serial": tsp_pcb3038_serial,
    "tsp-ensemble-batched": tsp_ensemble_batched,
    "gateway-tsp-stream": gateway_tsp_stream,
    "gateway-qubo-mix": gateway_qubo_mix,
}


def payload(run: Run, outcome: Outcome) -> Dict[str, Any]:
    """The JSON document the harness reads from the last stdout line."""
    per_layer: Dict[str, float] = {}
    if run.tracer is not None:
        per_layer = layer_metrics(outcome.spans)
        for name in ("macs", "spin_flips", "rng_draws"):
            per_layer[f"problems.{name}"] = 0.0
        for call in ("submit", "stream", "result"):
            per_layer[f"client.{call}.s"] = 0.0
        per_layer.update(
            {"router.rejected": 0.0, "router.failovers": 0.0, "router.shard_spread": 0.0}
        )
        per_layer.update(outcome.layer_counts)
        per_layer["trace_overhead"] = (
            wrapper_cost_s() * len(outcome.spans) / outcome.wall_s
        )
    first_frames = [op.first_frame_s for op in outcome.ops if op.first_frame_s is not None]
    return {
        "numpy": np.__version__,
        "attempted": len(outcome.ops),
        "failed": sum(1 for op in outcome.ops if op.error),
        "failures": outcome.failures[:20],
        "timed_wall_s": outcome.wall_s,
        "runs": outcome.runs,
        "samples": {
            "latency_s": [op.latency_s for op in outcome.ops],
            "first_frame_s": first_frames,
        },
        "end_to_end": outcome.end_to_end,
        "workload_metrics": outcome.workload_metrics,
        "per_layer": per_layer,
        "digest": outcome.digest,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf.workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.trace and args.trace_dir is None:
        parser.error("--trace 1 needs --trace-dir")
    run = Run(
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        setup_only=args.setup_only,
        trace_dir=args.trace_dir,
        tracer=Tracer(args.trace_dir) if args.trace else None,
    )
    outcome = WORKLOADS[args.workload](run)
    if outcome is not None:
        print(json.dumps(payload(run, outcome)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
