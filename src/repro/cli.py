"""Command-line interface.

Installs as ``repro`` (console script) and also runs as
``python -m repro.cli``.  Subcommands:

* ``solve``     — solve a problem with a registered solver backend
  (``--backend``, default the clustered CIM annealer; see
  ``docs/backends.md``) and report quality + hardware cost; the
  problem payload follows the backend — a TSP (synthetic family or a
  TSPLIB file) for ``cluster-cim``/``dense-ising``, a G-set-style
  Max-Cut graph for ``maxcut-sb``, a random dense Ising model for
  ``simcim``.  With ``--ensemble K`` runs a multi-seed ensemble
  (optionally fanned out over ``--workers`` processes) routed through
  the serving runtime (:mod:`repro.runtime.service`); ``--stream``
  prints each run's telemetry frame as it completes,
  ``--max-inflight`` caps the job's concurrent seeds,
  ``--telemetry-out`` exports the per-run telemetry JSON, and
  ``--chaos-seed`` runs the ensemble under the deterministic
  fault-injection layer (``docs/robustness.md``);
* ``serve``     — run the HTTP/SSE serving gateway
  (:mod:`repro.gateway`): N :class:`~repro.runtime.AnnealingService`
  shards behind one ``POST /v1/jobs`` endpoint with a pluggable
  routing policy (``docs/gateway.md``);
* ``submit``    — submit a solve to a running gateway over HTTP and
  (optionally) stream its telemetry frames back;
* ``capacity``  — the Fig. 1 memory-capacity table for given sizes;
* ``sram-curve`` — the Fig. 6b Monte-Carlo error-rate sweep;
* ``ppa``       — size a chip for a target problem (Table II / Fig. 7 view);
* ``maxcut``    — anneal a Max-Cut instance (Table III workload), random
  or loaded from a rudy/``.mc`` edge-list file (``--file``);
* ``problems``  — the QUBO workload subsystem (:mod:`repro.problems`):
  ``list`` the registered problem families, ``convert`` published
  ``.qubo``/BQP files to the ``repro.qubo/v1`` JSON interchange,
  ``solve`` a family instance (or a QUBO file) on any QUBO-capable
  backend with per-op instrumentation and a decoded, feasibility-checked
  solution, and ``submit`` a family instance to a running gateway
  (``docs/problems.md``).

Examples
--------
::

    repro solve --family rl --n 1000 --strategy 1/2/3 --seed 7 --ppa
    repro solve --tsplib pcb3038.tsp
    repro solve --backend maxcut-sb --n 300 --ensemble 4
    repro solve --backend dense-ising --n 12 --reference
    repro solve --family rl --n 1000 --ensemble 8 --workers 4 \
                --telemetry-out telemetry.json
    repro solve --family rl --n 1000 --ensemble 8 --workers 4 --stream
    repro solve --family rl --n 200 --ensemble 16 --chaos-seed 42 \
                --chaos-crash-rate 0.2
    repro serve --shards 2 --workers 2 --policy least-inflight
    repro submit --url http://127.0.0.1:8642 --family rl --n 500 \
                 --ensemble 8 --stream
    repro submit --url http://127.0.0.1:8642 --backend simcim --n 64
    repro capacity --sizes 1000 10000 85900
    repro sram-curve --samples 1000
    repro ppa --n 85900 --p 3
    repro maxcut --nodes 300 --sweeps 200
    repro maxcut --file g05_60.0.mc --sweeps 400
    repro problems list
    repro problems convert bqp50-1.qubo bqp50-1.json
    repro problems solve --family coloring --size 24 --backend simcim
    repro problems solve --file bqp50-1.json --backend dense-ising
    repro problems submit --url http://127.0.0.1:8642 --family knapsack \\
                          --size 12 --ensemble 4
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # CLI imports its heavy deps lazily per subcommand
    import numpy as np

    from repro.annealer.batch import EnsembleResult
    from repro.annealer.config import AnnealerConfig
    from repro.backends.base import ProblemLike
    from repro.problems import FamilyProblem
    from repro.runtime.options import SolveRequest
    from repro.tsp.instance import TSPInstance

from repro.utils.tables import Table
from repro.utils.units import (
    format_area,
    format_bits,
    format_energy,
    format_power,
    format_time,
)

#: Registered backend names, duplicated as literals so ``--help`` does
#: not import the solver stack (the CLI loads heavy deps lazily per
#: subcommand); ``tests/test_cli.py`` pins this against
#: :func:`repro.backends.list_backends`.
_BACKEND_CHOICES = ("cluster-cim", "dense-ising", "maxcut-sb", "simcim")
_DEFAULT_BACKEND = "cluster-cim"

#: Backends whose capabilities include the ``qubo`` problem kind,
#: duplicated as literals for the same lazy-``--help`` reason;
#: ``tests/test_cli.py`` pins this against the registry capabilities.
_QUBO_BACKEND_CHOICES = ("cluster-cim", "dense-ising", "simcim")

#: Problem families of :mod:`repro.problems`, duplicated as literals;
#: ``tests/test_cli.py`` pins this against ``list_families()``.
_FAMILY_CHOICES = ("coloring", "knapsack", "maxsat")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Digital CIM clustered annealer (DAC'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", help="solve a problem with a registered solver backend"
    )
    p_solve.add_argument(
        "--backend",
        choices=_BACKEND_CHOICES,
        default=_DEFAULT_BACKEND,
        help="registered solver backend (default: cluster-cim, the "
        "paper's clustered CIM annealer; see docs/backends.md)",
    )
    src = p_solve.add_mutually_exclusive_group()
    src.add_argument("--tsplib", metavar="FILE", help="TSPLIB .tsp file to load")
    src.add_argument(
        "--family",
        choices=["uniform", "clustered", "pcb", "rl", "pla"],
        default="uniform",
        help="synthetic instance family (default: uniform)",
    )
    p_solve.add_argument(
        "--n", type=int, default=500,
        help="problem size: cities (TSP backends), graph nodes "
        "(maxcut-sb), or spins (simcim)",
    )
    p_solve.add_argument("--strategy", default="1/2/3", help="cluster strategy label")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument(
        "--ppa", action="store_true", help="also print the hardware report"
    )
    p_solve.add_argument(
        "--reference", action="store_true",
        help="compute the CPU reference and report the optimal ratio",
    )
    p_solve.add_argument(
        "--svg", metavar="FILE", help="render the tour to an SVG file"
    )
    p_solve.add_argument(
        "--ensemble", type=int, default=0, metavar="K",
        help="solve a K-seed ensemble (seeds SEED..SEED+K-1) and report "
        "aggregate quality instead of a single run",
    )
    p_solve.add_argument(
        "--workers", type=int, default=1, metavar="W",
        help="worker processes for the ensemble (1 = serial)",
    )
    p_solve.add_argument(
        "--batch-size", type=int, default=1, metavar="B",
        help="seeds a worker anneals per dispatch via the batched "
        "replica engine (1 = serial oracle; results are bit-identical "
        "either way)",
    )
    p_solve.add_argument(
        "--telemetry-out", metavar="FILE",
        help="write per-run ensemble telemetry to FILE as JSON",
    )
    p_solve.add_argument(
        "--stream", action="store_true",
        help="stream one telemetry frame per completed run "
        "(JSON lines, schema repro.run_telemetry/v1)",
    )
    p_solve.add_argument(
        "--max-inflight", type=int, default=None, metavar="M",
        help="admission control: at most M of this job's seeds in "
        "flight at once (default: 2 x workers)",
    )
    p_solve.add_argument(
        "--timeout", type=float, default=None, metavar="T",
        help="per-run wall-clock budget in seconds for pool runs "
        "(default: unbounded)",
    )
    p_solve.add_argument(
        "--chaos-seed", type=int, default=None, metavar="S",
        help="enable the deterministic fault-injection layer with chaos "
        "seed S (implies an ensemble run; see docs/robustness.md)",
    )
    p_solve.add_argument(
        "--chaos-crash-rate", type=float, default=0.1, metavar="P",
        help="per-attempt probability of an injected worker crash "
        "(default: 0.1; needs --chaos-seed)",
    )
    p_solve.add_argument(
        "--chaos-hang-rate", type=float, default=0.0, metavar="P",
        help="per-attempt probability of an injected worker hang "
        "(default: 0; needs --chaos-seed and --timeout)",
    )
    p_solve.add_argument(
        "--chaos-corrupt-rate", type=float, default=0.0, metavar="P",
        help="per-attempt probability of an injected corrupted result "
        "(default: 0; needs --chaos-seed)",
    )

    p_serve = sub.add_parser("serve", help="run the HTTP/SSE serving gateway")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8642,
        help="listening port (0 = ephemeral; default: 8642)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="in-process AnnealingService shards (default: 2)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="W",
        help="worker processes per shard (default: 1 = serial)",
    )
    p_serve.add_argument(
        "--policy", choices=["round-robin", "least-inflight"],
        default="round-robin", help="shard routing policy",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=16, metavar="J",
        help="admitted jobs per shard before the gateway answers 429 "
        "(default: 16)",
    )
    p_serve.add_argument(
        "--probe-interval", type=float, default=0.25, metavar="S",
        help="seconds between shard liveness probes (default: 0.25)",
    )
    p_serve.add_argument(
        "--failover-budget", type=int, default=2, metavar="K",
        help="re-dispatches a job may consume after shard loss before "
        "it fails (default: 2)",
    )
    p_serve.add_argument(
        "--stall-timeout", type=float, default=30.0, metavar="S",
        help="seconds without stream progress before a running attempt "
        "is failed over (default: 30)",
    )

    p_submit = sub.add_parser(
        "submit", help="submit a solve to a running gateway"
    )
    p_submit.add_argument(
        "--url", required=True, metavar="URL",
        help="gateway base URL, e.g. http://127.0.0.1:8642",
    )
    p_submit.add_argument(
        "--backend",
        choices=_BACKEND_CHOICES,
        default=_DEFAULT_BACKEND,
        help="registered solver backend the gateway dispatches to "
        "(default: cluster-cim)",
    )
    src_sub = p_submit.add_mutually_exclusive_group()
    src_sub.add_argument(
        "--tsplib", metavar="FILE", help="TSPLIB .tsp file to load"
    )
    src_sub.add_argument(
        "--family",
        choices=["uniform", "clustered", "pcb", "rl", "pla"],
        default="uniform",
        help="synthetic instance family (default: uniform)",
    )
    p_submit.add_argument(
        "--n", type=int, default=500,
        help="problem size: cities (TSP backends), graph nodes "
        "(maxcut-sb), or spins (simcim)",
    )
    p_submit.add_argument(
        "--strategy", default="1/2/3", help="cluster strategy label"
    )
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument(
        "--ensemble", type=int, default=1, metavar="K",
        help="seeds SEED..SEED+K-1 (default: 1)",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=None, metavar="T",
        help="per-run wall-clock budget in seconds on the gateway side",
    )
    p_submit.add_argument(
        "--batch-size", type=int, default=1, metavar="B",
        help="replicas per vectorized batch on the gateway side "
        "(default: 1, the serial bit-exactness oracle)",
    )
    p_submit.add_argument(
        "--stream", action="store_true",
        help="stream one telemetry frame per completed run over SSE "
        "(dropped connections reconnect and resume via replay)",
    )
    p_submit.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="end-to-end deadline in seconds; the gateway rejects or "
        "fails the job with deadline_exceeded once it expires",
    )
    p_submit.add_argument(
        "--tag", default="cli", help="job label folded into the job id"
    )

    p_cap = sub.add_parser("capacity", help="Fig. 1 capacity table")
    p_cap.add_argument("--sizes", type=int, nargs="+",
                       default=[1000, 10000, 85900])
    p_cap.add_argument("--p", type=int, default=3)

    p_sram = sub.add_parser("sram-curve", help="Fig. 6b error-rate sweep")
    p_sram.add_argument("--samples", type=int, default=1000)
    p_sram.add_argument("--bl-cap", type=float, default=1.0)
    p_sram.add_argument("--seed", type=int, default=0)

    p_ppa = sub.add_parser("ppa", help="chip sizing report")
    p_ppa.add_argument("--n", type=int, required=True, help="target cities")
    p_ppa.add_argument("--p", type=int, default=3, help="p_max")

    p_mc = sub.add_parser("maxcut", help="anneal a Max-Cut instance")
    p_mc.add_argument(
        "--file", metavar="FILE",
        help="rudy/.mc edge-list file to load instead of a random graph",
    )
    p_mc.add_argument("--nodes", type=int, default=200)
    p_mc.add_argument("--degree", type=float, default=6.0)
    p_mc.add_argument("--sweeps", type=int, default=200)
    p_mc.add_argument("--seed", type=int, default=0)

    p_prob = sub.add_parser(
        "problems", help="QUBO problem-family workloads (docs/problems.md)"
    )
    prob_sub = p_prob.add_subparsers(dest="problems_command", required=True)

    prob_sub.add_parser(
        "list", help="list the registered problem families"
    )

    p_conv = prob_sub.add_parser(
        "convert",
        help="convert a .qubo/BQP file to repro.qubo/v1 JSON interchange",
    )
    p_conv.add_argument(
        "input", metavar="IN",
        help="source file: repro.qubo/v1 JSON, qbsolv .qubo, or "
        "Beasley/OR-Library BQP edge list",
    )
    p_conv.add_argument(
        "output", metavar="OUT", help="destination repro.qubo/v1 JSON file"
    )

    p_psolve = prob_sub.add_parser(
        "solve",
        help="reduce a family instance to QUBO and solve it on a backend",
    )
    psrc = p_psolve.add_mutually_exclusive_group()
    psrc.add_argument(
        "--family", choices=_FAMILY_CHOICES, default="coloring",
        help="problem family to mint a seeded random instance of "
        "(default: coloring)",
    )
    psrc.add_argument(
        "--file", metavar="FILE",
        help="solve a raw QUBO from a JSON/.qubo/BQP file instead "
        "(no family decode)",
    )
    p_psolve.add_argument(
        "--size", type=int, default=16,
        help="family instance size: nodes (coloring), items (knapsack), "
        "or variables (maxsat); default 16",
    )
    p_psolve.add_argument("--seed", type=int, default=0)
    p_psolve.add_argument(
        "--backend", choices=_QUBO_BACKEND_CHOICES, default=_DEFAULT_BACKEND,
        help="QUBO-capable solver backend (default: cluster-cim)",
    )
    p_psolve.add_argument(
        "--reference", action="store_true",
        help="also solve with the family's reference baseline (greedy "
        "descent for raw QUBO files) and report the optimal ratio",
    )

    p_psub = prob_sub.add_parser(
        "submit", help="submit a family instance to a running gateway"
    )
    p_psub.add_argument(
        "--url", required=True, metavar="URL",
        help="gateway base URL, e.g. http://127.0.0.1:8642",
    )
    p_psub.add_argument(
        "--family", choices=_FAMILY_CHOICES, default="coloring",
        help="problem family (default: coloring)",
    )
    p_psub.add_argument("--size", type=int, default=16)
    p_psub.add_argument("--seed", type=int, default=0)
    p_psub.add_argument(
        "--backend", choices=_QUBO_BACKEND_CHOICES, default=_DEFAULT_BACKEND,
        help="QUBO-capable solver backend the gateway dispatches to "
        "(default: cluster-cim)",
    )
    p_psub.add_argument(
        "--ensemble", type=int, default=1, metavar="K",
        help="seeds SEED..SEED+K-1 (default: 1)",
    )
    p_psub.add_argument(
        "--tag", default="cli", help="job label folded into the job id"
    )
    return parser


def _build_instance(args: argparse.Namespace) -> "TSPInstance":
    """Load or synthesize the instance shared by ``solve``/``submit``."""
    from repro.tsp import load_tsplib
    from repro.tsp.generators import (
        pcb_style,
        pla_style,
        random_clustered,
        random_uniform,
        rl_style,
    )

    if args.tsplib:
        return load_tsplib(args.tsplib)
    builders = {
        "uniform": random_uniform,
        "clustered": lambda n, seed: random_clustered(
            n, n_clusters=max(4, n // 60), seed=seed
        ),
        "pcb": pcb_style,
        "rl": rl_style,
        "pla": pla_style,
    }
    return builders[args.family](args.n, seed=args.seed)


def _solves_tsp(backend: str) -> bool:
    from repro.backends import resolve_backend

    return "tsp" in resolve_backend(backend).capabilities().problem_kinds


def _build_problem(args: argparse.Namespace) -> "ProblemLike":
    """Synthesize the problem payload the chosen backend solves.

    TSP backends reuse :func:`_build_instance` (family or TSPLIB
    file); ``maxcut-sb`` gets a G-set-style ±1-weight graph of ``--n``
    nodes and ``simcim`` a random dense Ising model of ``--n`` spins,
    both seeded by ``--seed``.  ``--tsplib`` only makes sense for the
    TSP backends and is rejected elsewhere.
    """
    from repro.errors import ReproError

    backend = getattr(args, "backend", _DEFAULT_BACKEND)
    if args.tsplib and not _solves_tsp(backend):
        raise ReproError(
            f"--tsplib loads a TSP, which backend {backend!r} does not "
            "solve; drop --tsplib or pick a TSP backend"
        )
    if backend == "maxcut-sb":
        from repro.maxcut import gset_style

        return gset_style(args.n, seed=args.seed)
    if backend == "simcim":
        from repro.ising.simcim import random_ising_model

        return random_ising_model(args.n, seed=args.seed)
    return _build_instance(args)


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    backend = args.backend
    if backend != _DEFAULT_BACKEND and args.ppa:
        print(
            f"error: --ppa sizes the clustered CIM chip; backend "
            f"{backend!r} has no hardware model",
            file=sys.stderr,
        )
        return 2
    if args.svg and not _solves_tsp(backend):
        print(
            f"error: --svg renders a TSP tour; backend {backend!r} "
            "solves a different problem",
            file=sys.stderr,
        )
        return 2
    try:
        problem = _build_problem(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"instance : {problem}")
    if (
        args.ensemble > 0
        or args.workers > 1
        or args.batch_size > 1
        or args.telemetry_out
        or args.stream
        or args.chaos_seed is not None
    ):
        return _solve_ensemble(problem, args)
    if backend != _DEFAULT_BACKEND:
        return _solve_single_backend(problem, args)
    return _solve_single_default(problem, args)


def _solve_single_default(
    instance: "ProblemLike", args: argparse.Namespace
) -> int:
    """Single-seed solve on the default clustered CIM annealer."""
    from repro.annealer import AnnealerConfig, ClusteredCIMAnnealer
    from repro.hardware import evaluate_ppa
    from repro.tsp.instance import TSPInstance

    assert isinstance(instance, TSPInstance)
    cfg = AnnealerConfig(strategy=args.strategy, seed=args.seed)
    result = ClusteredCIMAnnealer(cfg).solve(instance)
    print(
        f"solution : length={result.length:.1f}  levels={result.n_levels}  "
        f"host={result.wall_time_s:.1f}s"
    )
    if args.reference:
        from repro.tsp.reference import reference_length

        ref = reference_length(instance, seed=args.seed)
        print(
            f"reference: {ref:.1f}  optimal ratio = "
            f"{result.optimal_ratio(ref):.3f}"
        )
    if args.ppa:
        rep = evaluate_ppa(
            n_cities=instance.n,
            p=result.chip.p,
            n_clusters=result.chip.n_clusters,
            chip=result.chip,
        )
        print(
            f"hardware : {format_bits(rep.capacity_bits)} in "
            f"{rep.n_arrays} arrays, {format_area(rep.chip_area_m2)}, "
            f"tts={format_time(rep.time_to_solution_s)}, "
            f"E={format_energy(rep.energy_to_solution_j)}, "
            f"P={format_power(rep.average_power_w)}"
        )
    if args.svg:
        from repro.tsp.svg import save_tour_svg

        save_tour_svg(instance, args.svg, tour=result.tour)
        print(f"tour SVG : {args.svg}")
    return 0


def _solve_single_backend(
    problem: "ProblemLike", args: argparse.Namespace
) -> int:
    """Single-seed solve dispatched through the backend registry."""
    from repro.backends import resolve_backend
    from repro.errors import ReproError

    impl = resolve_backend(args.backend)
    try:
        plan = impl.compile(problem, None)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = impl.solve(plan, args.seed)
    print(
        f"solution : backend={args.backend}  "
        f"objective={result.length:.1f}  host={result.wall_time_s:.1f}s"
    )
    if args.reference:
        ref = impl.reference(problem, args.seed)
        ratio = result.optimal_ratio(ref)
        print(f"reference: {ref:.1f}  optimal ratio = {ratio:.3f}")
    if args.svg:  # TSP backends only (guarded in _cmd_solve)
        from repro.tsp.instance import TSPInstance
        from repro.tsp.svg import save_tour_svg

        assert isinstance(problem, TSPInstance)
        save_tour_svg(problem, args.svg, tour=result.tour)
        print(f"tour SVG : {args.svg}")
    return 0


def _solve_ensemble(instance: "ProblemLike", args: argparse.Namespace) -> int:
    """Ensemble branch of ``solve``: multi-seed run + telemetry export.

    Builds one :class:`repro.runtime.SolveRequest` — the same input
    type the library and serving APIs take — and runs it through the
    serving runtime (blocking via :func:`solve_ensemble`, or streaming
    one telemetry frame per completed run with ``--stream``).  The
    request carries ``--backend``; only the default clustered CIM
    annealer takes an :class:`AnnealerConfig`.
    """
    import asyncio
    from pathlib import Path

    from repro.annealer.batch import solve_ensemble
    from repro.runtime.options import EnsembleOptions, SolveRequest

    cfg: Optional["AnnealerConfig"] = None
    if args.backend == _DEFAULT_BACKEND:
        from repro.annealer import AnnealerConfig

        cfg = AnnealerConfig(strategy=args.strategy, seed=args.seed)

    if args.telemetry_out:
        # Fail before the (possibly long) solve, not after it.
        parent = Path(args.telemetry_out).resolve().parent
        if not parent.is_dir():
            print(
                f"error: telemetry output directory {parent} does not exist",
                file=sys.stderr,
            )
            return 2

    plan = None
    if args.chaos_seed is not None:
        from repro.runtime.faults import FaultPlan

        plan = FaultPlan(
            seed=args.chaos_seed,
            crash_rate=args.chaos_crash_rate,
            hang_rate=args.chaos_hang_rate,
            corrupt_rate=args.chaos_corrupt_rate,
            hang_s=(2.0 * args.timeout) if args.timeout else 0.5,
        )
    n_seeds = max(1, args.ensemble)
    seeds = list(range(args.seed, args.seed + n_seeds))
    request = SolveRequest.build(
        instance,
        seeds,
        config=cfg,
        options=EnsembleOptions(
            max_workers=args.workers,
            max_inflight_per_job=args.max_inflight,
            timeout_s=args.timeout,
            fault_plan=plan,
            batch_size=args.batch_size,
        ),
        tag="cli",
        backend=args.backend,
    )
    if args.stream:
        out = asyncio.run(_stream_solve(request))
    else:
        out = solve_ensemble(request)
    tel = out.telemetry
    print(
        f"ensemble : {out.n_runs} runs  best={out.best.length:.1f}  "
        f"mode={tel.mode}  workers={tel.max_workers}  "
        f"wall={tel.wall_time_s:.1f}s  "
        f"throughput={tel.throughput_runs_per_s:.2f} runs/s"
    )
    s = out.ratio_stats
    print(
        f"quality  : ratio mean={s.mean:.3f}  "
        f"min={s.minimum:.3f}  max={s.maximum:.3f}"
    )
    if plan is not None:
        by_kind = tel.faults_by_kind
        kinds = (
            "  ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
            or "none"
        )
        print(
            f"chaos    : seed={plan.seed}  "
            f"faults={tel.total_faults_injected} ({kinds})  "
            f"retries={tel.total_retries}  "
            f"backoff={tel.total_backoff_s:.2f}s  "
            f"pool_rebuilds={tel.pool_rebuilds}"
        )
    if args.telemetry_out:
        tel.save(args.telemetry_out)
        print(f"telemetry: {args.telemetry_out}")
    if args.svg:  # TSP backends only (guarded in _cmd_solve)
        from repro.tsp.instance import TSPInstance
        from repro.tsp.svg import save_tour_svg

        assert isinstance(instance, TSPInstance)
        save_tour_svg(instance, args.svg, tour=out.best.tour)
        print(f"tour SVG : {args.svg}")
    return 0


async def _stream_solve(request: "SolveRequest") -> "EnsembleResult":
    """Serve one job, printing a JSON telemetry frame per finished run."""
    from repro.runtime.service import AnnealingService

    async with AnnealingService(request.options) as service:
        job = await service.submit(request)
        async for record in job.stream():
            print(record.to_json_line())
        return await job.result()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP/SSE gateway in the foreground until interrupted."""
    import asyncio

    from repro.gateway import GatewayServer, ShardRouter
    from repro.runtime.options import EnsembleOptions

    options = EnsembleOptions(
        max_workers=args.workers, max_pending_jobs=args.max_pending
    )
    router = ShardRouter(
        options,
        shards=args.shards,
        policy=args.policy,
        probe_interval_s=args.probe_interval,
        failover_budget=args.failover_budget,
        stall_timeout_s=args.stall_timeout,
    )

    async def run() -> None:
        async with GatewayServer(
            router, host=args.host, port=args.port
        ) as server:
            print(
                f"gateway  : {server.url}  shards={args.shards}  "
                f"workers/shard={args.workers}  policy={args.policy}"
            )
            print(
                "endpoints: POST /v1/jobs   GET /v1/jobs/{id}[/events]   "
                "DELETE /v1/jobs/{id}   GET /metrics   GET /healthz   "
                "GET /readyz"
            )
            await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("gateway  : interrupted; shards drained")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one solve to a running gateway and report its outcome."""
    from repro.errors import ReproError
    from repro.gateway.client import GatewayClient, GatewayHTTPError
    from repro.runtime.options import EnsembleOptions, SolveRequest

    cfg: Optional["AnnealerConfig"] = None
    if args.backend == _DEFAULT_BACKEND:
        from repro.annealer import AnnealerConfig

        cfg = AnnealerConfig(strategy=args.strategy, seed=args.seed)
    seeds = list(range(args.seed, args.seed + max(1, args.ensemble)))
    try:
        instance = _build_problem(args)
        request = SolveRequest.build(
            instance,
            seeds,
            config=cfg,
            options=EnsembleOptions(
                timeout_s=args.timeout, batch_size=args.batch_size
            ),
            tag=args.tag,
            backend=args.backend,
            deadline_s=args.deadline,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"instance : {instance}")
    client = GatewayClient(args.url)
    try:
        handle = client.submit(request)
        job_id = str(handle["job_id"])
        print(
            f"job      : {job_id}  shard={handle['shard']}  "
            f"state={handle['state']}"
        )
        if args.stream:
            for record in client.stream(job_id, reconnect=5):
                print(record.to_json_line())
        result = client.result(job_id)
    except GatewayHTTPError as exc:
        print(f"error    : {exc}", file=sys.stderr)
        return 1
    except ConnectionError as exc:
        print(
            f"error    : cannot reach gateway at {args.url}: {exc}",
            file=sys.stderr,
        )
        return 1
    lengths = result["lengths"]
    best = result["best"]
    print(
        f"ensemble : {len(lengths)} runs  best={best['length']:.1f}  "
        f"shard={result['shard']}"
    )
    stats = result["ratio_stats"]
    if stats is not None:
        print(
            f"quality  : ratio mean={stats['mean']:.3f}  "
            f"min={stats['minimum']:.3f}  max={stats['maximum']:.3f}"
        )
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.analysis.capacity import fig1_series

    series = fig1_series(args.sizes, p=args.p)
    table = Table(
        f"Weight memory vs TSP scale (p_max = {args.p})",
        ["N", "conventional O(N^4)", "clustered O(N^2)", "compact O(N)"],
    )
    for i, n in enumerate(args.sizes):
        table.add_row(
            [
                n,
                format_bits(float(series["conventional_O(N^4)"][i])),
                format_bits(float(series["clustered_O(N^2)"][i])),
                format_bits(float(series["compact_O(N)"][i])),
            ]
        )
    print(table)
    return 0


def _cmd_sram_curve(args: argparse.Namespace) -> int:
    from repro.sram.cell import SRAMCellParams
    from repro.sram.montecarlo import monte_carlo_error_rate

    curve = monte_carlo_error_rate(
        n_samples=args.samples,
        params=SRAMCellParams(bl_cap_ratio=args.bl_cap),
        seed=args.seed,
    )
    table = Table(
        f"Pseudo-read error rate ({args.samples} samples, "
        f"BL cap x{args.bl_cap:g})",
        ["V_DD (mV)", "measured", "analytic"],
    )
    for k in range(0, curve.vdd_mv.size, 2):
        table.add_row(
            [curve.vdd_mv[k], float(curve.error_rate[k]), float(curve.analytic[k])]
        )
    print(table)
    return 0


def _cmd_ppa(args: argparse.Namespace) -> int:
    from repro.clustering import SemiFlexibleStrategy
    from repro.hardware import evaluate_ppa

    strategy = SemiFlexibleStrategy(p_max=args.p)
    rep = evaluate_ppa(
        n_cities=args.n,
        p=args.p,
        n_clusters=strategy.provisioned_clusters(args.n),
        mean_cluster_size=strategy.target_mean,
    )
    table = Table(
        f"Chip sizing: {args.n:,}-city TSP at p_max = {args.p} (16 nm)",
        ["metric", "value"],
    )
    table.add_row(["cluster windows", rep.n_clusters])
    table.add_row(["arrays (5x2 windows)", rep.n_arrays])
    table.add_row(["physical spins", rep.n_spins])
    table.add_row(["weight memory", format_bits(rep.capacity_bits)])
    table.add_row(["chip area", format_area(rep.chip_area_m2)])
    table.add_row(["hierarchy levels", rep.n_levels])
    table.add_row(["time-to-solution", format_time(rep.time_to_solution_s)])
    table.add_row(["energy-to-solution", format_energy(rep.energy_to_solution_j)])
    table.add_row(["average power", format_power(rep.average_power_w)])
    print(table)
    return 0


def _cmd_maxcut(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.maxcut import (
        MaxCutAnnealParams,
        anneal_maxcut,
        greedy_maxcut,
        gset_style,
    )

    if args.file:
        from repro.problems.io import load_rudy

        try:
            problem = load_rudy(args.file)
        except (OSError, ReproError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        problem = gset_style(
            args.nodes, avg_degree=args.degree, seed=args.seed
        )
    print(f"problem  : {problem}")
    greedy = greedy_maxcut(problem, seed=args.seed)
    annealed = anneal_maxcut(
        problem, params=MaxCutAnnealParams(n_sweeps=args.sweeps), seed=args.seed
    )
    print(f"greedy   : cut = {greedy.cut_value:.1f}")
    print(
        f"annealed : cut = {annealed.cut_value:.1f} "
        f"(acceptance {annealed.acceptance_rate:.2f})"
    )
    return 0


#: One-line objective blurbs for ``repro problems list``; pinned by
#: ``tests/test_cli.py`` to cover exactly ``list_families()``.
_FAMILY_BLURBS = {
    "coloring": "minimise edge conflicts over a fixed palette",
    "knapsack": "maximise packed value under a weight capacity",
    "maxsat": "maximise the total weight of satisfied clauses",
}


def _problems_list(args: argparse.Namespace) -> int:
    from repro.problems import list_families, make_problem

    table = Table(
        "Registered QUBO problem families (docs/problems.md)",
        ["family", "objective", "QUBO vars (size 16, seed 0)"],
    )
    for name in list_families():
        sample = make_problem(name, 16, 0)
        table.add_row([name, _FAMILY_BLURBS[name], sample.n_qubo_vars])
    print(table)
    return 0


def _problems_convert(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.problems.io import load_qubo, save_qubo

    try:
        qubo = load_qubo(args.input)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    save_qubo(qubo, args.output)
    print(f"loaded   : {qubo}")
    print(f"written  : {args.output} (repro.qubo/v1 JSON)")
    return 0


def _family_solution_line(
    fam: "FamilyProblem", solution: "np.ndarray"
) -> str:
    """One-line family-specific rendering of a decoded solution."""
    from repro.problems import GraphColoringProblem, KnapsackProblem

    if isinstance(fam, GraphColoringProblem):
        return f"colors={[int(c) for c in solution]}"
    if isinstance(fam, KnapsackProblem):
        chosen = [i for i, b in enumerate(solution) if b]
        return f"items={chosen}"
    n_true = sum(int(b) for b in solution)
    return f"assignment={n_true}/{fam.n_vars} true"


def _problems_solve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.backends import resolve_backend
    from repro.errors import ReproError
    from repro.problems import FamilyProblem, make_problem

    fam: Optional[FamilyProblem] = None
    try:
        if args.file:
            from repro.problems.io import load_qubo

            qubo = load_qubo(args.file)
        else:
            fam = make_problem(args.family, args.size, args.seed)
            qubo = fam.to_qubo()
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fam is not None:
        print(f"instance : {fam}")
    print(f"qubo     : {qubo}")
    impl = resolve_backend(args.backend)
    plan = impl.compile(qubo, None)
    result = impl.solve(plan, args.seed)
    view = impl.decode(qubo, result)
    print(f"solution : backend={args.backend}  energy={view['energy']:.1f}")
    ops = "  ".join(
        f"{k}={v}" for k, v in sorted(view.get("ops", {}).items())
    )
    print(f"ops      : {ops or 'none'}")
    if fam is not None:
        decoded = fam.decode(np.asarray(view["bits"], dtype=np.int64))
        print(
            f"decoded  : {_family_solution_line(fam, decoded)}  "
            f"feasible={fam.is_feasible(decoded)}  "
            f"objective={fam.objective(decoded):.1f}"
        )
        print(
            f"baseline : {fam.family} reference objective = "
            f"{fam.objective(fam.reference()):.1f}"
        )
    if args.reference:
        ref = impl.reference(qubo, args.seed)
        print(
            f"reference: {ref:.1f}  optimal ratio = "
            f"{result.optimal_ratio(ref):.3f}"
        )
    return 0


def _problems_submit(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.errors import ReproError
    from repro.gateway.client import GatewayClient, GatewayHTTPError
    from repro.problems import make_problem
    from repro.runtime.options import SolveRequest

    seeds = list(range(args.seed, args.seed + max(1, args.ensemble)))
    try:
        fam = make_problem(args.family, args.size, args.seed)
        qubo = fam.to_qubo()
        request = SolveRequest.build(
            qubo, seeds, tag=args.tag, backend=args.backend
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"instance : {fam}")
    print(f"qubo     : {qubo}")
    client = GatewayClient(args.url)
    try:
        handle = client.submit(request)
        job_id = str(handle["job_id"])
        print(
            f"job      : {job_id}  shard={handle['shard']}  "
            f"state={handle['state']}"
        )
        result = client.result(job_id)
    except GatewayHTTPError as exc:
        print(f"error    : {exc}", file=sys.stderr)
        return 1
    except ConnectionError as exc:
        print(
            f"error    : cannot reach gateway at {args.url}: {exc}",
            file=sys.stderr,
        )
        return 1
    best = result["best"]
    print(
        f"ensemble : {len(result['lengths'])} runs  "
        f"best energy={best['length']:.1f}  shard={result['shard']}"
    )
    decoded = fam.decode(np.asarray(best["tour"], dtype=np.int64))
    print(
        f"decoded  : {_family_solution_line(fam, decoded)}  "
        f"feasible={fam.is_feasible(decoded)}  "
        f"objective={fam.objective(decoded):.1f}"
    )
    stats = result["ratio_stats"]
    if stats is not None:
        print(
            f"quality  : ratio mean={stats['mean']:.3f}  "
            f"min={stats['minimum']:.3f}  max={stats['maximum']:.3f}"
        )
    return 0


_PROBLEMS_COMMANDS = {
    "list": _problems_list,
    "convert": _problems_convert,
    "solve": _problems_solve,
    "submit": _problems_submit,
}


def _cmd_problems(args: argparse.Namespace) -> int:
    return _PROBLEMS_COMMANDS[args.problems_command](args)


_COMMANDS = {
    "solve": _cmd_solve,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "capacity": _cmd_capacity,
    "sram-curve": _cmd_sram_curve,
    "ppa": _cmd_ppa,
    "maxcut": _cmd_maxcut,
    "problems": _cmd_problems,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
