"""Parallel ensemble + async serving runtime.

The scaling spine of the reproduction: everything that turns one
deterministic :class:`~repro.annealer.hierarchical.ClusteredCIMAnnealer`
solve into an instrumented many-seed, many-instance workload lives
here.

* :class:`EnsembleOptions` / :class:`SolveRequest` — the frozen,
  keyword-only tuning surface and *the* input type shared by
  :func:`repro.annealer.batch.solve_ensemble`,
  :meth:`AnnealingService.submit`, and the CLI;
* :class:`EnsembleExecutor` — process-pool fan-out with chunked seed
  dispatch, per-run timeout + bounded retry, failure isolation,
  completion callbacks, and deterministic (seed-ordered,
  serial-identical) results;
* :class:`WorkerPool` — the one owner of a worker-process pool: built
  once, healed within a lifetime budget, hung slots counted across
  every run that shares it;
* :class:`AnnealingService` / :class:`Job` / :class:`JobState` — the
  async multi-instance serving front-end: one shared pool, many
  concurrent jobs, per-job streamed :class:`RunTelemetry`, admission
  control, graceful drain/cancel shutdown (``docs/serving.md``);
* :class:`RunTelemetry` / :class:`EnsembleTelemetry` — structured,
  JSON-serialisable per-run and aggregate instrumentation (wall times,
  per-level solve times, trial counters, write-backs, chip MAC/energy
  counters), with job ids threaded through the ``worker`` field;
* :class:`FaultPlan` / :class:`FaultInjector` / :class:`FaultKind` —
  the deterministic chaos layer, plus the supervision primitives
  (:class:`Backoff`, :class:`CircuitBreaker`) the runtime recovers
  with (``docs/robustness.md``).

:func:`repro.annealer.batch.solve_ensemble` is the blocking
convenience entry point (itself a thin wrapper over a single-job
service); use :class:`AnnealingService` directly to serve many
concurrent instances, and :func:`solve_async` to await one request.
Executor internals (``_solve_unit``, the dispatch loops) are private.
"""

from repro.runtime.executor import EnsembleExecutor, WorkerPool
from repro.runtime.faults import (
    Backoff,
    CircuitBreaker,
    CircuitOpenError,
    FaultInjector,
    FaultKind,
    FaultPlan,
    InjectedFault,
    ResultIntegrityError,
)
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.runtime.service import (
    AnnealingService,
    Job,
    JobState,
    solve_async,
    solve_sync,
)
from repro.runtime.telemetry import EnsembleTelemetry, RunTelemetry

__all__ = [
    "AnnealingService",
    "Backoff",
    "CircuitBreaker",
    "CircuitOpenError",
    "EnsembleExecutor",
    "EnsembleOptions",
    "EnsembleTelemetry",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "InjectedFault",
    "Job",
    "JobState",
    "ResultIntegrityError",
    "RunTelemetry",
    "SolveRequest",
    "WorkerPool",
    "solve_async",
    "solve_sync",
]
