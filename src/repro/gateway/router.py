"""The gateway's admission front over one :class:`AnnealingService`.

:class:`ShardRouter` owns the one
:class:`~repro.runtime.service.AnnealingService` the gateway solves
on.  Solves run in that service's
:class:`~repro.runtime.executor.WorkerPool` (``options.max_workers``
processes), away from the event loop's interpreter, and the pool owns
process isolation, heals and per-seed retries.  A one-worker service
builds no pool and solves on its job threads instead.

The router adds only what an HTTP front needs on top:

* non-blocking admission.  A service applies backpressure by making
  ``submit`` wait; a gateway cannot hold an HTTP client hostage like
  that, so the router checks :attr:`AnnealingService.at_capacity` and
  raises :class:`GatewayOverloadedError` (the server's 429) instead;
* job lookup by id (:class:`UnknownJobError` is the server's 404);
* the per-backend and per-kind counters ``/metrics`` reports
  (``repro.gateway_metrics/v1``).

The handles it returns are the service's own :class:`Job`: ids are
``<tag>-NNNN``, each record's ``worker`` field reads ``pool@<job id>``
(``serial@<job id>`` without a pool), a request's ``deadline_s`` and
a client's cancel act on the job directly, and ``job.stream()``
replays every frame exactly once to each subscriber.

The class keeps its name from the sharded gateway it replaced:
``benchmarks/perf`` traces ``ShardRouter.submit`` as its
``router.submit`` span.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.backends.base import problem_kind
from repro.errors import GatewayError
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.runtime.service import AnnealingService, Job

METRICS_SCHEMA = "repro.gateway_metrics/v1"


class GatewayOverloadedError(GatewayError):
    """The service is at capacity (HTTP 429); retry later."""


class GatewayUnavailableError(GatewayError):
    """The gateway is shut down and takes no jobs (HTTP 503)."""


class UnknownJobError(GatewayError):
    """No job with the requested id exists (HTTP 404)."""


class ShardRouter:
    """One :class:`AnnealingService` behind a non-blocking front.

    Use as an async context manager::

        async with ShardRouter(EnsembleOptions(max_workers=4)) as router:
            job = await router.submit(request)
            async for record in job.stream():
                ...
            result = await job.result()

    ``options`` configures the service: ``max_workers`` is the pool
    width and ``max_pending_jobs`` the admission limit past which
    :meth:`submit` rejects.
    """

    def __init__(self, options: Optional[EnsembleOptions] = None) -> None:
        self.options = options if options is not None else EnsembleOptions()
        self.service = AnnealingService(self.options)
        self._submitted = 0
        self._rejected = 0
        self._by_backend: Dict[str, int] = {}
        self._by_kind: Dict[str, int] = {}

    @property
    def ready(self) -> bool:
        """True while the service is started and its pool is not spent
        (``/readyz``)."""
        return self.service.started and not self.service.pool_spent

    async def start(self) -> None:
        """Start the service (idempotent; :meth:`submit` auto-starts)."""
        if self.service.closed:
            raise GatewayUnavailableError(
                "router is shut down; no new jobs accepted"
            )
        await self.service.start()

    async def submit(self, request: SolveRequest) -> Job:
        """Admit one request; returns its handle.

        Raises :class:`GatewayOverloadedError` when the service is at
        capacity, instead of queueing the caller.
        """
        await self.start()
        if self.service.at_capacity:
            self._rejected += 1
            raise GatewayOverloadedError(
                f"service at capacity ({self.options.max_pending_jobs} "
                "pending jobs); retry later"
            )
        job = await self.service.submit(request)
        self._submitted += 1
        self._by_backend[request.backend] = (
            self._by_backend.get(request.backend, 0) + 1
        )
        kind = problem_kind(request.instance)
        self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
        return job

    def get(self, job_id: str) -> Job:
        """Look up a job; :class:`UnknownJobError` when absent."""
        job = self.service.jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job: {job_id!r}")
        return job

    async def shutdown(self, drain: bool = True) -> None:
        """Shut the service down (drain or cancel). Idempotent."""
        await self.service.shutdown(drain=drain)

    async def __aenter__(self) -> "ShardRouter":
        await self.start()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.shutdown(drain=exc_type is None)

    def metrics(self) -> Dict[str, Any]:
        """Gateway counters (``repro.gateway_metrics/v1``).

        ``states`` counts jobs by lifecycle state, ``faults_by_kind``
        the chaos faults injected into their runs so far (from the
        records each job has streamed), and ``pool_rebuilds`` the
        pool's heals.  ``failovers`` (always 0) and ``per_shard`` (one
        entry whose ``jobs`` is the job count) are kept only because
        ``benchmarks/perf`` reads them.
        """
        jobs = self.service.jobs
        states: Dict[str, int] = {}
        faults: Dict[str, int] = {}
        for job in jobs.values():
            states[job.state.value] = states.get(job.state.value, 0) + 1
            for record in job.records:
                for kind in record.faults_injected:
                    faults[kind] = faults.get(kind, 0) + 1
        return {
            "schema": METRICS_SCHEMA,
            "workers": self.options.max_workers,
            "jobs_submitted": self._submitted,
            "jobs_rejected": self._rejected,
            "jobs_by_backend": dict(sorted(self._by_backend.items())),
            "jobs_by_problem_kind": dict(sorted(self._by_kind.items())),
            "inflight": self.service.inflight_jobs,
            "at_capacity": self.service.at_capacity,
            "pool_rebuilds": self.service.pool_rebuilds,
            "states": states,
            "faults_by_kind": faults,
            "failovers": 0,
            "per_shard": [{"jobs": len(jobs)}],
        }


__all__ = [
    "GatewayOverloadedError",
    "GatewayUnavailableError",
    "METRICS_SCHEMA",
    "ShardRouter",
    "UnknownJobError",
]
