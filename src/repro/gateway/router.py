"""Horizontal shard routing over :class:`AnnealingService` backends.

A :class:`ShardRouter` owns N in-process shards — independent
:class:`~repro.runtime.service.AnnealingService` instances, each with
its *own* worker pool and admission queue — and places every incoming
:class:`~repro.runtime.options.SolveRequest` on one of them via a
pluggable :class:`RoutingPolicy`:

* :class:`RoundRobinPolicy` — rotate through the shards, skipping any
  at capacity;
* :class:`LeastInflightPolicy` — pick the shard with the fewest
  admitted-and-unsettled jobs (ties break to the lowest index).

The router is the *non-blocking* front of the admission stack.  A
single service applies backpressure by making ``submit`` wait; a
gateway cannot hold an HTTP client hostage like that, so the router
checks :attr:`AnnealingService.at_capacity` instead and raises
:class:`GatewayOverloadedError` (the server's 429) only when **every**
routable shard is full — and :class:`GatewayUnavailableError` (503)
when no shard is routable at all.

The router also owns the job-id space: ids are generated *before*
dispatch (``<tag>-NNNN``, unique across shards) and passed down via
``submit(request, job_id=...)``, so the id a client polls is exactly
the id in each telemetry record's ``worker`` field —
``shard0/pool@job-0001``.

Resilience: every routed job is backed by a *supervisor* task.  A
:class:`~repro.gateway.health.ShardHealth` prober evicts shards that
stop answering liveness probes; when a job's shard is evicted, its
stream stalls past ``stall_timeout_s``, or the shard crashes outright,
the supervisor re-dispatches the job's full :class:`SolveRequest` to a
different healthy shard (never the same shard twice), paced by the
sanctioned :class:`~repro.runtime.faults.Backoff` and bounded by
``failover_budget``.  Runs are pure functions of their seed, so the
re-run is bit-identical and the :class:`GatewayJob` deduplicates
frames by seed — subscribers see one seamless stream across the
failover.  A request's ``deadline_s`` shrinks across failovers: the
re-dispatch carries only the remaining budget.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.backends.base import problem_kind
from repro.errors import AnnealerError, DeadlineExceededError, GatewayError
from repro.gateway.health import ShardHealth, ShardState
from repro.runtime.faults import Backoff, ShardFaultPlan
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.runtime.service import AnnealingService, Job, JobState
from repro.runtime.telemetry import RunTelemetry

METRICS_SCHEMA = "repro.gateway_metrics/v1"


class GatewayOverloadedError(GatewayError):
    """Every routable shard is at capacity (HTTP 429); retry later."""


class GatewayUnavailableError(GatewayError):
    """No healthy shard can take jobs at all (HTTP 503)."""


class UnknownJobError(GatewayError):
    """No job with the requested id exists on any shard (HTTP 404)."""


class RoutingPolicy:
    """How the router picks a shard for the next job.

    Subclasses implement :meth:`choose` over the candidate indices
    whose shards still have admission capacity; the router has already
    filtered out full shards (and raises
    :class:`GatewayOverloadedError` itself when none remain).
    """

    name = "abstract"

    def choose(
        self, candidates: Sequence[int], shards: Sequence[AnnealingService]
    ) -> int:
        """Return the index (into ``shards``) to place the job on."""
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Rotate through the shards, skipping any at capacity.

    Fair under uniform job sizes; oblivious to per-shard load, so a
    shard stuck with one huge ensemble keeps receiving its turn.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(
        self, candidates: Sequence[int], shards: Sequence[AnnealingService]
    ) -> int:
        n = len(shards)
        for step in range(n):
            index = (self._cursor + step) % n
            if index in candidates:
                self._cursor = (index + 1) % n
                return index
        # The router guarantees candidates is non-empty and every
        # candidate indexes into shards, so the loop always returns.
        raise GatewayError("round-robin found no candidate shard")


class LeastInflightPolicy(RoutingPolicy):
    """Pick the shard with the fewest unsettled jobs.

    Load-aware: concurrent submissions spread across shards instead of
    queueing behind a busy one.  Ties break to the lowest index, so
    placement stays deterministic for a given load pattern.
    """

    name = "least-inflight"

    def choose(
        self, candidates: Sequence[int], shards: Sequence[AnnealingService]
    ) -> int:
        return min(candidates, key=lambda i: (shards[i].inflight_jobs, i))


_POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastInflightPolicy.name: LeastInflightPolicy,
}


def policy_from_name(name: str) -> RoutingPolicy:
    """Build a routing policy from its CLI/config label."""
    try:
        return _POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise GatewayError(
            f"unknown routing policy {name!r}; known policies: {known}"
        ) from None


class GatewayJob(Job):
    """A routed job that survives its shard.

    The client-facing handle the router hands out.  It is a
    :class:`~repro.runtime.service.Job` (record buffer, replayable
    :meth:`stream`, :meth:`result`) whose records the router's
    supervisor forwards from whichever shard attempt is currently
    running.  On top of ``Job`` it adds only what failover needs:

    * the shard binding (:attr:`shard_index` / :attr:`shard_name`
      always name the shard the job is, or last was, running on, and
      :attr:`failovers` counts re-dispatches);
    * seed deduplication: runs are pure functions of their seed, so a
      replacement attempt re-produces frames the first attempt already
      streamed, and subscribers must see each seed exactly once;
    * a :attr:`state` that hides a dead attempt's cancellation while a
      failover is in flight;
    * the admission and last-progress times the stall watchdog and
      the shrinking deadline read;
    * a sticky :meth:`cancel`: the inherited cancel event stays set,
      so the supervisor never re-dispatches a cancelled job.
    """

    def __init__(self, job_id: str, request: SolveRequest) -> None:
        super().__init__(job_id, request)
        self.shard_index = -1
        self.shard_name = ""
        self.failovers = 0
        self._seen_seeds: Set[int] = set()
        self._stall_injected = False
        self._used_shards: Set[int] = set()
        self._current: Optional[Job] = None
        self._admitted_t = 0.0
        self._last_progress_t = 0.0

    @property
    def state(self) -> JobState:
        """Current lifecycle state (the gateway's view, not a shard's).

        While a failover is in flight the dead attempt's CANCELLED
        state is *not* surfaced — the job is still running as far as
        any client is concerned.
        """
        if self.done:
            return self._state
        inner = self._current
        if inner is not None and not inner.done:
            return inner.state
        return JobState.RUNNING if inner is not None else self._state

    @property
    def _cancel_requested(self) -> bool:
        """True once a client cancelled the job (sticky)."""
        return self._cancel_event.is_set()

    def cancel(self) -> None:
        """Request cooperative cancellation of every attempt."""
        super().cancel()
        inner = self._current
        if inner is not None:
            inner.cancel()

    # -- supervisor-side mutation --------------------------------------
    def _attach(self, inner: Job, shard_index: int, shard_name: str) -> None:
        """Bind the handle to the shard attempt currently running it."""
        self._current = inner
        self.shard_index = shard_index
        self.shard_name = shard_name
        self._used_shards.add(shard_index)
        self._last_progress_t = asyncio.get_running_loop().time()
        if self._cancel_requested:
            inner.cancel()

    def _post_record(self, record: RunTelemetry) -> None:
        self._last_progress_t = asyncio.get_running_loop().time()
        self._mark_running()
        if record.seed in self._seen_seeds:
            return  # replayed by a failover attempt: already delivered
        self._seen_seeds.add(int(record.seed))
        super()._post_record(record)


class ShardRouter:
    """N in-process :class:`AnnealingService` shards behind one front.

    Use as an async context manager::

        async with ShardRouter(shards=2, policy="least-inflight") as router:
            job = await router.submit(request)
            async for record in job.stream():
                ...
            result = await job.result()

    Each shard is named ``shard<i>`` and prefixes its name into every
    telemetry record's ``worker`` field.  ``shard_options`` applies to
    every shard (pool width per shard = ``shard_options.max_workers``).

    Resilience knobs (see module docstring): ``probe_interval_s`` /
    ``eviction_threshold`` / ``probation_probes`` configure the
    :class:`ShardHealth` prober, ``failover_budget`` bounds
    re-dispatches per job, ``stall_timeout_s`` is the frameless-stream
    threshold that triggers a failover, and ``shard_fault_plan``
    injects seeded shard-tier chaos for tests.
    """

    def __init__(
        self,
        shard_options: Optional[EnsembleOptions] = None,
        *,
        shards: int = 2,
        policy: str = RoundRobinPolicy.name,
        probe_interval_s: float = 0.25,
        eviction_threshold: int = 3,
        probation_probes: int = 2,
        failover_budget: int = 2,
        stall_timeout_s: float = 30.0,
        shard_fault_plan: Optional[ShardFaultPlan] = None,
    ) -> None:
        if shards < 1:
            raise GatewayError(f"need at least one shard, got {shards}")
        if failover_budget < 0:
            raise GatewayError(
                f"failover_budget must be >= 0, got {failover_budget}"
            )
        if stall_timeout_s <= 0:
            raise GatewayError(
                f"stall_timeout_s must be > 0, got {stall_timeout_s}"
            )
        options = shard_options if shard_options is not None else EnsembleOptions()
        self.options = options
        self.policy = policy_from_name(policy)
        self._shards: List[AnnealingService] = [
            AnnealingService(options, name=f"shard{i}") for i in range(shards)
        ]
        self.health = ShardHealth(
            self._shards,
            probe_interval_s=probe_interval_s,
            eviction_threshold=eviction_threshold,
            probation_probes=probation_probes,
            fault_plan=shard_fault_plan,
            on_evict=self._on_evict,
            on_stall=self._on_stall,
        )
        self.failover_budget = int(failover_budget)
        self.stall_timeout_s = float(stall_timeout_s)
        self._stall_poll_s = max(0.01, min(0.25, stall_timeout_s / 4.0))
        self._jobs: Dict[str, GatewayJob] = {}
        self._supervisors: Set["asyncio.Task[None]"] = set()
        self._counter = itertools.count(1)
        self._submitted = 0
        self._rejected = 0
        self._failovers = 0
        self._stalls = 0
        self._by_backend: Dict[str, int] = {}
        self._by_kind: Dict[str, int] = {}
        self._skips = [0 for _ in range(shards)]
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def shards(self) -> Tuple[AnnealingService, ...]:
        """The backend services, in index order."""
        return tuple(self._shards)

    @property
    def jobs(self) -> Dict[str, GatewayJob]:
        """Snapshot of every routed job, keyed by job id."""
        return dict(self._jobs)

    @property
    def healthy_shards(self) -> int:
        """Shards currently routable and accepting work (``/readyz``)."""
        return sum(
            1
            for i, shard in enumerate(self._shards)
            if self.health.is_routable(i) and shard.started
        )

    async def start(self) -> None:
        """Start every live shard and the health prober (idempotent;
        :meth:`submit` auto-starts).  Crashed (closed) shards are
        skipped — they stay down until replaced."""
        if self._closed:
            raise GatewayError("router has been shut down; build a new one")
        for shard in self._shards:
            if not shard.closed:
                await shard.start()
        await self.health.start()

    async def submit(self, request: SolveRequest) -> GatewayJob:
        """Route one request to a shard; returns its handle.

        Non-blocking admission: raises :class:`GatewayOverloadedError`
        when every routable shard is at capacity (instead of queueing
        the caller) and :class:`GatewayUnavailableError` when no shard
        is routable at all.  The routed job's id is unique across
        shards, and a supervisor task follows the job through any
        failovers.
        """
        if self._closed:
            raise GatewayError("router is shut down; no new jobs accepted")
        await self.start()
        routable = [
            i
            for i, shard in enumerate(self._shards)
            if self.health.is_routable(i) and shard.started
        ]
        if not routable:
            self._rejected += 1
            raise GatewayUnavailableError(
                f"all {len(self._shards)} shards are evicted or down; "
                "no shard can take jobs"
            )
        candidates = []
        for i in routable:
            if self._shards[i].at_capacity:
                self._skips[i] += 1
            else:
                candidates.append(i)
        if not candidates:
            self._rejected += 1
            raise GatewayOverloadedError(
                f"all {len(routable)} routable shards at capacity "
                f"({self.options.max_pending_jobs} pending jobs each); "
                "retry later"
            )
        index = self.policy.choose(candidates, self._shards)
        shard = self._shards[index]
        label = request.tag or "job"
        job_id = f"{label}-{next(self._counter):04d}"
        inner = await shard.submit(request, job_id=job_id)
        routed = GatewayJob(job_id, request)
        routed._admitted_t = asyncio.get_running_loop().time()
        routed._attach(inner, index, shard.name)
        self._jobs[job_id] = routed
        self._submitted += 1
        self._by_backend[request.backend] = (
            self._by_backend.get(request.backend, 0) + 1
        )
        kind = problem_kind(request.instance)
        self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
        supervisor = asyncio.get_running_loop().create_task(
            self._supervise(routed), name=f"repro-supervise-{job_id}"
        )
        self._supervisors.add(supervisor)
        supervisor.add_done_callback(self._supervisors.discard)
        return routed

    def get(self, job_id: str) -> GatewayJob:
        """Look up a routed job; :class:`UnknownJobError` when absent."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"no such job: {job_id!r}") from None

    async def shutdown(self, drain: bool = True) -> None:
        """Shut every shard down (drain or cancel). Idempotent."""
        self._closed = True
        await self.health.stop()
        for shard in self._shards:
            if not shard.closed:
                await shard.shutdown(drain=drain)
        if self._supervisors:
            await asyncio.gather(
                *list(self._supervisors), return_exceptions=True
            )
        for job in self._jobs.values():
            if not job.done:
                job._finish(
                    JobState.CANCELLED,
                    error=AnnealerError(
                        f"job {job.job_id} cancelled: router shut down"
                    ),
                )

    async def __aenter__(self) -> "ShardRouter":
        await self.start()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.shutdown(drain=exc_type is None)

    # -- failover machinery --------------------------------------------
    def _on_evict(self, shard_index: int) -> None:
        """Health hook: a shard was evicted — cut its jobs loose.

        Cancelling the per-shard attempts makes every affected
        supervisor observe a not-client-requested cancellation, which
        is the retryable outcome that triggers a failover.
        """
        for job in self._jobs.values():
            inner = job._current
            if (
                not job.done
                and job.shard_index == shard_index
                and inner is not None
                and not inner.done
            ):
                inner.cancel()

    def _on_stall(self, shard_index: int) -> None:
        """Chaos hook: an injected ``STREAM_STALL`` hit a shard."""
        for job in self._jobs.values():
            if not job.done and job.shard_index == shard_index:
                job._stall_injected = True

    def _pick_failover_shard(self, job: GatewayJob) -> Optional[int]:
        """A healthy, started, non-full shard the job has not used yet.

        Never re-uses a shard (its job-id space already holds this id),
        ties break to the least-loaded shard.
        """
        fresh = [
            i
            for i, shard in enumerate(self._shards)
            if self.health.is_routable(i)
            and shard.started
            and not shard.at_capacity
            and i not in job._used_shards
        ]
        if not fresh:
            return None
        return min(fresh, key=lambda i: (self._shards[i].inflight_jobs, i))

    async def _supervise(self, job: GatewayJob) -> None:
        """Follow one routed job to a terminal state, failing it over
        to fresh shards (bounded by ``failover_budget``) whenever an
        attempt dies for a non-client, non-deterministic reason."""
        loop = asyncio.get_running_loop()
        backoff = Backoff(
            self.options.backoff_base_s,
            self.options.backoff_cap_s,
            seed=int(job.request.seeds[0]),
        )
        for attempt in range(self.failover_budget + 1):
            if attempt > 0:
                delay = backoff.delay_s(attempt)
                if delay > 0:
                    await asyncio.sleep(delay)
                if job._cancel_requested or self._closed:
                    job._finish(
                        JobState.CANCELLED,
                        error=AnnealerError(
                            f"job {job.job_id} cancelled during failover"
                        ),
                    )
                    return
                request = job.request
                if request.deadline_s is not None:
                    remaining = request.deadline_s - (
                        loop.time() - job._admitted_t
                    )
                    if remaining <= 0:
                        job._finish(
                            JobState.FAILED,
                            error=DeadlineExceededError(
                                f"job {job.job_id} deadline of "
                                f"{request.deadline_s}s expired before "
                                f"failover attempt {attempt}"
                            ),
                        )
                        return
                    request = replace(request, deadline_s=remaining)
                index = self._pick_failover_shard(job)
                if index is None:
                    job._finish(
                        JobState.FAILED,
                        error=GatewayError(
                            f"job {job.job_id} lost its shard and no "
                            "unused healthy shard is available to fail "
                            "over to"
                        ),
                    )
                    return
                shard = self._shards[index]
                try:
                    inner = await shard.submit(request, job_id=job.job_id)
                except DeadlineExceededError as exc:
                    job._finish(JobState.FAILED, error=exc)
                    return
                except AnnealerError:
                    # Shard died between pick and admit: burn the
                    # attempt and look again.
                    continue
                job._attach(inner, index, shard.name)
                job._stall_injected = False
                job.failovers += 1
                self._failovers += 1
            if await self._watch_attempt(job):
                return
        job._finish(
            JobState.FAILED,
            error=GatewayError(
                f"job {job.job_id} exhausted its failover budget "
                f"({self.failover_budget}) without completing"
            ),
        )

    async def _watch_attempt(self, job: GatewayJob) -> bool:
        """Watch the current shard attempt until it settles.

        Returns True when the gateway job reached a terminal outcome
        (finished), False when the attempt died retryably (evicted /
        crashed / stalled) and the supervisor should fail over.
        """
        inner = job._current
        assert inner is not None
        loop = asyncio.get_running_loop()
        forward = loop.create_task(self._forward_records(job, inner))
        while True:
            done, _ = await asyncio.wait(
                {forward}, timeout=self._stall_poll_s
            )
            if done:
                break
            if job._cancel_requested:
                inner.cancel()
                continue
            stalled = job._stall_injected or (
                bool(job._records)
                and loop.time() - job._last_progress_t
                > self.stall_timeout_s
            )
            if stalled and not inner.done:
                # The stream went quiet mid-job: treat the attempt as
                # wedged and cut it loose so the failover path takes
                # over (the injected chaos variant skips the wait).
                job._stall_injected = False
                self._stalls += 1
                inner.cancel()
        if inner.state is JobState.DONE:
            job._finish(JobState.DONE, result=await inner.result())
            return True
        error = inner.error
        if isinstance(error, DeadlineExceededError):
            job._finish(JobState.FAILED, error=error)
            return True
        if inner.state is JobState.CANCELLED:
            if job._cancel_requested:
                job._finish(
                    JobState.CANCELLED,
                    error=error
                    or AnnealerError(f"job {job.job_id} cancelled"),
                )
                return True
            return False  # evicted / crashed / stalled: retryable
        # FAILED for a run-level reason: runs are deterministic, a
        # re-dispatch would fail identically — surface it.
        job._finish(
            JobState.FAILED,
            error=error or GatewayError(f"job {job.job_id} failed"),
        )
        return True

    async def _forward_records(self, job: GatewayJob, inner: Job) -> None:
        """Pump one attempt's telemetry into the gateway job buffer."""
        async for record in inner.stream():
            job._post_record(record)

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        """Gateway + per-shard counters (``repro.gateway_metrics/v1``).

        Per-shard ``faults_by_kind`` aggregates the chaos faults
        injected into that shard's jobs so far (from the records each
        job has streamed), ``skips`` counts submit attempts that found
        the shard at capacity, and ``state`` is the health prober's
        view (``healthy`` / ``probation`` / ``evicted``).  Gateway-
        level counters add the resilience ledger: ``failovers``
        (jobs re-dispatched to another shard), ``evictions`` /
        ``readmissions`` / ``probes`` from the health subsystem,
        ``stalls`` (attempts cut loose for a quiet stream), and
        ``shard_states`` (state-name → shard count).  ``jobs_by_
        backend`` counts accepted submissions per solver backend.
        """
        per_shard: List[Dict[str, Any]] = []
        for i, shard in enumerate(self._shards):
            shard_jobs = shard.jobs
            faults: Dict[str, int] = {}
            states: Dict[str, int] = {}
            for job in shard_jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
                for record in job.records:
                    for kind in record.faults_injected:
                        faults[kind] = faults.get(kind, 0) + 1
            per_shard.append(
                {
                    "name": shard.name,
                    "jobs": len(shard_jobs),
                    "inflight": shard.inflight_jobs,
                    "at_capacity": shard.at_capacity,
                    "state": self.health.state(i).value,
                    "skips": self._skips[i],
                    "pool_rebuilds": shard.pool_rebuilds,
                    "states": states,
                    "faults_by_kind": faults,
                }
            )
        return {
            "schema": METRICS_SCHEMA,
            "policy": self.policy.name,
            "shards": len(self._shards),
            "jobs_submitted": self._submitted,
            "jobs_rejected": self._rejected,
            "jobs_by_backend": dict(sorted(self._by_backend.items())),
            "jobs_by_problem_kind": dict(sorted(self._by_kind.items())),
            "inflight": sum(s.inflight_jobs for s in self._shards),
            "failovers": self._failovers,
            "stalls": self._stalls,
            "evictions": self.health.evictions,
            "readmissions": self.health.readmissions,
            "probes": self.health.probes,
            "shard_states": self.health.shard_states(),
            "per_shard": per_shard,
        }


# Re-exported for convenience: the health types live in their own
# module but arrive with the router in practice.
__all__ = [
    "GatewayJob",
    "GatewayOverloadedError",
    "GatewayUnavailableError",
    "LeastInflightPolicy",
    "METRICS_SCHEMA",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "ShardHealth",
    "ShardRouter",
    "ShardState",
    "UnknownJobError",
    "policy_from_name",
]
