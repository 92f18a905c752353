"""Async multi-instance serving runtime.

The software analogue of a multi-problem hardware annealer: many
problem instances in flight against **one shared compute fabric**.
:class:`AnnealingService` owns a single worker-process pool and
multiplexes any number of concurrent jobs onto it:

* ``await service.submit(request)`` admits a
  :class:`~repro.runtime.options.SolveRequest` and returns a
  :class:`Job` handle immediately;
* ``job.stream()`` is an async iterator yielding
  :class:`~repro.runtime.telemetry.RunTelemetry` records as individual
  seeds finish — *while* the ensemble is still running — each tagged
  with the job id in its ``worker`` field;
* ``await job.result()`` resolves to the same bit-identical,
  seed-ordered :class:`~repro.annealer.batch.EnsembleResult` the
  serial :func:`~repro.annealer.batch.solve_ensemble` path produces
  (runs are pure functions of their seed, so multiplexing changes
  wall-clock, never tours).

Admission control keeps the fabric fair: at most
``max_pending_jobs`` jobs are admitted at once (``submit`` applies
backpressure by awaiting a free slot), and one job may have at most
``max_inflight_per_job`` seeds in flight, so a 10 000-seed ensemble
cannot starve its siblings.  Shutdown is graceful by choice:
``drain=True`` finishes admitted jobs, ``drain=False`` cancels them
cooperatively (no further seeds dispatch; in-flight results are
dropped).

Internally each job's dispatch runs on a private thread (the event
loop is never blocked) and reuses the
:class:`~repro.runtime.executor.EnsembleExecutor` retry/timeout/
fallback machinery on the service's one
:class:`~repro.runtime.executor.WorkerPool`, which owns the process
pool, its self-heal budget and its hung-slot count for the service's
lifetime; completed-run records cross back onto the event loop via
``loop.call_soon_threadsafe``.  Only picklable module-level callables
ever cross the process boundary (lint rule RL003 checks the async
boundary too).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Any,
    AsyncIterator,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import AnnealerError, DeadlineExceededError
from repro.runtime.executor import EnsembleExecutor, WorkerPool
from repro.runtime.faults import CircuitBreaker
from repro.runtime.options import EnsembleOptions, SolveRequest, check_label
from repro.runtime.telemetry import RunTelemetry

if TYPE_CHECKING:  # import cycle: repro.annealer.batch uses this module
    from repro.annealer.batch import EnsembleResult


class JobState(str, Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class Job:
    """Handle for one submitted :class:`SolveRequest`.

    Created by :meth:`AnnealingService.submit`; not constructed
    directly.  All coroutine methods must be awaited on the loop the
    job was submitted from.
    """

    def __init__(self, job_id: str, request: SolveRequest) -> None:
        self.job_id = job_id
        self.request = request
        self._state = JobState.PENDING
        self._records: List[RunTelemetry] = []
        self._result: Optional["EnsembleResult"] = None
        self._error: Optional[BaseException] = None
        self._finished = asyncio.Event()
        self._wakeup = asyncio.Event()
        self._cancel_event = threading.Event()
        self._deadline_hit = False
        self._deadline_handle: Optional[asyncio.TimerHandle] = None

    # -- public read surface -------------------------------------------
    @property
    def state(self) -> JobState:
        """Current lifecycle state."""
        return self._state

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self._finished.is_set()

    @property
    def records(self) -> Tuple[RunTelemetry, ...]:
        """Snapshot of the telemetry records streamed so far."""
        return tuple(self._records)

    @property
    def error(self) -> Optional[BaseException]:
        """The terminal error (failed/cancelled jobs), else None.

        Lets a supervisor classify an outcome without re-raising it
        (:meth:`result` raises; this just reads).
        """
        return self._error

    def cancel(self) -> None:
        """Request cooperative cancellation.

        No further seeds are dispatched, and a seed that finishes after
        the cancel is dropped rather than emitted.  Unless its last
        record was already emitted, the job settles in
        :attr:`JobState.CANCELLED` and :meth:`result` raises
        :class:`AnnealerError`.  No-op on a finished job.
        """
        self._cancel_event.set()

    async def stream(self) -> AsyncIterator[RunTelemetry]:
        """Yield each run's telemetry record as it completes.

        Safe to start before, during, or after the job runs — a late
        consumer replays the buffered records first.  Multiple
        concurrent consumers each see the full record sequence.  The
        iterator ends when the job reaches a terminal state (it does
        not raise on failure; use :meth:`result` for the outcome).
        """
        idx = 0
        while True:
            # Capture the wakeup event *before* scanning: a record
            # posted after the scan then sets this captured event, so
            # the await below cannot miss it.
            wakeup = self._wakeup
            while idx < len(self._records):
                yield self._records[idx]
                idx += 1
            if self._finished.is_set() and idx >= len(self._records):
                return
            await wakeup.wait()

    async def result(self) -> "EnsembleResult":
        """Await the terminal outcome.

        Returns the seed-ordered :class:`EnsembleResult` (bit-identical
        to the serial path); raises the job's terminal
        :class:`AnnealerError` on failure or cancellation.  Every
        telemetry record is observable via :attr:`records` /
        :meth:`stream` before this resolves.
        """
        await self._finished.wait()
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    # -- loop-side mutation (called via call_soon_threadsafe) ----------
    def _notify(self) -> None:
        wakeup = self._wakeup
        self._wakeup = asyncio.Event()
        wakeup.set()

    def _mark_running(self) -> None:
        if self._state is JobState.PENDING:
            self._state = JobState.RUNNING

    def _post_record(self, record: RunTelemetry) -> None:
        self._records.append(record)
        self._notify()

    def _deadline_fire(self) -> None:
        """Loop-side deadline watchdog: the end-to-end budget expired.

        Ordering matters: ``_deadline_hit`` is set *before* the cancel
        event so the job thread, on observing the cancellation, always
        attributes it to the deadline.
        """
        if self._finished.is_set():
            return
        self._deadline_hit = True
        self._cancel_event.set()

    def _finish(
        self,
        state: JobState,
        result: Optional["EnsembleResult"] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Settle the job; the first terminal outcome wins."""
        if self._finished.is_set():
            return
        if self._deadline_handle is not None:
            self._deadline_handle.cancel()
            self._deadline_handle = None
        self._state = state
        self._result = result
        self._error = error
        self._finished.set()
        self._notify()


class AnnealingService:
    """Shared-pool serving front-end over :class:`EnsembleExecutor`.

    One service = one worker pool (width ``options.max_workers``) +
    one admission queue.  Use as an async context manager::

        async with AnnealingService(EnsembleOptions(max_workers=4)) as svc:
            job = await svc.submit(request)
            async for record in job.stream():
                ...
            result = await job.result()

    Exiting the context drains admitted jobs (cancels them instead if
    the block raised).  The service is bound to the event loop it was
    started on.
    """

    def __init__(
        self,
        options: Optional[EnsembleOptions] = None,
        *,
        name: str = "",
    ) -> None:
        check_label("service name", name)
        self.options = options if options is not None else EnsembleOptions()
        self.name = name
        self._jobs: Dict[str, Job] = {}
        self._active: Set["asyncio.Future[None]"] = set()
        self._inflight = 0
        self._counter = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._admission: Optional[asyncio.Semaphore] = None
        self._job_threads: Optional[ThreadPoolExecutor] = None
        self._pool: Optional[WorkerPool] = None
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """True between :meth:`start` and :meth:`shutdown`."""
        return self._started and not self._closed

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; a closed service never
        restarts (front-ends must route around it)."""
        return self._closed

    @property
    def jobs(self) -> Dict[str, Job]:
        """Snapshot of every job ever admitted, keyed by job id."""
        return dict(self._jobs)

    @property
    def pool_rebuilds(self) -> int:
        """Shared-pool rebuilds performed by self-healing so far."""
        return self._pool.rebuilds if self._pool is not None else 0

    @property
    def pool_spent(self) -> bool:
        """True once the pool is down for good: it could not be built,
        or a break found its heal budget spent.  Jobs still run, on the
        executor's serial fallback.  Always False without a pool
        (``max_workers == 1``)."""
        return self._pool is not None and self._pool.executor is None

    @property
    def inflight_jobs(self) -> int:
        """Jobs admitted and not yet settled (queued or running)."""
        return self._inflight

    @property
    def at_capacity(self) -> bool:
        """True when another :meth:`submit` would have to wait.

        The non-blocking view of admission control: front-ends that
        must *reject* rather than queue (the gateway's 429 path) check
        this before submitting instead of blocking on the admission
        semaphore.
        """
        return self._inflight >= self.options.max_pending_jobs

    async def start(self) -> None:
        """Bind to the running loop and build the shared fabric.

        Idempotent; :meth:`submit` auto-starts.  With
        ``max_workers > 1`` the service's :class:`WorkerPool` is
        built; if the pool cannot start (sandbox, no ``fork``) jobs
        degrade to the executor's serial fallback, exactly like the
        sync path.
        """
        if self._closed:
            raise AnnealerError("service has been shut down; build a new one")
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._admission = asyncio.Semaphore(self.options.max_pending_jobs)
        self._job_threads = ThreadPoolExecutor(
            max_workers=self.options.max_pending_jobs,
            thread_name_prefix="repro-job",
        )
        if self.options.max_workers > 1:
            self._pool = WorkerPool(
                self.options.max_workers, self.options.self_heal_budget
            )
        self._started = True

    async def submit(self, request: SolveRequest) -> Job:
        """Admit one request; returns its :class:`Job` handle.

        The job's id is ``<tag>-NNNN`` (``job-NNNN`` without a tag).
        Applies backpressure: when ``max_pending_jobs`` jobs are
        already admitted and unfinished, this awaits until a slot
        frees.  Raises :class:`AnnealerError` once the service is shut
        down.
        """
        if not isinstance(request, SolveRequest):
            raise AnnealerError(
                "submit() takes a SolveRequest; build one with "
                "SolveRequest.build(instance, seeds, ...)"
            )
        await self.start()
        if self._closed:
            raise AnnealerError("service is shut down; no new jobs accepted")
        assert self._admission is not None
        assert self._loop is not None and self._job_threads is not None
        enqueued_at = self._loop.time()
        await self._admission.acquire()
        if self._closed:  # shut down while we waited for admission
            self._admission.release()
            raise AnnealerError("service is shut down; no new jobs accepted")
        remaining: Optional[float] = None
        if request.deadline_s is not None:
            # The admission wait already spent part of the end-to-end
            # budget; reject up front when nothing is left rather than
            # admitting a job doomed to be cancelled mid-solve.
            remaining = request.deadline_s - (self._loop.time() - enqueued_at)
            if remaining <= 0:
                self._admission.release()
                raise DeadlineExceededError(
                    f"deadline of {request.deadline_s}s spent waiting for "
                    "admission; rejecting instead of admitting a doomed job"
                )
        label = request.tag or "job"
        job = Job(f"{label}-{next(self._counter):04d}", request)
        if remaining is not None:
            job._deadline_handle = self._loop.call_later(
                remaining, job._deadline_fire
            )
        self._inflight += 1
        self._jobs[job.job_id] = job
        fut = self._loop.run_in_executor(self._job_threads, self._run_job, job)
        self._active.add(fut)
        fut.add_done_callback(self._on_job_settled)
        return job

    def _on_job_settled(self, fut: "asyncio.Future[None]") -> None:
        self._active.discard(fut)
        self._inflight = max(0, self._inflight - 1)
        if self._admission is not None:
            self._admission.release()
        if not fut.cancelled():
            fut.exception()  # _run_job never raises; keep the loop quiet

    async def shutdown(self, drain: bool = True) -> None:
        """Stop admitting jobs and release the fabric.

        ``drain=True`` (default) waits for every admitted job to
        finish; ``drain=False`` cancels them cooperatively first.
        Idempotent.
        """
        self._closed = True
        if not self._started:
            return
        if not drain:
            for job in self._jobs.values():
                if not job.done:
                    job.cancel()
        if self._active:
            await asyncio.gather(*list(self._active), return_exceptions=True)
        if self._pool is not None:
            self._pool.close()
        if self._job_threads is not None:
            # Joining the repro-job threads synchronously would stall
            # the event loop (and every other service on it) for as
            # long as the slowest job takes to notice cancellation.
            job_threads = self._job_threads
            self._job_threads = None
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, job_threads.shutdown)

    async def __aenter__(self) -> "AnnealingService":
        await self.start()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.shutdown(drain=exc_type is None)

    # ------------------------------------------------------------------
    def _post(self, fn: Callable[..., None], *args: Any) -> None:
        """Hand a job mutation to the event loop from the job thread."""
        assert self._loop is not None
        try:
            self._loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass  # loop already closed: the consumer is gone, drop it

    def _run_job(self, job: Job) -> None:
        """Job body; runs on a ``repro-job`` thread, never raises."""
        if job._cancel_event.is_set():
            if job._deadline_hit:
                self._post(
                    job._finish,
                    JobState.FAILED,
                    None,
                    DeadlineExceededError(
                        f"job {job.job_id} deadline of "
                        f"{job.request.deadline_s}s expired before start"
                    ),
                )
                return
            self._post(
                job._finish,
                JobState.CANCELLED,
                None,
                AnnealerError(f"job {job.job_id} cancelled before start"),
            )
            return
        self._post(job._mark_running)
        try:
            result = self._execute(job)
            self._post(job._finish, JobState.DONE, result, None)
        except AnnealerError as exc:
            if job._deadline_hit:
                self._post(
                    job._finish,
                    JobState.FAILED,
                    None,
                    DeadlineExceededError(
                        f"job {job.job_id} deadline of "
                        f"{job.request.deadline_s}s expired mid-solve: {exc}"
                    ),
                )
            elif job._cancel_event.is_set():
                self._post(
                    job._finish,
                    JobState.CANCELLED,
                    None,
                    AnnealerError(f"job {job.job_id} cancelled: {exc}"),
                )
            else:
                self._post(job._finish, JobState.FAILED, None, exc)
        # The job boundary is the last line of defence: any fault must
        # settle the job (and wake result()/stream() awaiters), never
        # kill the service thread silently.
        except Exception as exc:  # repro-lint: ignore[RL005]
            self._post(job._finish, JobState.FAILED, None, exc)

    def _execute(self, job: Job) -> "EnsembleResult":
        """One ensemble on the shared fabric (job thread)."""
        # Imported lazily: repro.annealer imports repro.runtime.
        from repro.analysis.quality import summarize
        from repro.annealer.batch import EnsembleResult
        from repro.backends import resolve_backend

        request = job.request
        seeds = list(request.seeds)
        reference = request.reference
        if reference is None:
            # The backend supplies the quality denominator; the default
            # cluster-cim backend computes the greedy reference_length.
            reference = resolve_backend(request.backend).reference(
                request.instance, int(seeds[0])
            )

        threshold = request.options.breaker_threshold
        breaker = CircuitBreaker(threshold) if threshold is not None else None
        runner = EnsembleExecutor(self._job_options(request.options))
        results, telemetry = runner.run(
            request.instance,
            seeds,
            config=request.config,
            reference=reference,
            backend=request.backend,
            on_run_complete=self._record_poster(job),
            pool=self._pool,
            worker_prefix=f"{self.name}/" if self.name else "",
            worker_suffix=f"@{job.job_id}",
            cancel=job._cancel_event,
            breaker=breaker,
        )
        telemetry.job_id = job.job_id
        if not results:
            raise AnnealerError(
                f"all {len(seeds)} ensemble runs failed; "
                f"first error: {telemetry.runs[0].error}"
            )
        out = EnsembleResult(
            instance=request.instance,
            reference=reference,
            results=results,
            telemetry=telemetry,
        )
        out.ratio_stats = summarize(out.ratios, seed=int(seeds[0]))
        return out

    def _record_poster(self, job: Job) -> Callable[[RunTelemetry], None]:
        """Completion callback bridging the job thread to the loop."""

        def post(record: RunTelemetry) -> None:
            self._post(job._post_record, record)

        return post

    def _job_options(self, requested: EnsembleOptions) -> EnsembleOptions:
        """Per-job executor options on the *service's* fabric.

        The service's pool width wins (the pool is shared); the
        request keeps its per-job knobs.  The dispatch wave is clamped
        to ``max_inflight_per_job`` — on the shared pool the
        executor's chunking *is* the in-flight cap, which is what
        keeps one huge ensemble from starving its siblings.
        """
        width = self.options.max_workers
        cap = requested.effective_inflight_per_job
        chunk = min(requested.chunk_size or max(1, 2 * width), cap)
        return replace(requested, max_workers=width, chunk_size=chunk)


# ----------------------------------------------------------------------
async def solve_async(request: SolveRequest) -> "EnsembleResult":
    """Run one request on a fresh single-job service and await it."""
    service = AnnealingService(request.options)
    try:
        await service.start()
        job = await service.submit(request)
        return await job.result()
    finally:
        await service.shutdown(drain=True)


def solve_sync(request: SolveRequest) -> "EnsembleResult":
    """Blocking one-shot solve of a :class:`SolveRequest`.

    The engine under :func:`repro.annealer.batch.solve_ensemble`:
    spins up a private :class:`AnnealingService`, runs the request as
    its only job, and returns the result.  Must not be called from a
    coroutine — await :meth:`AnnealingService.submit` there instead.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(solve_async(request))
    raise AnnealerError(
        "solve_sync()/solve_ensemble() would block the running event "
        "loop; use `await AnnealingService.submit(request)` instead"
    )
