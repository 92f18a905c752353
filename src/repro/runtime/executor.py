"""Process-pool ensemble executor.

Solves one problem once per seed through a registered
:class:`~repro.backends.base.SolverBackend`, as the paper runs replica
groups on a shared fabric.  A **work unit** is ``(backend name,
compiled plan, seed group)``: the plan is compiled once per run, and
:func:`_solve_unit`, the one worker entry, resolves the backend by name
and calls ``backend.solve_group(plan, seeds)`` (``solve`` for a group
of one), wrapped in a :class:`~repro.runtime.faults.FaultInjector`
when a chaos :class:`~repro.runtime.faults.FaultPlan` is active.  Seeds
are grouped ``options.batch_size`` at a time only when the backend
declares ``batchable`` and no fault plan is active.

One serial loop and one pool loop run the units.  Both share the
backend's ``validate_result`` gate, the per-seed in-process retry
(``max_retries`` extra attempts paced by a jittered
:class:`~repro.runtime.faults.Backoff`), circuit-breaker checks,
injected-fault accounting and cancellation (checked before each unit
is dispatched and before each record is emitted).  The pool loop adds
chunked waves and timeouts (``timeout_s`` per seed in the unit) on a
:class:`WorkerPool`, the one owner of the process pool: it counts hung
slots across every run sharing it and rebuilds a broken or
hang-starved pool within ``self_heal_budget`` over its life, after
which runs degrade to the serial loop.
Results are reassembled in the caller's seed order, so every path is
bit-identical to the serial one.  Only :meth:`EnsembleExecutor.run` and
:class:`WorkerPool` are supported API; ``docs/architecture.md`` and
``docs/robustness.md`` describe the behaviour in full.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import AnnealerError
from repro.runtime.faults import (
    Backoff,
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    FaultPlan,
)
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.runtime.telemetry import (
    EnsembleTelemetry,
    RunResultLike,
    RunTelemetry,
    Stopwatch,
)

if TYPE_CHECKING:  # import cycle: repro.annealer.batch uses this module
    from concurrent.futures import Executor, Future
    from threading import Event

    from repro.annealer.config import AnnealerConfig
    from repro.backends.base import BackendPlan, ProblemLike, SolverBackend

#: Fires with each run's telemetry record the moment it is final.
RunCallback = Callable[[RunTelemetry], None]

#: One seed's final outcome: its result (None if it failed) and record.
Outcome = Tuple[Optional[RunResultLike], RunTelemetry]


def _solve_unit(
    backend: str,
    plan: "BackendPlan",
    seeds: Sequence[int],
    faults: Optional[FaultPlan] = None,
    attempt: int = 0,
    in_pool: bool = False,
) -> List[RunResultLike]:
    """Worker entry point: one work unit, a seed group of one plan.

    Module-level (not a closure) so it pickles into pool workers; the
    backend is resolved by registry name *inside* the worker, so only
    the name, the compiled plan and the seeds cross the process
    boundary.  A group of one is a per-seed ``solve``.  Under an active
    fault plan every unit is a single seed, and the injector wraps it.
    """
    from repro.backends import resolve_backend

    impl = resolve_backend(backend)
    if faults is None:
        if len(seeds) == 1:
            return [impl.solve(plan, seeds[0])]
        return impl.solve_group(plan, seeds)
    (seed,) = seeds
    injector = FaultInjector(faults)
    injector.pre_solve(seed, attempt, in_pool=in_pool)
    return [injector.post_solve(seed, attempt, impl.solve(plan, seed))]


class WorkerPool:
    """The worker-process pool one owner shares across its runs.

    The only code that builds, heals or releases a process pool.  An
    :class:`~repro.runtime.service.AnnealingService` owns one for its
    lifetime and every job dispatches into it; a bare
    :meth:`EnsembleExecutor.run` with ``max_workers > 1`` builds one for
    that run.  Hung slots (timed-out runs whose worker cannot be
    cancelled) are counted across every run on the pool, so one job's
    hangs starve the pool for all of them and any run heals it.  Heals
    are serialised: a run that saw a pool break hands it to
    :meth:`heal`, which returns the pool a sibling already rebuilt, or
    spends one unit of ``budget`` on a rebuild.  ``executor`` is None
    once the pool is down (build failed, budget spent or
    :meth:`close` ran), and every later run degrades to the serial
    loop.
    """

    def __init__(self, max_workers: int, budget: int) -> None:
        self.max_workers = max_workers
        self.budget_left = budget
        self.rebuilds = 0
        self._generation = 0
        self._hung = 0
        self._closed = False
        self._lock = threading.Lock()
        self.executor: Optional["Executor"] = self._build()

    def _build(self) -> Optional["Executor"]:
        try:
            from concurrent.futures import ProcessPoolExecutor

            return ProcessPoolExecutor(max_workers=self.max_workers)
        # Pool construction cannot raise AnnealerError, and any failure
        # here (sandbox, no fork, ...) must degrade to the serial path.
        except Exception:  # repro-lint: ignore[RL005]
            return None

    def note_hung(self, fut: "Future[Any]") -> None:
        """A timed-out future could not be cancelled: its worker slot
        stays occupied until the hung run finishes on its own (or the
        pool it ran on is replaced)."""
        with self._lock:
            self._hung += 1
            generation = self._generation

        def _reclaim(_done: "Future[Any]") -> None:
            with self._lock:
                if self._generation == generation:
                    self._hung -= 1

        fut.add_done_callback(_reclaim)

    @property
    def hung_slots(self) -> int:
        """Worker slots currently occupied by hung runs."""
        with self._lock:
            return self._hung

    def starved(self) -> bool:
        """True when hung runs occupy every worker slot."""
        return self.hung_slots >= self.max_workers

    def heal(self, broken: "Executor") -> Optional["Executor"]:
        """Replace ``broken``, a pool a run saw break or starve.

        Returns the current pool without spending budget when a
        sibling already replaced ``broken``; otherwise abandons it and
        spends one unit of budget on a rebuild.  None (closed, budget
        spent or rebuild failed) means degrade to the serial loop.
        """
        with self._lock:
            if self._closed or self.executor is not broken:
                return self.executor
            # Abandon, don't wait: hung workers finish their sleep and
            # exit on their own; queued tasks are cancelled.
            broken.shutdown(wait=False, cancel_futures=True)
            self.executor = None
            self._hung = 0
            self._generation += 1
            if self.budget_left <= 0:
                return None
            self.budget_left -= 1
            self.executor = self._build()
            if self.executor is not None:
                self.rebuilds += 1
            return self.executor

    def close(self) -> None:
        """Release the pool without waiting; later heals are declined."""
        with self._lock:
            self._closed = True
            executor, self.executor = self.executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)


@dataclass
class _Dispatch:
    """The per-run state of one :meth:`EnsembleExecutor.run`.

    Holds the compiled plan, the callbacks and the records emitted so
    far, so the executor itself stays free of per-run mutable state
    (one instance may serve concurrent ``run()`` calls).
    """

    options: EnsembleOptions
    backend: str
    impl: "SolverBackend"
    plan: "BackendPlan"
    reference: Optional[float]
    n_seeds: int
    on_run_complete: Optional[RunCallback]
    worker_prefix: str
    worker_suffix: str
    cancel: Optional["Event"]
    breaker: Optional[CircuitBreaker]
    by_seed: Dict[int, Outcome] = field(default_factory=dict)
    rebuilds: int = 0

    @property
    def faults(self) -> Optional[FaultPlan]:
        """The active chaos plan, or None."""
        plan = self.options.fault_plan
        return plan if plan is not None and plan.enabled else None

    # -- shared by both loops ------------------------------------------
    def groups(self, seeds: List[int]) -> List[List[int]]:
        """Slice the ordered seeds into work units.

        Seeds are grouped only for a batchable backend with no fault
        plan active: chaos needs per-seed attempt accounting.
        """
        width = 1
        if self.faults is None and self.impl.capabilities().batchable:
            width = self.options.batch_size
        return [seeds[i : i + width] for i in range(0, len(seeds), width)]

    def check_cancel(self) -> None:
        if self.cancel is not None and self.cancel.is_set():
            raise AnnealerError(
                f"ensemble cancelled after {len(self.by_seed)}/"
                f"{self.n_seeds} runs"
            )

    def check_breaker(self, group: List[int]) -> None:
        if self.breaker is not None:
            for seed in group:
                self.breaker.check(f"run for seed {seed}")

    def emit(self, seed: int, outcome: Outcome) -> None:
        # A seed that finished after the cancel landed is dropped.
        self.check_cancel()
        outcome[1].backend = self.backend
        self.by_seed[seed] = outcome
        if self.on_run_complete is not None:
            self.on_run_complete(outcome[1])

    def worker(self, where: str) -> str:
        return f"{self.worker_prefix}{where}{self.worker_suffix}"

    def fault_for(self, seed: int, attempt: int) -> Optional[FaultKind]:
        faults = self.faults
        return None if faults is None else faults.fault_for(seed, attempt)

    def settle(
        self,
        group: List[int],
        results: Optional[List[RunResultLike]],
        error: Optional[BaseException],
        *,
        in_pool: bool,
        hung: bool = False,
    ) -> None:
        """Validate, account and emit one finished unit, seed by seed.

        A seed whose unit failed, or whose result fails the backend's
        integrity gate, goes to the in-process retry fallback.
        """
        for i, seed in enumerate(group):
            result = None if results is None else results[i]
            exc = error
            if result is not None:
                try:
                    self.impl.validate_result(self.plan.problem, result)
                except AnnealerError:
                    raise
                except Exception as bad:  # noqa: BLE001 — a worker fault
                    exc = bad
            faults: List[str] = []
            kind = self.fault_for(seed, 0)
            # In-process execution is certain: the scheduled fault ran.
            if kind is not None and (
                not in_pool or kind.observed(exc, hung)
            ):
                faults.append(kind.value)
            if exc is not None:
                self.emit(seed, self.attempt_serial(seed, exc, faults))
                continue
            assert result is not None
            if self.breaker is not None:
                self.breaker.record_success()
            record = RunTelemetry.from_result(
                seed,
                result,
                self.reference,
                worker=self.worker("pool" if in_pool else "serial"),
                faults_injected=faults,
            )
            self.emit(seed, (result, record))

    def attempt_serial(
        self, seed: int, first_error: BaseException, faults: List[str]
    ) -> Outcome:
        """Retry one seed in-process with the attempts its unit left.

        The unit was attempt 0; retries are paced by a bounded,
        deterministically jittered :class:`Backoff`, and the unit's
        failure is kept as the record's ``first_error`` even when a
        retry recovers.
        """
        options = self.options
        backoff = Backoff(
            options.backoff_base_s, options.backoff_cap_s, seed=seed
        )
        backoff_s = 0.0
        last = first_error
        attempt = 1
        while attempt <= options.max_retries:
            backoff_s += backoff.wait(attempt)
            kind = self.fault_for(seed, attempt)
            if kind is not None:
                faults.append(kind.value)
            try:
                (result,) = _solve_unit(
                    self.backend, self.plan, [seed], self.faults, attempt
                )
                self.impl.validate_result(self.plan.problem, result)
            except AnnealerError:
                raise  # configuration errors are not transient: fail loud
            except Exception as exc:  # noqa: BLE001 — isolate worker faults
                last = exc
                attempt += 1
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return result, RunTelemetry.from_result(
                seed,
                result,
                self.reference,
                retries=attempt,
                worker=self.worker("serial"),
                faults_injected=faults,
                backoff_s=backoff_s,
                first_error=repr(first_error),
            )
        if self.breaker is not None:
            self.breaker.record_failure()
        if options.strict:
            raise AnnealerError(
                f"run for seed {seed} failed after "
                f"{options.max_retries + 1} attempts: {last!r}"
            )
        return None, RunTelemetry.from_failure(
            seed,
            last,
            retries=attempt,
            worker=self.worker("serial"),
            faults_injected=faults,
            backoff_s=backoff_s,
            first_error=repr(first_error),
        )

    # -- the two loops -------------------------------------------------
    def run_serial(self, groups: List[List[int]]) -> None:
        """Run every unit in-process, in order."""
        for group in groups:
            self.check_cancel()
            self.check_breaker(group)
            try:
                results = _solve_unit(self.backend, self.plan, group, self.faults)
            except AnnealerError:
                raise  # configuration errors are not transient: fail loud
            except Exception as exc:  # noqa: BLE001 — isolate worker faults
                self.settle(group, None, exc, in_pool=False)
            else:
                self.settle(group, results, None, in_pool=False)

    def run_pool(self, groups: List[List[int]], pool: WorkerPool) -> bool:
        """Run the units on the pool in waves; True if it degraded.

        A starved pool is healed before a wave goes out, a broken one
        as soon as a wave saw it break.  A wave the pool refuses (shut
        down or broken under a sibling) runs in-process after a heal is
        attempted for the next wave; once the pool is down every later
        wave runs in-process.
        """
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        options = self.options
        chunk = options.chunk_size or max(1, 2 * options.max_workers)
        executor = pool.executor
        for lo in range(0, len(groups), chunk):
            self.check_cancel()
            wave = groups[lo : lo + chunk]
            if executor is not None and pool.starved():
                executor = self.heal(pool, executor)
            if executor is None:
                self.run_serial(wave)
                continue
            futures = self.submit(executor, wave)
            if futures is None:
                executor = self.heal(pool, executor)
                self.run_serial(wave)
                continue
            pool_broke = False
            for group, fut in zip(wave, futures):
                self.check_breaker(group)
                budget = (
                    None
                    if options.timeout_s is None
                    else options.timeout_s * len(group)
                )
                try:
                    results = fut.result(timeout=budget)
                except FuturesTimeout:
                    # Reclaim the worker slot if the unit never started;
                    # a running (hung) worker cannot be cancelled and
                    # occupies its slot until done.
                    hung = not fut.cancel()
                    if hung:
                        pool.note_hung(fut)
                    what = (
                        "run"
                        if len(group) == 1
                        else f"batch of {len(group)} runs"
                    )
                    timeout = TimeoutError(f"{what} exceeded {budget}s in pool")
                    self.settle(group, None, timeout, in_pool=True, hung=hung)
                except AnnealerError:
                    raise
                except Exception as exc:  # worker crash / broken pool
                    if isinstance(exc, BrokenProcessPool):
                        pool_broke = True
                    self.settle(group, None, exc, in_pool=True)
                else:
                    self.settle(group, results, None, in_pool=True)
            if pool_broke:
                executor = self.heal(pool, executor)
        return executor is None

    def heal(
        self, pool: WorkerPool, broken: "Executor"
    ) -> Optional["Executor"]:
        """Ask the pool to replace ``broken``; counts this run's heals."""
        healed = pool.heal(broken)
        if healed is not None:
            self.rebuilds += 1
        return healed

    def submit(
        self, executor: "Executor", wave: List[List[int]]
    ) -> Optional[List["Future[List[RunResultLike]]"]]:
        """Submit one wave of units; None when the pool refuses it.

        A partial submission (the pool breaking mid-wave) cancels the
        futures already submitted; one that is already running
        finishes, but its result is never read.
        """
        futures: List["Future[List[RunResultLike]]"] = []
        try:
            for group in wave:
                fut = executor.submit(
                    _solve_unit, self.backend, self.plan, group,
                    self.faults, 0, True,
                )
                futures.append(fut)
        # A shared pool can be shut down or broken by a sibling run
        # mid-flight; the caller heals or degrades.
        except Exception:  # repro-lint: ignore[RL005]
            for fut in futures:
                fut.cancel()
            return None
        return futures


class EnsembleExecutor:
    """Configurable parallel runner for seed ensembles.

    Construct with a frozen :class:`EnsembleOptions`::

        EnsembleExecutor(EnsembleOptions(max_workers=4, timeout_s=30))
    """

    def __init__(self, options: Optional[EnsembleOptions] = None) -> None:
        self.options = options if options is not None else EnsembleOptions()

    def run(
        self,
        instance: "ProblemLike",
        seeds: Sequence[int],
        config: Optional[AnnealerConfig] = None,
        reference: Optional[float] = None,
        *,
        backend: Optional[str] = None,
        on_run_complete: Optional[RunCallback] = None,
        pool: Optional[WorkerPool] = None,
        worker_prefix: str = "",
        worker_suffix: str = "",
        cancel: Optional["Event"] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> Tuple[List[RunResultLike], EnsembleTelemetry]:
        """Solve ``instance`` once per seed.

        Returns the successful results **in input-seed order** plus the
        full telemetry (which also lists failed runs).

        Parameters
        ----------
        backend:
            Registry name of the solver backend (None means
            :data:`repro.backends.DEFAULT_BACKEND`); every record is
            stamped with it.
        on_run_complete:
            Called with each run's final :class:`RunTelemetry` as it
            lands, while later seeds are still in flight.  Must be cheap
            and must not raise.
        pool:
            The :class:`WorkerPool` to dispatch into; its owner closes
            it (the serving runtime shares one across jobs).  Without
            one, ``max_workers > 1`` builds a pool for this run only.
        worker_prefix, worker_suffix:
            Wrapped around each record's ``worker`` field: the shard
            segment (``"shard0/"``) and the job id (``"@job-0001"``).
        cancel:
            A ``threading.Event``; once set, no further unit is
            dispatched, no further record is emitted (a seed finishing
            after the cancel is dropped) and the run raises
            :class:`~repro.errors.AnnealerError`.
        breaker:
            A per-ensemble :class:`~repro.runtime.faults.CircuitBreaker`,
            consulted before each unit and fed every terminal outcome;
            once open the run raises
            :class:`~repro.runtime.faults.CircuitOpenError`.
        """
        from repro.backends import DEFAULT_BACKEND, resolve_backend

        name = backend if backend is not None else DEFAULT_BACKEND
        request = SolveRequest.build(
            instance,
            seeds,
            config=config,
            reference=reference,
            options=self.options,
            backend=name,
        )
        impl = resolve_backend(name)
        dispatch = _Dispatch(
            options=self.options,
            backend=name,
            impl=impl,
            plan=impl.compile(instance, config),
            reference=reference,
            n_seeds=len(request.seeds),
            on_run_complete=on_run_complete,
            worker_prefix=worker_prefix,
            worker_suffix=worker_suffix,
            cancel=cancel,
            breaker=breaker,
        )
        ordered = list(request.seeds)
        groups = dispatch.groups(ordered)
        own_pool = pool is None and self.options.max_workers > 1
        if own_pool:
            pool = WorkerPool(
                self.options.max_workers, self.options.self_heal_budget
            )

        watch = Stopwatch()
        if pool is None:
            mode = "serial"
            dispatch.run_serial(groups)
        else:
            try:
                degraded = dispatch.run_pool(groups, pool)
            finally:
                if own_pool:
                    pool.close()
            mode = "serial-fallback" if degraded else "parallel"
        wall = watch.elapsed_s()

        by_seed = dispatch.by_seed
        telemetry = EnsembleTelemetry(
            runs=[by_seed[s][1] for s in ordered],
            max_workers=self.options.max_workers,
            mode=mode,
            wall_time_s=wall,
            pool_rebuilds=dispatch.rebuilds,
            backend=name,
        )
        results = [
            by_seed[s][0] for s in ordered if by_seed[s][0] is not None
        ]
        return results, telemetry
