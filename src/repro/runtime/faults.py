"""Deterministic fault injection + self-healing primitives.

The paper's central trick is *controlled* noise: pseudo-read bit
errors act as annealing noise and are periodically recovered by weight
write-back (Fig. 6).  This module is the runtime analogue for
*uncontrolled* faults: a seeded chaos layer that injects worker
crashes, hangs, corrupted results, and broken pools on purpose — plus
the supervision primitives the runtime uses to recover from them, the
same way write-back recovers the weight state.

* :class:`FaultPlan` — a frozen, seeded fault schedule.  The decision
  "which fault (if any) hits run ``seed`` on attempt ``a``" is a pure
  function of ``(plan.seed, seed, attempt)``, so the dispatching
  parent can account for every injected fault without any side channel
  from the worker, and a chaos run is reproducible from one seed.
* :class:`FaultInjector` — executes the plan around one work unit in
  :func:`repro.runtime.executor._solve_unit`: raises for crashes,
  sleeps through hangs, tampers results for corruption, and kills the
  worker process for broken-pool faults.
* :class:`ResultIntegrityError` — what the integrity gate at the pool
  boundary (:meth:`repro.backends.SolverBackend.validate_result`)
  raises for a result whose state is malformed or whose reported
  objective does not match the state; the runtime treats it as a
  transient worker fault and retries.
* :class:`Backoff` — bounded exponential backoff with deterministic
  jitter; the sanctioned retry pacer (lint rule RL007 flags bare
  ``time.sleep`` retry loops).
* :class:`CircuitBreaker` — consecutive-failure breaker; the serving
  runtime opens one per job so a faulting job fails fast instead of
  burning its whole seed list (and never poisons sibling jobs).

See ``docs/robustness.md`` for the fault model and the chaos-testing
walkthrough.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional, Tuple, TypeVar

from repro.errors import AnnealerError
from repro.utils.rng import RandomState

if TYPE_CHECKING:
    from repro.runtime.telemetry import RunResultLike

#: Any backend's run result (the corrupt fault tampers a copy of one).
ResultT = TypeVar("ResultT", bound="RunResultLike")


class FaultKind(str, Enum):
    """The four fault classes the chaos layer can inject.

    * ``CRASH`` — the worker raises mid-solve (transient exception).
    * ``HANG`` — the worker sleeps ``hang_s`` before solving; with a
      per-run ``timeout_s`` below ``hang_s`` the dispatching parent
      observes a timeout.
    * ``CORRUPT`` — the worker returns a tampered result (reported
      length no longer matches the tour); caught by
      the backend's ``validate_result`` gate.
    * ``BROKEN_POOL`` — the worker process dies hard (``os._exit``),
      breaking the whole ``ProcessPoolExecutor`` mid-flight.  Injected
      in-process (serial path) it downgrades to a raise.
    """

    CRASH = "crash"
    HANG = "hang"
    CORRUPT = "corrupt"
    BROKEN_POOL = "broken-pool"

    def observed(self, exc: Optional[BaseException], hung: bool) -> bool:
        """Did this fault, scheduled for a *pool* attempt, actually run?

        Pool execution is not certain (a queued task can be cancelled
        or killed by a sibling's pool breakage before its own fault
        fires), so pool-attempt accounting goes by the observed
        outcome: ``exc`` is the attempt's error (None on success) and
        ``hung`` says a timed-out worker was still running.
        """
        from concurrent.futures.process import BrokenProcessPool

        if exc is None or isinstance(exc, InjectedFault):
            # Raised the injected crash, or ran to completion: only a
            # hang (slept, then solved) can coexist with success, since
            # a corrupt result fails validation.
            return True
        if isinstance(exc, ResultIntegrityError):
            return self is FaultKind.CORRUPT
        if isinstance(exc, TimeoutError):
            # Only a *running* worker has executed its injected sleep; a
            # still-queued attempt timed out on queue wait instead.
            return self is FaultKind.HANG and hung
        if isinstance(exc, BrokenProcessPool):
            return self is FaultKind.BROKEN_POOL
        return False


class InjectedFault(RuntimeError):
    """Raised by the injector for crash (and in-process broken-pool)
    faults.  Derives from ``RuntimeError`` — an injected fault is a
    *transient* worker failure the retry machinery must absorb, never
    an :class:`~repro.errors.AnnealerError` configuration failure."""


class ResultIntegrityError(RuntimeError):
    """A worker returned a result that fails integrity validation
    (non-permutation tour, or reported length diverging from the
    recomputed one).  Treated as a transient worker fault: the run is
    retried in-process, exactly like a crash."""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, reproducible fault schedule for chaos runs.

    Probabilities are *per attempt*: for each ``(run seed, attempt)``
    pair one uniform draw (derived purely from ``(plan seed, run seed,
    attempt)``) selects at most one fault kind.  Attempts at or beyond
    ``max_faults_per_run`` are always clean, which is what guarantees a
    retried run converges to the fault-free result — the software
    analogue of the paper's periodic weight write-back.

    Parameters
    ----------
    seed:
        Chaos seed; the whole schedule is a pure function of it.
    crash_rate, hang_rate, corrupt_rate, broken_pool_rate:
        Per-attempt probability of each fault kind (their sum must be
        <= 1).
    hang_s:
        How long an injected hang sleeps before solving.  Make it
        exceed the runtime's ``timeout_s`` for the hang to surface as
        a timeout.
    max_faults_per_run:
        Attempts ``0 .. max_faults_per_run-1`` of a run may draw a
        fault; later attempts never do.  Keep it at or below the
        runtime's ``max_retries`` so every chaos run still succeeds.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0
    broken_pool_rate: float = 0.0
    hang_s: float = 0.5
    max_faults_per_run: int = 1

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise AnnealerError(f"chaos seed must be >= 0, got {self.seed}")
        rates = {
            "crash_rate": self.crash_rate,
            "hang_rate": self.hang_rate,
            "corrupt_rate": self.corrupt_rate,
            "broken_pool_rate": self.broken_pool_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise AnnealerError(f"{name} must be in [0, 1], got {rate}")
        if sum(rates.values()) > 1.0 + 1e-12:
            raise AnnealerError(
                f"fault rates must sum to <= 1, got {sum(rates.values())}"
            )
        if self.hang_s <= 0:
            raise AnnealerError(f"hang_s must be > 0, got {self.hang_s}")
        if self.max_faults_per_run < 0:
            raise AnnealerError(
                "max_faults_per_run must be >= 0, got "
                f"{self.max_faults_per_run}"
            )

    @property
    def enabled(self) -> bool:
        """True when any fault kind has a non-zero rate."""
        return (
            self.crash_rate > 0
            or self.hang_rate > 0
            or self.corrupt_rate > 0
            or self.broken_pool_rate > 0
        )

    def fault_for(self, run_seed: int, attempt: int) -> Optional[FaultKind]:
        """The fault scheduled for ``(run_seed, attempt)``, if any.

        Pure: independent of call order, process, and thread — the
        worker uses it to inject and the parent uses it to account,
        and both always agree.
        """
        if attempt >= self.max_faults_per_run or not self.enabled:
            return None
        stream = RandomState(self.seed).child(
            f"fault/{int(run_seed)}/{int(attempt)}"
        )
        draw = float(stream.random())
        edge = self.crash_rate
        if draw < edge:
            return FaultKind.CRASH
        edge += self.hang_rate
        if draw < edge:
            return FaultKind.HANG
        edge += self.corrupt_rate
        if draw < edge:
            return FaultKind.CORRUPT
        edge += self.broken_pool_rate
        if draw < edge:
            return FaultKind.BROKEN_POOL
        return None

    def faults_for_run(
        self, run_seed: int, n_attempts: int
    ) -> Tuple[str, ...]:
        """The fault kinds scheduled over a run's first ``n_attempts``
        attempts, in attempt order (accounting/test helper)."""
        kinds = []
        for attempt in range(n_attempts):
            kind = self.fault_for(run_seed, attempt)
            if kind is not None:
                kinds.append(kind.value)
        return tuple(kinds)


class FaultInjector:
    """Executes a :class:`FaultPlan` around one solve attempt.

    Lives worker-side: :func:`repro.runtime.executor._solve_unit`
    builds one per attempt from the (picklable) plan and calls
    :meth:`pre_solve` before and :meth:`post_solve` after the real
    solve.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def pre_solve(self, seed: int, attempt: int, *, in_pool: bool) -> None:
        """Inject any scheduled crash / hang / broken-pool fault."""
        kind = self.plan.fault_for(seed, attempt)
        if kind is FaultKind.CRASH:
            raise InjectedFault(
                f"injected crash (seed={seed}, attempt={attempt})"
            )
        if kind is FaultKind.BROKEN_POOL:
            if in_pool:
                # Dying hard (no cleanup, no exception) is what actually
                # breaks a ProcessPoolExecutor, exactly like an OOM kill.
                os._exit(3)
            raise InjectedFault(
                f"injected broken-pool fault (seed={seed}, "
                f"attempt={attempt}; in-process: raised instead)"
            )
        if kind is FaultKind.HANG:
            time.sleep(self.plan.hang_s)

    def post_solve(
        self, seed: int, attempt: int, result: ResultT
    ) -> ResultT:
        """Tamper the result when a corrupt fault is scheduled."""
        if self.plan.fault_for(seed, attempt) is not FaultKind.CORRUPT:
            return result
        bad = copy.copy(result)
        # Guaranteed to trip the validate_result objective check.
        bad.length = float(result.length) + max(1.0, 0.01 * abs(result.length))
        return bad


class Backoff:
    """Bounded exponential backoff with deterministic jitter.

    The sanctioned pacer for every retry loop in ``src/repro`` (lint
    rule RL007 flags bare ``time.sleep`` retry pacing and unbounded
    ``while True`` retries).  Delay for retry ``attempt`` (1-based) is
    ``min(cap_s, base_s * 2**(attempt-1))`` scaled into its upper half
    by a jitter drawn purely from ``(seed, attempt)`` — so two workers
    retrying the same seed never sleep in lockstep, yet a chaos run's
    recorded ``backoff_s`` is bit-reproducible.

    >>> b = Backoff(base_s=0.1, cap_s=1.0, seed=7)
    >>> 0.05 <= b.delay_s(1) <= 0.1
    True
    >>> b.delay_s(1) == Backoff(base_s=0.1, cap_s=1.0, seed=7).delay_s(1)
    True
    """

    def __init__(
        self,
        base_s: float = 0.05,
        cap_s: float = 1.0,
        *,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if base_s < 0:
            raise AnnealerError(f"base_s must be >= 0, got {base_s}")
        if cap_s < base_s:
            raise AnnealerError(
                f"cap_s must be >= base_s, got cap_s={cap_s} base_s={base_s}"
            )
        self.base_s = float(base_s)
        self.cap_s = float(cap_s)
        self._state = RandomState(int(seed))
        self._sleep = sleep

    def delay_s(self, attempt: int) -> float:
        """The (pure, jittered) delay before retry ``attempt`` >= 1."""
        if attempt < 1:
            raise AnnealerError(f"attempt must be >= 1, got {attempt}")
        if self.base_s == 0:
            return 0.0
        span = min(self.cap_s, self.base_s * (2.0 ** (attempt - 1)))
        jitter = float(self._state.child(f"backoff/{attempt}").random())
        return span * (0.5 + 0.5 * jitter)

    def wait(self, attempt: int) -> float:
        """Sleep the delay for retry ``attempt``; returns the seconds
        slept (what the runtime adds to ``RunTelemetry.backoff_s``)."""
        delay = self.delay_s(attempt)
        if delay > 0:
            self._sleep(delay)
        return delay


class CircuitOpenError(AnnealerError):
    """Raised when a :class:`CircuitBreaker` is open: the run/job has
    accumulated too many consecutive terminal faults and fails fast
    instead of burning the rest of its seed budget."""


class CircuitBreaker:
    """Consecutive-terminal-failure circuit breaker.

    One per job (not shared, not thread-safe): the serving runtime
    builds one in :meth:`AnnealingService._execute` so a job whose runs
    keep failing terminally trips after ``threshold`` consecutive
    failures and fails fast — sibling jobs on the same pool have their
    own breakers and are untouched.  A single successful run closes it
    again (fault recovered — the analogue of a write-back refresh).
    """

    def __init__(self, threshold: Optional[int] = 8) -> None:
        if threshold is not None and threshold < 1:
            raise AnnealerError(
                f"breaker threshold must be >= 1 or None, got {threshold}"
            )
        self.threshold = threshold
        self._consecutive = 0
        self._total_failures = 0

    @property
    def consecutive_failures(self) -> int:
        """Terminal failures since the last success."""
        return self._consecutive

    @property
    def total_failures(self) -> int:
        """Terminal failures recorded over the breaker's lifetime."""
        return self._total_failures

    @property
    def is_open(self) -> bool:
        """True once ``threshold`` consecutive failures accumulated."""
        return (
            self.threshold is not None
            and self._consecutive >= self.threshold
        )

    def record_success(self) -> None:
        """A run completed: close the breaker."""
        self._consecutive = 0

    def record_failure(self) -> None:
        """A run failed terminally (retries exhausted)."""
        self._consecutive += 1
        self._total_failures += 1

    def check(self, context: str = "") -> None:
        """Raise :class:`CircuitOpenError` when open."""
        if self.is_open:
            where = f" before {context}" if context else ""
            raise CircuitOpenError(
                f"circuit breaker open{where}: {self._consecutive} "
                f"consecutive run failures (threshold "
                f"{self.threshold}); failing fast instead of retrying "
                "the remaining seeds"
            )
