"""Keyword-only tuning surface of the solve APIs.

Two frozen value types define every knob of the ensemble/serving
stack:

* :class:`EnsembleOptions` — the tuning parameters shared by
  :class:`repro.runtime.EnsembleExecutor`,
  :class:`repro.runtime.AnnealingService`, and
  :func:`repro.annealer.batch.solve_ensemble` (pool width, per-run
  timeout/retry budget, chunked dispatch, and the serving-side
  admission-control knobs);
* :class:`SolveRequest` — *the* input type of a solve: instance +
  seeds + base config + options.  The same object is accepted by
  ``solve_ensemble``, ``AnnealingService.submit``, and built by the
  CLI, so every entry point validates seeds exactly once, the same
  way.

Both are frozen: a request enqueued into the serving runtime must not
be mutable while worker processes and telemetry streams still refer to
it.  (The pre-1.1 positional/keyword forms of the old APIs were
shimmed for one release and removed in 1.2; see ``docs/serving.md``.)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.errors import AnnealerError
from repro.runtime.faults import FaultPlan

if TYPE_CHECKING:  # import cycle: repro.annealer.batch uses this module
    from repro.annealer.config import AnnealerConfig
    from repro.backends.base import ProblemLike

_LABEL = re.compile(r"[A-Za-z0-9_-]*")


def check_label(what: str, label: str) -> None:
    """Reject a label that cannot sit inside a job id.

    Tags and service names end up in job ids and ``worker`` fields
    (``pool@<tag>-0001``) and in ``/v1/jobs/<id>`` URLs, so
    only ASCII letters, digits, ``-`` and ``_`` are allowed.
    """
    if not _LABEL.fullmatch(label):
        raise AnnealerError(
            f"{what} may use only ASCII letters, digits, '-' and '_', "
            f"got {label!r}"
        )


@dataclass(frozen=True)
class EnsembleOptions:
    """Tuning parameters of the ensemble/serving runtime (keyword-only
    by convention: construct with explicit field names).

    Parameters
    ----------
    max_workers:
        Worker processes; ``1`` (default) runs serially in-process.
        For an :class:`~repro.runtime.AnnealingService` this is the
        width of the *shared* pool all jobs multiplex onto.
    timeout_s:
        Per-run wall-clock budget in pool mode (None = unbounded).
    max_retries:
        Extra in-process attempts for a failed/timed-out run
        (0 = fail fast).
    chunk_size:
        Seeds submitted per dispatch wave (None = ``2 × max_workers``).
    strict:
        If True, a run that exhausts its retries raises
        :class:`~repro.errors.AnnealerError` instead of being reported
        as ``ok=False`` telemetry.
    max_inflight_per_job:
        Admission control: at most this many of one job's seeds may be
        in flight at once, so a single huge ensemble cannot starve
        sibling jobs sharing the pool (None = ``2 × max_workers``).
    max_pending_jobs:
        Admission control: bound on jobs admitted (queued or running)
        per service; further ``submit()`` calls apply backpressure by
        awaiting a free slot.
    backoff_base_s, backoff_cap_s:
        Retry pacing: a failed/timed-out run's in-process retries are
        spaced by a bounded exponential backoff with deterministic
        jitter (:class:`repro.runtime.faults.Backoff`) starting at
        ``backoff_base_s`` and capped at ``backoff_cap_s``.
        ``backoff_base_s=0`` disables the pacing (tests).
    self_heal_budget:
        How many times a broken (or hang-starved) worker pool may be
        rebuilt over its owner's life before runs degrade to the
        serial path.  The owner is the
        :class:`~repro.runtime.AnnealingService` (one budget for its
        lifetime, shared by every job) or, for a bare
        :meth:`~repro.runtime.EnsembleExecutor.run`, that one run.
    breaker_threshold:
        Per-job circuit breaker: after this many *consecutive*
        terminal run failures the job fails fast with
        :class:`~repro.runtime.faults.CircuitOpenError` instead of
        burning the rest of its seeds (``None`` disables).
    fault_plan:
        Deterministic chaos layer (:class:`repro.runtime.faults.
        FaultPlan`): injects worker crash / hang / corrupted-result /
        broken-pool faults at seeded per-attempt probabilities.
        ``None`` (default) injects nothing.
    batch_size:
        Seeds a worker claims per dispatch for a ``batchable`` backend
        (for TSP on ``cluster-cim``,
        :func:`repro.annealer.batched.solve_batch`, whose seeds that
        share a cluster tree anneal in one swap-trial kernel).  ``1``
        (default) sends one seed per dispatch.  Batching changes
        throughput only: every replica's result and telemetry counters
        are bit-identical to its own one-seed run under every
        configuration, one ``RunTelemetry`` is still emitted per seed,
        and an active fault plan keeps every dispatch at one seed.
    """

    max_workers: int = 1
    timeout_s: Optional[float] = None
    max_retries: int = 1
    chunk_size: Optional[int] = None
    strict: bool = False
    max_inflight_per_job: Optional[int] = None
    max_pending_jobs: int = 16
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    self_heal_budget: int = 2
    breaker_threshold: Optional[int] = 8
    fault_plan: Optional[FaultPlan] = None
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise AnnealerError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.max_workers < 1:
            raise AnnealerError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.max_retries < 0:
            raise AnnealerError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise AnnealerError(
                f"timeout_s must be > 0, got {self.timeout_s}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise AnnealerError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if (
            self.max_inflight_per_job is not None
            and self.max_inflight_per_job < 1
        ):
            raise AnnealerError(
                "max_inflight_per_job must be >= 1, got "
                f"{self.max_inflight_per_job}"
            )
        if self.max_pending_jobs < 1:
            raise AnnealerError(
                f"max_pending_jobs must be >= 1, got {self.max_pending_jobs}"
            )
        if self.backoff_base_s < 0:
            raise AnnealerError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_cap_s < self.backoff_base_s:
            raise AnnealerError(
                "backoff_cap_s must be >= backoff_base_s, got "
                f"cap={self.backoff_cap_s} base={self.backoff_base_s}"
            )
        if self.self_heal_budget < 0:
            raise AnnealerError(
                f"self_heal_budget must be >= 0, got {self.self_heal_budget}"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise AnnealerError(
                "breaker_threshold must be >= 1 or None, got "
                f"{self.breaker_threshold}"
            )
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise AnnealerError(
                "fault_plan must be a repro.runtime.faults.FaultPlan, got "
                f"{type(self.fault_plan).__name__}"
            )

    @property
    def effective_inflight_per_job(self) -> int:
        """The per-job in-flight seed cap actually enforced."""
        if self.max_inflight_per_job is not None:
            return self.max_inflight_per_job
        return max(1, 2 * self.max_workers)


@dataclass(frozen=True)
class SolveRequest:
    """One solve: problem + seeds + base config + options + backend.

    The single input type shared by
    :func:`repro.annealer.batch.solve_ensemble`,
    :meth:`repro.runtime.AnnealingService.submit`, and the CLI.

    Parameters
    ----------
    instance:
        The problem payload: a :class:`~repro.tsp.instance.TSPInstance`
        for the TSP backends, an :class:`~repro.ising.model.IsingModel`
        for ``simcim``, or a :class:`~repro.maxcut.problem.
        MaxCutProblem` for ``maxcut-sb``.  Validated here against the
        selected backend's declared
        :meth:`~repro.backends.base.SolverBackend.capabilities`.
    seeds:
        Seeds; each produces an independent fabrication + anneal.
        Normalised to a tuple of ints; duplicates and empty sequences
        are rejected here, once, for every entry point.
    config:
        Base :class:`~repro.annealer.config.AnnealerConfig`; its
        ``seed`` field is replaced per run.  Only backends that declare
        ``accepts_config`` (the default ``cluster-cim``) take one.
    reference:
        Reference objective for optimal ratios (computed by the
        backend from the first seed when omitted).
    options:
        Runtime tuning (see :class:`EnsembleOptions`).
    tag:
        Optional human label; the serving runtime folds it into the
        generated job id (and thus each record's ``worker`` field), so
        it may use only ASCII letters, digits, ``-`` and ``_``.
    backend:
        Registry name of the solver backend to dispatch to
        (:func:`repro.backends.list_backends` enumerates them);
        defaults to the clustered CIM annealer.
    deadline_s:
        End-to-end wall-clock budget for the whole request, measured
        from admission.  ``None`` (default) means unbounded.  The
        serving runtime rejects the request up front when the budget is
        already spent and cancels the solve cooperatively when it
        expires mid-run, so retries can never extend the total wall
        time (:class:`~repro.errors.DeadlineExceededError`).
    """

    instance: "ProblemLike"
    seeds: Tuple[int, ...]
    config: Optional["AnnealerConfig"] = None
    reference: Optional[float] = None
    options: EnsembleOptions = field(default_factory=EnsembleOptions)
    tag: str = ""
    backend: str = "cluster-cim"
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        seeds = tuple(int(s) for s in self.seeds)
        object.__setattr__(self, "seeds", seeds)
        if not seeds:
            raise AnnealerError("need at least one seed")
        check_label("tag", self.tag)
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise AnnealerError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )
        if len(set(seeds)) != len(seeds):
            dupes = sorted({s for s in seeds if seeds.count(s) > 1})
            raise AnnealerError(
                f"duplicate seeds {dupes} would skew ensemble statistics; "
                "pass distinct seeds"
            )
        # Imported lazily: repro.backends sits above this module.
        from repro.backends import problem_kind, resolve_backend

        caps = resolve_backend(self.backend).capabilities()
        kind = problem_kind(self.instance)
        if kind not in caps.problem_kinds:
            raise AnnealerError(
                f"backend {self.backend!r} solves "
                f"{sorted(caps.problem_kinds)} problems, got {kind!r}"
            )
        if self.config is not None and not caps.accepts_config:
            raise AnnealerError(
                f"backend {self.backend!r} does not take an AnnealerConfig"
            )
        # The AnnealerConfig describes the clustered TSP pipeline; QUBO
        # plans anneal with their own kernels, so reject early rather
        # than silently ignoring the config worker-side.
        if self.config is not None and kind == "qubo":
            raise AnnealerError(
                "qubo problems do not take an AnnealerConfig"
            )

    @classmethod
    def build(
        cls,
        instance: "ProblemLike",
        seeds: Sequence[int],
        *,
        config: Optional["AnnealerConfig"] = None,
        reference: Optional[float] = None,
        options: Optional[EnsembleOptions] = None,
        tag: str = "",
        backend: str = "cluster-cim",
        deadline_s: Optional[float] = None,
    ) -> "SolveRequest":
        """Keyword-only constructor accepting any seed sequence."""
        return cls(
            instance=instance,
            seeds=tuple(int(s) for s in seeds),
            config=config,
            reference=reference,
            options=options or EnsembleOptions(),
            tag=tag,
            backend=backend,
            deadline_s=deadline_s,
        )
