"""Structured per-run and per-ensemble telemetry.

The ensemble runtime (:mod:`repro.runtime.executor`) produces one
:class:`RunTelemetry` record per seed — wall time, per-level solve
times, trial counters, write-back counts, and the chip MAC/energy
counters — and aggregates them into an :class:`EnsembleTelemetry`
summary.  Both are plain dataclasses of JSON-native values so they can
be serialised (``to_dict`` / ``to_json``) and shipped to dashboards,
SSE frames or ``--telemetry-out`` files without any custom encoders.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
)

from repro.errors import AnnealerError

if TYPE_CHECKING:  # import cycle: repro.annealer.batch uses this module
    from pathlib import Path

    import numpy as np

    from repro.annealer.result import LevelReport
    from repro.cim.macro import CIMChip


class RunResultLike(Protocol):
    """Structural interface of one solve result, any backend.

    :class:`~repro.annealer.result.AnnealResult` (the clustered CIM
    annealer) and :class:`~repro.backends.base.BackendRunResult` (every
    other registered backend) both satisfy it; the ensemble runtime,
    telemetry extraction, and the wire codecs are written against this
    protocol so they never need to know which backend produced a
    result.  ``tour`` is the solution state vector — a city permutation
    for TSP backends, a ±1 spin vector for Ising/Max-Cut backends —
    and ``length`` is the minimised objective (tour length, Ising
    energy, or negated cut value).
    """

    # Mutable attributes (the chaos layer's corrupt fault tampers with
    # ``length`` on a copy to prove the integrity gate catches it).
    tour: "np.ndarray"
    length: float
    wall_time_s: float

    @property
    def chip(self) -> Optional["CIMChip"]:
        """Hardware event counters, or ``None`` for non-CIM backends."""
        ...

    @property
    def levels(self) -> Sequence["LevelReport"]:
        """Per-level solve reports (empty for flat, non-hierarchical backends)."""
        ...

    def optimal_ratio(self, reference_length: float) -> float:
        """Objective relative to a reference value (0.0 when no reference)."""
        ...


class Stopwatch:
    """Telemetry-layer wall-clock span timer.

    The single sanctioned way to measure wall time inside solver
    kernels: every duration that ends up in :class:`RunTelemetry`
    (``wall_time_s``, ``level_times_s``) comes from one of these, so
    per-level numbers are measured identically everywhere and the
    RL006 lint rule can flag ad-hoc ``time.*`` reads.

    >>> watch = Stopwatch()
    >>> watch.elapsed_s() >= 0.0
    True
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed_s(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return time.perf_counter() - self._start

    def restart(self) -> float:
        """Reset the origin; return the span that just ended."""
        now = time.perf_counter()
        elapsed = now - self._start
        self._start = now
        return elapsed


@dataclass
class RunTelemetry:
    """Everything observable about one ensemble run.

    Attributes
    ----------
    seed:
        The run's seed (also its identity inside the ensemble).
    ok:
        False when the run failed and exhausted its retries; all other
        fields except ``error`` are then zero/empty.
    wall_time_s:
        Host wall-clock of the solve (includes scheduling overhead in
        the worker, excludes queue wait).
    length, optimal_ratio:
        Solution quality (ratio is 0.0 when no reference was available).
    level_times_s:
        Per-level solve wall times, in solve order (top level first).
    trials_proposed, trials_accepted:
        Swap trials summed over all hierarchy levels.
    writeback_events, mac_cycles, macs_performed, weight_bits_written:
        Chip hardware-event counters for the run.
    retries:
        How many extra attempts this run needed (0 = first try).
    faults_injected:
        Chaos accounting: the fault kinds the active
        :class:`~repro.runtime.faults.FaultPlan` injected into this
        run's attempts, in attempt order (empty without a plan — real
        faults show up in ``first_error``/``error`` instead).
    backoff_s:
        Total seconds this run spent in retry backoff
        (:class:`~repro.runtime.faults.Backoff`); deterministic for a
        given seed.
    first_error:
        Repr of the *first* failure this run hit, preserved even when
        a later attempt recovered (``ok=True``); empty for clean runs.
        ``error`` keeps the terminal failure of unrecovered runs.
    worker:
        ``"pool"`` when solved in a pool worker, ``"serial"`` when
        solved in-process (serial path or retry fallback).  The
        serving runtime (:mod:`repro.runtime.service`) threads the job
        id through as a suffix — ``"pool@job-0001"`` — so records from
        jobs multiplexed onto one shared pool stay attributable.
        Parse the job id back with :attr:`job_id`.
    error:
        Repr of the terminal failure, empty on success.
    backend:
        Registry name of the solver backend that produced this run
        (``"cluster-cim"``, ``"maxcut-sb"``, ...), stamped by the
        ensemble executor on every record it emits.  Empty only for
        records built by hand outside the runtime; the field is a real
        dataclass field (not parsed out of ``worker``) so framed and
        unframed records round-trip identically through
        :meth:`to_json_line`.
    ops:
        Algorithmic operation counts of the solve (``spin_flips``,
        ``macs``, ``rng_draws``) when the backend ran an op-counted
        kernel (:mod:`repro.problems.opcount`); empty otherwise.
        Complements the hardware-event counters above: those count
        simulated chip cycles, these count solver operations.
    """

    seed: int
    ok: bool = True
    wall_time_s: float = 0.0
    length: float = 0.0
    optimal_ratio: float = 0.0
    level_times_s: List[float] = field(default_factory=list)
    trials_proposed: int = 0
    trials_accepted: int = 0
    writeback_events: int = 0
    mac_cycles: int = 0
    macs_performed: int = 0
    weight_bits_written: int = 0
    retries: int = 0
    worker: str = "serial"
    error: str = ""
    faults_injected: List[str] = field(default_factory=list)
    backoff_s: float = 0.0
    first_error: str = ""
    backend: str = ""
    ops: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_result(
        cls,
        seed: int,
        result: RunResultLike,
        reference: Optional[float] = None,
        retries: int = 0,
        worker: str = "serial",
        faults_injected: Optional[List[str]] = None,
        backoff_s: float = 0.0,
        first_error: str = "",
    ) -> "RunTelemetry":
        """Extract the telemetry of a completed solve."""
        chip = result.chip
        return cls(
            seed=int(seed),
            ok=True,
            wall_time_s=float(result.wall_time_s),
            length=float(result.length),
            optimal_ratio=(
                float(result.optimal_ratio(reference)) if reference else 0.0
            ),
            level_times_s=[float(lv.wall_time_s) for lv in result.levels],
            trials_proposed=sum(lv.swaps_proposed for lv in result.levels),
            trials_accepted=sum(lv.swaps_accepted for lv in result.levels),
            writeback_events=int(chip.writeback_events) if chip else 0,
            mac_cycles=int(chip.mac_cycles) if chip else 0,
            macs_performed=int(chip.macs_performed) if chip else 0,
            weight_bits_written=int(chip.weight_bits_written) if chip else 0,
            retries=int(retries),
            worker=worker,
            faults_injected=list(faults_injected or []),
            backoff_s=float(backoff_s),
            first_error=first_error,
            ops={
                str(k): int(v)
                for k, v in (getattr(result, "ops", None) or {}).items()
            },
        )

    @classmethod
    def from_failure(
        cls,
        seed: int,
        error: BaseException,
        retries: int = 0,
        worker: str = "serial",
        faults_injected: Optional[List[str]] = None,
        backoff_s: float = 0.0,
        first_error: str = "",
    ) -> "RunTelemetry":
        """Record a run that exhausted its retries."""
        return cls(
            seed=int(seed),
            ok=False,
            retries=int(retries),
            worker=worker,
            error=repr(error),
            faults_injected=list(faults_injected or []),
            backoff_s=float(backoff_s),
            first_error=first_error or repr(error),
        )

    @property
    def job_id(self) -> str:
        """Job id threaded into ``worker`` by the serving runtime.

        Empty for records produced outside a service (plain
        ``"serial"`` / ``"pool"`` workers).
        """
        _, sep, job = self.worker.partition("@")
        return job if sep else ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native dict view."""
        return asdict(self)

    def to_json_line(self) -> str:
        """One-record stream frame: compact JSON, no embedded newlines.

        The serving runtime's streaming surfaces (``job.stream()``
        consumers, ``repro solve --stream``) emit one frame per line so
        downstream collectors can tail them without buffering whole
        ensembles.
        """
        return json.dumps(
            {"schema": "repro.run_telemetry/v1", **self.to_dict()},
            separators=(",", ":"),
        )


@dataclass
class EnsembleTelemetry:
    """Aggregated telemetry of one ensemble invocation.

    ``wall_time_s`` is the end-to-end ensemble wall-clock (what a user
    waits for); ``total_run_time_s`` sums the individual runs' solve
    times — their ratio is the effective parallel speedup.
    ``job_id`` is set by the serving runtime when the ensemble ran as a
    service job; empty for direct :func:`solve_ensemble`-style calls.
    ``backend`` is the registry name of the solver backend the ensemble
    dispatched to (``"cluster-cim"`` by default).  ``pool_rebuilds``
    counts the heals of a broken or hang-starved worker pool this
    ensemble asked for and got a working pool back from, including a
    pool a sibling job had already rebuilt (see
    ``docs/robustness.md``).
    """

    runs: List[RunTelemetry] = field(default_factory=list)
    max_workers: int = 1
    mode: str = "serial"
    wall_time_s: float = 0.0
    job_id: str = ""
    pool_rebuilds: int = 0
    backend: str = ""

    @property
    def n_runs(self) -> int:
        """Total runs, including failed ones."""
        return len(self.runs)

    @property
    def n_failed(self) -> int:
        """Runs that exhausted their retries."""
        return sum(1 for r in self.runs if not r.ok)

    @property
    def total_run_time_s(self) -> float:
        """Sum of the per-run solve wall times."""
        return float(sum(r.wall_time_s for r in self.runs))

    @property
    def throughput_runs_per_s(self) -> float:
        """Completed runs per second of ensemble wall-clock."""
        if self.wall_time_s <= 0:
            return 0.0
        return (self.n_runs - self.n_failed) / self.wall_time_s

    @property
    def parallel_speedup(self) -> float:
        """``total_run_time_s / wall_time_s`` — 1.0 means no overlap."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.total_run_time_s / self.wall_time_s

    @property
    def total_trials_proposed(self) -> int:
        """Swap trials proposed across all runs."""
        return sum(r.trials_proposed for r in self.runs)

    @property
    def total_trials_accepted(self) -> int:
        """Swap trials accepted across all runs."""
        return sum(r.trials_accepted for r in self.runs)

    @property
    def total_retries(self) -> int:
        """Extra attempts spent across all runs."""
        return sum(r.retries for r in self.runs)

    @property
    def total_backoff_s(self) -> float:
        """Seconds spent in retry backoff across all runs."""
        return float(sum(r.backoff_s for r in self.runs))

    @property
    def total_faults_injected(self) -> int:
        """Chaos faults injected across all runs (0 without a plan)."""
        return sum(len(r.faults_injected) for r in self.runs)

    @property
    def faults_by_kind(self) -> Dict[str, int]:
        """Injected-fault counts keyed by kind, for chaos reports."""
        counts: Dict[str, int] = {}
        for run in self.runs:
            for kind in run.faults_injected:
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native dict view (runs plus the derived aggregates)."""
        return {
            "schema": "repro.ensemble_telemetry/v1",
            "mode": self.mode,
            "job_id": self.job_id,
            "backend": self.backend,
            "max_workers": self.max_workers,
            "n_runs": self.n_runs,
            "n_failed": self.n_failed,
            "pool_rebuilds": self.pool_rebuilds,
            "total_retries": self.total_retries,
            "total_backoff_s": self.total_backoff_s,
            "total_faults_injected": self.total_faults_injected,
            "faults_by_kind": self.faults_by_kind,
            "wall_time_s": self.wall_time_s,
            "total_run_time_s": self.total_run_time_s,
            "throughput_runs_per_s": self.throughput_runs_per_s,
            "parallel_speedup": self.parallel_speedup,
            "total_trials_proposed": self.total_trials_proposed,
            "total_trials_accepted": self.total_trials_accepted,
            "runs": [r.to_dict() for r in self.runs],
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialise to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: Union[str, "Path"]) -> None:
        """Write the JSON document to ``path``."""
        from pathlib import Path

        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EnsembleTelemetry":
        """Rebuild from a ``to_dict`` payload (derived fields ignored)."""
        if "runs" not in data:
            raise AnnealerError("telemetry payload has no 'runs' list")
        runs = [RunTelemetry(**r) for r in data["runs"]]
        return cls(
            runs=runs,
            max_workers=int(data.get("max_workers", 1)),
            mode=str(data.get("mode", "serial")),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            job_id=str(data.get("job_id", "")),
            pool_rebuilds=int(data.get("pool_rebuilds", 0)),
            backend=str(data.get("backend", "")),
        )
