"""The solver-backend abstraction.

One narrow interface fronts every solver the serving stack can
dispatch to: the clustered CIM annealer (the paper's solver and the
default), the dense Ising annealer, the Max-Cut bifurcation solver,
and the SimCIM mean-field optimizer.  A backend

* declares what it can solve (:class:`BackendCapabilities` — problem
  kinds, whether the executor may group seeds, whether it takes
  an :class:`~repro.annealer.config.AnnealerConfig`),
* ``compile``\\ s a problem into a picklable :class:`BackendPlan` that
  crosses the worker-pool boundary,
* ``solve``\\ s one seed of that plan into a result satisfying
  :class:`~repro.runtime.telemetry.RunResultLike` (and
  ``solve_group``\\ s a group of seeds, per seed unless overridden),
* ``decode``\\ s a result into a human-readable solution view, and
* supplies the quality ``reference`` denominator and the worker-side
  integrity ``validate_result`` gate.

``SolveRequest(backend="...")`` selects one by registry name
(:mod:`repro.backends.registry`); the ensemble executor, the async
service, the HTTP gateway, and the CLI all dispatch through it.  See
``docs/backends.md`` for the tour and the how-to-add-one guide.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import AnnealerError
from repro.runtime.telemetry import RunResultLike

if TYPE_CHECKING:
    from repro.annealer.config import AnnealerConfig
    from repro.annealer.result import LevelReport
    from repro.cim.macro import CIMChip
    from repro.ising.model import IsingModel
    from repro.maxcut.problem import MaxCutProblem
    from repro.problems.opcount import History
    from repro.problems.qubo import QUBOProblem
    from repro.tsp.instance import TSPInstance

#: Everything a :class:`~repro.runtime.options.SolveRequest` can carry.
ProblemLike = Union[
    "TSPInstance", "IsingModel", "MaxCutProblem", "QUBOProblem"
]


def problem_kind(problem: object) -> str:
    """The wire/capability kind of a problem payload.

    ``"tsp"`` for :class:`~repro.tsp.instance.TSPInstance`, ``"ising"``
    for :class:`~repro.ising.model.IsingModel`, ``"maxcut"`` for
    :class:`~repro.maxcut.problem.MaxCutProblem`, ``"qubo"`` for
    :class:`~repro.problems.qubo.QUBOProblem`; anything else raises
    :class:`~repro.errors.AnnealerError`.
    """
    # Imported lazily: the problem containers live below this package.
    from repro.ising.model import IsingModel
    from repro.maxcut.problem import MaxCutProblem
    from repro.problems.qubo import QUBOProblem
    from repro.tsp.instance import TSPInstance

    if isinstance(problem, TSPInstance):
        return "tsp"
    if isinstance(problem, IsingModel):
        return "ising"
    if isinstance(problem, MaxCutProblem):
        return "maxcut"
    if isinstance(problem, QUBOProblem):
        return "qubo"
    raise AnnealerError(
        f"unsupported problem payload {type(problem).__name__!r} "
        "(expected TSPInstance, IsingModel, MaxCutProblem, or QUBOProblem)"
    )


@dataclass(frozen=True)
class BackendCapabilities:
    """What one registered backend can solve, and how.

    Attributes
    ----------
    name:
        Registry name (``"cluster-cim"``, ...).
    problem_kinds:
        Problem payload kinds the backend accepts (``"tsp"``,
        ``"ising"``, ``"maxcut"``) — :class:`~repro.runtime.options.
        SolveRequest` validates its payload against this.
    batchable:
        Whether the ensemble executor may hand the backend groups of
        up to ``EnsembleOptions.batch_size`` seeds per
        :meth:`SolverBackend.solve_group` call — the only selector for
        grouping.  Only the clustered CIM annealer is batchable today
        (its group solver is the batched replica engine,
        :mod:`repro.annealer.batched`).
    accepts_config:
        Whether the backend consumes an ``AnnealerConfig``; requests
        carrying one for a backend that does not are rejected.
    description:
        One line for ``repro solve --help`` and docs.
    """

    name: str
    problem_kinds: Tuple[str, ...]
    batchable: bool = False
    accepts_config: bool = False
    description: str = ""


@dataclass(frozen=True)
class BackendPlan:
    """A compiled, picklable unit of solver work.

    ``compile`` runs once per request on the dispatching side; the plan
    then crosses the process-pool boundary (RL003: only module-level
    functions and plain data are submitted), and ``solve`` runs it once
    per seed worker-side.
    """

    backend: str
    problem: ProblemLike
    config: Optional["AnnealerConfig"] = None


@dataclass
class BackendRunResult:
    """One solved seed from a non-default backend.

    Satisfies :class:`~repro.runtime.telemetry.RunResultLike` next to
    :class:`~repro.annealer.result.AnnealResult`: ``tour`` is the
    solution state vector (a city permutation for TSP backends, a ±1
    spin vector otherwise) and ``length`` is the *minimised* objective
    — tour length, Ising energy, or negated cut value — so ensemble
    aggregation (``best = min(length)``) works unchanged.
    """

    tour: np.ndarray
    length: float
    wall_time_s: float = 0.0
    chip: Optional["CIMChip"] = None
    levels: Tuple["LevelReport", ...] = ()
    ops: Dict[str, int] = field(default_factory=dict)
    history: Optional["History"] = None

    def optimal_ratio(self, reference_length: float) -> float:
        """``length / reference`` — 0.0 when no reference exists.

        Sign conventions (pinned by ``tests/backends``):

        * Unlike ``AnnealResult.optimal_ratio`` this accepts *negative*
          references: Max-Cut scores ``length = -cut`` against
          ``reference = -greedy_cut`` and penalty-QUBO energies go
          negative too, so same-sign pairs yield the familiar positive
          quality ratio.
        * A mixed-sign pair yields a negative ratio — the solution sits
          on the wrong side of zero relative to the baseline, and
          hiding that by clamping would misreport quality.
        * A zero, NaN, or infinite reference means "no usable
          baseline" and reads 0.0 by convention (never a division
          error), matching the "no reference" sentinel used across
          telemetry.
        """
        ref = float(reference_length)
        if not ref or not np.isfinite(ref):
            return 0.0
        return float(self.length) / ref


class SolverBackend(ABC):
    """Abstract base of every registered solver backend.

    Subclasses are registered by name with
    :func:`~repro.backends.registry.register_backend` and resolved per
    request with :func:`~repro.backends.registry.resolve_backend`.
    Implementations must be stateless (one shared instance serves all
    requests) and deterministic per ``(plan, seed)``.
    """

    @abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Static description of what this backend solves."""

    @abstractmethod
    def compile(
        self, problem: ProblemLike, config: Optional["AnnealerConfig"]
    ) -> BackendPlan:
        """Validate + package a problem into a picklable plan."""

    @abstractmethod
    def solve(self, plan: BackendPlan, seed: int) -> RunResultLike:
        """Solve one seed of a compiled plan."""

    def solve_group(
        self, plan: BackendPlan, seeds: Sequence[int]
    ) -> List[RunResultLike]:
        """Solve a group of seeds of one plan, one result per seed.

        The executor only groups seeds for a backend that declares
        ``batchable``; an override must return, for each seed, exactly
        what :meth:`solve` returns for it.
        """
        return [self.solve(plan, seed) for seed in seeds]

    @abstractmethod
    def validate_result(
        self, problem: ProblemLike, result: RunResultLike
    ) -> None:
        """Integrity gate for results crossing the worker boundary.

        Must raise :class:`~repro.runtime.faults.ResultIntegrityError`
        when the solution state is malformed or the reported objective
        does not match a recomputation (the chaos layer's corrupt
        fault counts on this catching it).
        """

    def reference(self, problem: ProblemLike, seed: int) -> float:
        """Quality denominator for ``optimal_ratio`` (0.0 = none)."""
        return 0.0

    def decode(self, result: RunResultLike) -> Dict[str, Any]:
        """Human-readable solution view of one result."""
        return {
            "backend": self.capabilities().name,
            "state": [int(v) for v in result.tour],
            "objective": float(result.length),
        }

    def _check_kind(self, problem: ProblemLike) -> str:
        """Shared ``compile`` guard: payload kind vs capabilities."""
        caps = self.capabilities()
        kind = problem_kind(problem)
        if kind not in caps.problem_kinds:
            raise AnnealerError(
                f"backend {caps.name!r} solves {sorted(caps.problem_kinds)}, "
                f"got a {kind!r} problem"
            )
        return kind

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.capabilities().name!r})"
