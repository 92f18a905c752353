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

and inherits the rest from its problem kind: the worker-side integrity
``validate_result`` gate, the quality ``reference`` denominator and the
human-readable ``decode`` view are one entry per kind in ``_KINDS``, so
every backend scores a given kind the same way.

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
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.annealer.result import AnnealResult, LevelReport
from repro.errors import AnnealerError, ReproError
from repro.ising.model import IsingModel
from repro.maxcut.problem import MaxCutProblem
from repro.maxcut.solver import greedy_maxcut
from repro.problems.qubo import QUBOProblem
from repro.problems.solvers import greedy_qubo_descent
from repro.runtime.faults import ResultIntegrityError
from repro.runtime.telemetry import RunResultLike
from repro.tsp.instance import TSPInstance
from repro.tsp.reference import reference_length
from repro.tsp.tour import tour_length, validate_tour

if TYPE_CHECKING:
    from repro.annealer.config import AnnealerConfig
    from repro.cim.macro import CIMChip
    from repro.problems.opcount import History

#: Everything a :class:`~repro.runtime.options.SolveRequest` can carry.
ProblemLike = Union[TSPInstance, IsingModel, MaxCutProblem, QUBOProblem]


@dataclass(frozen=True)
class _Kind:
    """The result contract of one problem kind.

    ``objective`` recomputes the minimised objective (a result's
    ``length``) from its solution state, raising a
    :class:`~repro.errors.ReproError` when the state is malformed;
    ``state`` names that state and ``mismatch`` words a disagreeing
    report in :class:`~repro.runtime.faults.ResultIntegrityError`
    messages.  ``reference`` is the ``optimal_ratio`` denominator
    (0.0 = none) and ``view`` the human-readable solution.
    """

    problem_type: type
    state: str
    mismatch: str
    objective: Callable[[Any, np.ndarray], float]
    reference: Callable[[Any, int], float]
    view: Callable[[RunResultLike], Dict[str, Any]]


def _tour_length(instance: TSPInstance, tour: np.ndarray) -> float:
    validate_tour(tour, instance.n)
    return float(tour_length(instance, tour))


def _energy(model: Union[IsingModel, QUBOProblem], state: np.ndarray) -> float:
    return model.energy(np.asarray(state, dtype=np.float64))


def _ints(state: np.ndarray) -> List[int]:
    return [int(v) for v in state]


def _qubo_view(result: RunResultLike) -> Dict[str, Any]:
    view: Dict[str, Any] = {
        "bits": _ints(result.tour),
        "energy": float(result.length),
    }
    ops = getattr(result, "ops", None)
    if ops:
        view["ops"] = {k: int(v) for k, v in ops.items()}
    return view


#: Problem kind → result contract.  The keys are the wire/capability
#: kind names; ``repro.gateway.protocol.PROBLEM_CODECS`` has one codec
#: per key.
_KINDS: Dict[str, _Kind] = {
    "tsp": _Kind(
        TSPInstance,
        state="tour",
        mismatch="reported length {} does not match recomputed tour length {}",
        objective=_tour_length,
        reference=lambda p, seed: float(reference_length(p, seed=seed)),
        view=lambda r: {"tour": _ints(r.tour), "length": float(r.length)},
    ),
    "ising": _Kind(
        IsingModel,
        state="spins",
        mismatch="reported energy {} does not match recomputed energy {}",
        objective=_energy,
        # Arbitrary spin glasses have no baseline.
        reference=lambda p, seed: 0.0,
        view=lambda r: {"spins": _ints(r.tour), "energy": float(r.length)},
    ),
    # Max-Cut maximises, so ``length`` is the negated cut.
    "maxcut": _Kind(
        MaxCutProblem,
        state="spins",
        mismatch="reported objective {} does not match recomputed cut {}",
        objective=lambda p, s: -p.cut_value(np.asarray(s, dtype=np.float64)),
        # Negated like the objective, so ratio = cut / greedy_cut.
        reference=lambda p, seed: -greedy_maxcut(p, seed=seed).cut_value,
        view=lambda r: {"spins": _ints(r.tour), "cut_value": -float(r.length)},
    ),
    "qubo": _Kind(
        QUBOProblem,
        state="bits",
        mismatch="reported energy {} does not match recomputed energy {}",
        objective=_energy,
        reference=lambda p, seed: greedy_qubo_descent(p, seed=seed)[1],
        view=_qubo_view,
    ),
}


def problem_kind(problem: object) -> str:
    """The wire/capability kind of a problem payload.

    ``"tsp"`` for :class:`~repro.tsp.instance.TSPInstance`, ``"ising"``
    for :class:`~repro.ising.model.IsingModel`, ``"maxcut"`` for
    :class:`~repro.maxcut.problem.MaxCutProblem`, ``"qubo"`` for
    :class:`~repro.problems.qubo.QUBOProblem`; anything else raises
    :class:`~repro.errors.AnnealerError`.
    """
    for name, kind in _KINDS.items():
        if isinstance(problem, kind.problem_type):
            return name
    *rest, last = (kind.problem_type.__name__ for kind in _KINDS.values())
    raise AnnealerError(
        f"unsupported problem payload {type(problem).__name__!r} "
        f"(expected {', '.join(rest)}, or {last})"
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
    levels: Tuple[LevelReport, ...] = ()
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

    def validate_result(
        self, problem: ProblemLike, result: RunResultLike
    ) -> None:
        """Integrity gate for results crossing the worker boundary.

        Raises :class:`~repro.runtime.faults.ResultIntegrityError`
        when ``result`` is not a run result, its solution state is
        malformed, or its reported objective is NaN or does not match
        a recomputation (the chaos layer's corrupt fault counts on
        this catching it).
        """
        if not isinstance(result, (AnnealResult, BackendRunResult)):
            raise ResultIntegrityError(
                f"worker returned {type(result).__name__!r}, "
                "not an AnnealResult or BackendRunResult"
            )
        kind = _KINDS[problem_kind(problem)]
        try:
            recomputed = kind.objective(problem, result.tour)
        except ReproError as exc:
            raise ResultIntegrityError(
                f"corrupted {kind.state}: {exc}"
            ) from exc
        # Negated so that a NaN on either side fails the gate.
        tolerance = max(1e-6, 1e-9 * abs(recomputed))
        if not abs(recomputed - result.length) <= tolerance:
            raise ResultIntegrityError(
                "corrupted result: "
                + kind.mismatch.format(result.length, recomputed)
            )

    def reference(self, problem: ProblemLike, seed: int) -> float:
        """Quality denominator for ``optimal_ratio`` (0.0 = none)."""
        kind = _KINDS[problem_kind(problem)]
        return float(kind.reference(problem, int(seed)))

    def decode(
        self, problem: ProblemLike, result: RunResultLike
    ) -> Dict[str, Any]:
        """Human-readable solution view of one result of ``problem``."""
        view = _KINDS[problem_kind(problem)].view(result)
        return {"backend": self.capabilities().name, **view}

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
