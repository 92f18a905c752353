"""Backend adapter for the SimCIM mean-field optimizer.

Wraps :func:`repro.ising.simcim.simcim_optimize` behind the
:class:`~repro.backends.base.SolverBackend` interface: general ±1
Ising models submitted straight through ``SolveRequest`` and the
gateway.  No quality reference exists for arbitrary spin glasses, so
the ``ising`` kind's reference is 0.0 and optimal ratios read 0.0 by
convention.  Compiled QUBO plans (:mod:`repro.problems`) relax through
the same :func:`~repro.ising.simcim.simcim_optimize`, op-counted, on
the problem's Ising form and score in QUBO energy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.backends.base import (
    BackendCapabilities,
    BackendPlan,
    BackendRunResult,
    ProblemLike,
    SolverBackend,
)
from repro.backends.registry import register_backend
from repro.errors import AnnealerError
from repro.runtime.telemetry import RunResultLike, Stopwatch

if TYPE_CHECKING:
    from repro.annealer.config import AnnealerConfig


@register_backend("simcim")
class SimCIMBackend(SolverBackend):
    """SimCIM mean-field relaxation for dense ±1 Ising models."""

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="simcim",
            problem_kinds=("ising", "qubo"),
            batchable=False,
            accepts_config=False,
            description="SimCIM mean-field optimizer (pm1 Ising models)",
        )

    def compile(
        self, problem: ProblemLike, config: Optional["AnnealerConfig"]
    ) -> BackendPlan:
        from repro.ising.model import IsingModel
        from repro.problems.qubo import QUBOProblem

        kind = self._check_kind(problem)
        if kind == "qubo":
            assert isinstance(problem, QUBOProblem)
            return BackendPlan(backend="simcim", problem=problem)
        assert isinstance(problem, IsingModel)
        if problem.convention != "pm1":
            raise AnnealerError(
                "backend 'simcim' needs the pm1 spin convention, got "
                f"{problem.convention!r}"
            )
        return BackendPlan(backend="simcim", problem=problem)

    def solve(self, plan: BackendPlan, seed: int) -> RunResultLike:
        from repro.backends.qubo_support import solve_qubo
        from repro.ising.model import IsingModel
        from repro.ising.simcim import simcim_optimize
        from repro.problems.qubo import QUBOProblem
        from repro.problems.solvers import relax_qubo_simcim

        if isinstance(plan.problem, QUBOProblem):
            return solve_qubo(relax_qubo_simcim, plan.problem, seed)
        assert isinstance(plan.problem, IsingModel)
        watch = Stopwatch()
        relaxed = simcim_optimize(plan.problem, seed=int(seed))
        return BackendRunResult(
            tour=np.asarray(relaxed.spins, dtype=np.int64),
            length=float(relaxed.energy),
            wall_time_s=watch.elapsed_s(),
        )
