"""Backend adapter for the Max-Cut simulated-bifurcation solver.

Wraps :func:`repro.maxcut.bifurcation.simulated_bifurcation_maxcut`
behind the :class:`~repro.backends.base.SolverBackend` interface.
Max-Cut is a *maximisation* problem while the ensemble runtime ranks
by minimised ``length``, so the adapter scores ``length = -cut``; the
``maxcut`` kind references ``-greedy_cut``, so the optimal ratio reads
as the (positive) cut-over-greedy quality, > 1.0 when SB beats greedy.
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
from repro.runtime.telemetry import RunResultLike, Stopwatch

if TYPE_CHECKING:
    from repro.annealer.config import AnnealerConfig


@register_backend("maxcut-sb")
class MaxCutBifurcationBackend(SolverBackend):
    """Discrete simulated bifurcation on Max-Cut graphs."""

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="maxcut-sb",
            problem_kinds=("maxcut",),
            batchable=False,
            accepts_config=False,
            description="discrete simulated bifurcation (Max-Cut graphs)",
        )

    def compile(
        self, problem: ProblemLike, config: Optional["AnnealerConfig"]
    ) -> BackendPlan:
        self._check_kind(problem)
        return BackendPlan(backend="maxcut-sb", problem=problem)

    def solve(self, plan: BackendPlan, seed: int) -> RunResultLike:
        from repro.maxcut.bifurcation import simulated_bifurcation_maxcut
        from repro.maxcut.problem import MaxCutProblem

        assert isinstance(plan.problem, MaxCutProblem)
        watch = Stopwatch()
        sb = simulated_bifurcation_maxcut(plan.problem, seed=int(seed))
        return BackendRunResult(
            tour=np.asarray(sb.spins, dtype=np.int64),
            length=-float(sb.cut_value),
            wall_time_s=watch.elapsed_s(),
        )
