"""The default backend: the paper's clustered CIM annealer.

TSP plans run :class:`~repro.annealer.hierarchical.ClusteredCIMAnnealer`
one seed at a time (``solve``), or a whole seed group at once on the
batched replica engine (``solve_group`` →
:func:`repro.annealer.batched.solve_batch`, bit-identical per seed).
Compiled QUBO plans (graph coloring, knapsack, Max-SAT —
:mod:`repro.problems`) anneal with the op-counted chromatic-parallel
Gibbs kernel, the same odd/even independent-set update the clustered
hardware path uses.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.backends.base import (
    BackendCapabilities,
    BackendPlan,
    ProblemLike,
    SolverBackend,
)
from repro.backends.registry import DEFAULT_BACKEND, register_backend
from repro.runtime.telemetry import RunResultLike

if TYPE_CHECKING:
    from repro.annealer.config import AnnealerConfig


@register_backend(DEFAULT_BACKEND)
class ClusterCIMBackend(SolverBackend):
    """Hierarchical clustered annealing on noisy-SRAM digital CIM."""

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=DEFAULT_BACKEND,
            problem_kinds=("tsp", "qubo"),
            batchable=True,
            accepts_config=True,
            description=(
                "clustered CIM annealer (the paper's solver; default)"
            ),
        )

    def compile(
        self, problem: ProblemLike, config: Optional["AnnealerConfig"]
    ) -> BackendPlan:
        from repro.annealer.config import AnnealerConfig
        from repro.errors import AnnealerError

        kind = self._check_kind(problem)
        if kind == "qubo":
            # The AnnealerConfig describes the clustered TSP pipeline;
            # QUBO plans run the chromatic Gibbs kernel instead.
            if config is not None:
                raise AnnealerError(
                    "backend 'cluster-cim' does not accept an "
                    "AnnealerConfig for qubo problems"
                )
            return BackendPlan(backend=DEFAULT_BACKEND, problem=problem)
        return BackendPlan(
            backend=DEFAULT_BACKEND,
            problem=problem,
            config=config if config is not None else AnnealerConfig(),
        )

    def solve(self, plan: BackendPlan, seed: int) -> RunResultLike:
        from repro.annealer.hierarchical import ClusteredCIMAnnealer
        from repro.backends.qubo_support import solve_qubo
        from repro.problems.qubo import QUBOProblem
        from repro.problems.solvers import anneal_qubo_chromatic
        from repro.tsp.instance import TSPInstance

        if isinstance(plan.problem, QUBOProblem):
            return solve_qubo(anneal_qubo_chromatic, plan.problem, seed)
        assert isinstance(plan.problem, TSPInstance)
        assert plan.config is not None
        cfg = replace(plan.config, seed=int(seed))
        return ClusteredCIMAnnealer(cfg).solve(plan.problem)

    def solve_group(
        self, plan: BackendPlan, seeds: Sequence[int]
    ) -> List[RunResultLike]:
        from repro.annealer.batched import solve_batch
        from repro.tsp.instance import TSPInstance

        if not isinstance(plan.problem, TSPInstance):
            return super().solve_group(plan, seeds)
        return list(solve_batch(plan.problem, plan.config, seeds))
