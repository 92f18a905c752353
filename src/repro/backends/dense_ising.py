"""Backend adapter for the dense Ising TSP annealer.

Wraps :func:`repro.ising.dense_annealer.anneal_dense_tsp` — the
textbook Eq. (3) mapping annealed by dense Gibbs sweeps — behind the
:class:`~repro.backends.base.SolverBackend` interface.  Dense N²-spin
models cap out fast (the mapping refuses N > 64 cities), which is
exactly the contrast the paper draws against its clustered windows;
serving both through one API makes that comparison a request parameter.
Compiled QUBO plans (:mod:`repro.problems`) anneal with the op-counted
*sequential* Gibbs kernel — the one-bit-at-a-time contrast to the
default backend's chromatic-parallel updates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

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

#: The dense mapping's hard size limit (N² spins, dense J).
MAX_DENSE_CITIES = 64


@register_backend("dense-ising")
class DenseIsingBackend(SolverBackend):
    """Dense-mapping Gibbs annealer for small TSP instances."""

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="dense-ising",
            problem_kinds=("tsp", "qubo"),
            batchable=False,
            accepts_config=False,
            description=(
                f"dense Eq.(3) Ising annealer (TSP, N <= {MAX_DENSE_CITIES})"
            ),
        )

    def compile(
        self, problem: ProblemLike, config: Optional["AnnealerConfig"]
    ) -> BackendPlan:
        from repro.problems.qubo import QUBOProblem
        from repro.tsp.instance import TSPInstance

        kind = self._check_kind(problem)
        if kind == "qubo":
            assert isinstance(problem, QUBOProblem)
            return BackendPlan(backend="dense-ising", problem=problem)
        assert isinstance(problem, TSPInstance)
        if problem.n > MAX_DENSE_CITIES:
            raise AnnealerError(
                f"backend 'dense-ising' is limited to "
                f"{MAX_DENSE_CITIES} cities, got {problem.n}"
            )
        return BackendPlan(backend="dense-ising", problem=problem)

    def solve(self, plan: BackendPlan, seed: int) -> RunResultLike:
        from repro.backends.qubo_support import solve_qubo
        from repro.ising.dense_annealer import anneal_dense_tsp
        from repro.problems.qubo import QUBOProblem
        from repro.problems.solvers import anneal_qubo_sequential
        from repro.tsp.instance import TSPInstance

        if isinstance(plan.problem, QUBOProblem):
            return solve_qubo(anneal_qubo_sequential, plan.problem, seed)
        assert isinstance(plan.problem, TSPInstance)
        watch = Stopwatch()
        annealed = anneal_dense_tsp(plan.problem, seed=int(seed))
        return BackendRunResult(
            tour=annealed.tour,
            length=float(annealed.length),
            wall_time_s=watch.elapsed_s(),
        )
