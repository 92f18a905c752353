"""Shared QUBO-plan plumbing for the registered solver backends.

Every backend that accepts the ``qubo`` problem kind goes through the
same four hooks: the solve (one :mod:`repro.problems.solvers` kernel
wrapped as a run result carrying its op counts), the worker-side
integrity gate (recompute the energy from the bits), the quality
reference (deterministic seeded greedy descent, the QUBO analogue of
the TSP nearest-neighbour baseline), and the human-readable decode
(bits + energy + the op-count totals the kernels attach).  Keeping
them here means a new backend adds QUBO support with four one-line
delegations — see ``docs/backends.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict

import numpy as np

from repro.backends.base import BackendRunResult
from repro.runtime.telemetry import RunResultLike, Stopwatch

if TYPE_CHECKING:
    from repro.problems.qubo import QUBOProblem
    from repro.problems.solvers import QUBOAnnealOutcome


def solve_qubo(
    solver: Callable[..., "QUBOAnnealOutcome"],
    problem: "QUBOProblem",
    seed: int,
) -> RunResultLike:
    """One op-counted ``solver(problem, seed=...)`` run as a run result
    (module-level so it stays pickle-safe: RL003)."""
    watch = Stopwatch()
    outcome = solver(problem, seed=int(seed))
    return BackendRunResult(
        tour=np.asarray(outcome.bits, dtype=np.int64),
        length=float(outcome.energy),
        wall_time_s=watch.elapsed_s(),
        ops=outcome.history.final_totals(),
        history=outcome.history,
    )


def validate_qubo_result(
    problem: "QUBOProblem", result: RunResultLike
) -> None:
    """Integrity gate: the reported energy must match the bits."""
    from repro.errors import ReproError
    from repro.runtime.faults import ResultIntegrityError

    try:
        energy = problem.energy(np.asarray(result.tour, dtype=np.float64))
    except ReproError as exc:
        raise ResultIntegrityError(f"corrupted bits: {exc}") from exc
    if abs(energy - result.length) > max(1e-6, 1e-9 * abs(energy)):
        raise ResultIntegrityError(
            f"corrupted result: reported energy {result.length} does "
            f"not match recomputed energy {energy}"
        )


def qubo_reference(problem: "QUBOProblem", seed: int) -> float:
    """Greedy-descent energy — the ``optimal_ratio`` denominator."""
    from repro.problems.solvers import greedy_qubo_descent

    _, energy = greedy_qubo_descent(problem, seed=int(seed))
    return float(energy)


def decode_qubo_result(
    backend_name: str, result: RunResultLike
) -> Dict[str, Any]:
    """Human-readable view of one solved QUBO seed."""
    decoded: Dict[str, Any] = {
        "backend": backend_name,
        "bits": [int(v) for v in result.tour],
        "energy": float(result.length),
    }
    ops = getattr(result, "ops", None)
    if ops:
        decoded["ops"] = {k: int(v) for k, v in ops.items()}
    return decoded
