"""The shared QUBO solve of the registered solver backends.

Every backend that accepts the ``qubo`` problem kind wraps one
:mod:`repro.problems.solvers` kernel as a run result carrying its op
counts; the gate, reference and view come with the kind
(:mod:`repro.backends.base`) — see ``docs/backends.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

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
