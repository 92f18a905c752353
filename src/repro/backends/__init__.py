"""Pluggable solver backends behind the serving stack.

One request API, many solvers: a :class:`SolverBackend` is a compiled
``(problem, config) → plan → per-seed solve`` pipeline registered
under a string name, and ``SolveRequest(backend="...")`` picks one per
request — through :func:`repro.annealer.batch.solve_ensemble`, the
async :class:`~repro.runtime.AnnealingService`, the HTTP gateway, and
the CLI alike.  First registrants:

* ``cluster-cim`` — the paper's clustered CIM annealer (TSP and QUBO;
  default; batchable: its group solver anneals seeds as replicas);
* ``dense-ising`` — the dense Eq. (3) Gibbs annealer (TSP, N ≤ 64);
* ``maxcut-sb`` — discrete simulated bifurcation (Max-Cut graphs);
* ``simcim`` — SimCIM mean-field relaxation (±1 Ising models).

See ``docs/backends.md`` for the interface tour and the
how-to-add-a-backend guide.
"""

from repro.backends.base import (
    BackendCapabilities,
    BackendPlan,
    BackendRunResult,
    ProblemLike,
    SolverBackend,
    problem_kind,
)
from repro.backends.registry import (
    DEFAULT_BACKEND,
    list_backends,
    register_backend,
    resolve_backend,
)

# Importing the registrant modules is what populates the registry.
from repro.backends import cluster_cim as _cluster_cim  # noqa: F401
from repro.backends import dense_ising as _dense_ising  # noqa: F401
from repro.backends import maxcut_sb as _maxcut_sb  # noqa: F401
from repro.backends import simcim as _simcim  # noqa: F401

__all__ = [
    "BackendCapabilities",
    "BackendPlan",
    "BackendRunResult",
    "DEFAULT_BACKEND",
    "ProblemLike",
    "SolverBackend",
    "list_backends",
    "problem_kind",
    "register_backend",
    "resolve_backend",
]
