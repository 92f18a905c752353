"""Unified QUBO workload subsystem.

Every problem family here reduces to a :class:`QUBOProblem`, which all
registered solver backends accept as a ``qubo``-kind plan — so each new
family is immediately traffic the ensemble runtime, the service, and
the HTTP gateway can serve.  The subsystem has four layers:

* :mod:`repro.problems.qubo` — the container and the QUBO ↔ Ising
  bridge;
* :mod:`repro.problems.io` — the ``repro.qubo/v1`` JSON interchange
  plus readers for published ``.qubo``/BQP and rudy/``.mc`` files;
* the family reductions (:mod:`~repro.problems.coloring`,
  :mod:`~repro.problems.knapsack`, :mod:`~repro.problems.maxsat`),
  each with ``to_qubo`` / ``decode`` / ``encode`` / feasibility
  checks and a deterministic reference baseline;
* :mod:`repro.problems.opcount` + :mod:`repro.problems.solvers` — the
  op counters and the op-counted QUBO solvers behind the Table-I style
  ``BENCH_workloads.json`` comparisons.

:data:`FAMILIES` maps family names to seeded generators so the CLI and
the CI smoke tests can mint an instance of any family from
``(size, seed)`` alone.  See ``docs/problems.md`` for the reduction
math and the how-to-add-a-family walkthrough.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

from repro.errors import ReproError
from repro.problems.coloring import (
    GraphColoringProblem,
    random_coloring_problem,
)
from repro.problems.io import (
    QUBO_SCHEMA,
    load_qubo,
    load_qubo_file,
    load_rudy,
    qubo_from_dict,
    qubo_to_dict,
    save_qubo,
)
from repro.problems.knapsack import KnapsackProblem, random_knapsack_problem
from repro.problems.maxsat import MaxSATProblem, random_maxsat_problem
from repro.problems.opcount import HISTORY_SCHEMA, History, OpCounter
from repro.problems.qubo import QUBOProblem
from repro.problems.solvers import (
    QUBOAnnealOutcome,
    anneal_qubo_chromatic,
    anneal_qubo_sequential,
    greedy_qubo_descent,
    relax_qubo_simcim,
)

FamilyProblem = Union[GraphColoringProblem, KnapsackProblem, MaxSATProblem]


def _make_coloring(size: int, seed: int) -> GraphColoringProblem:
    return random_coloring_problem(max(size, 4), n_colors=3, seed=seed)


def _make_knapsack(size: int, seed: int) -> KnapsackProblem:
    return random_knapsack_problem(max(size, 3), seed=seed)


def _make_maxsat(size: int, seed: int) -> MaxSATProblem:
    n_vars = max(size, 4)
    return random_maxsat_problem(n_vars, n_clauses=3 * n_vars, seed=seed)


#: Family name → seeded generator of a representative random instance.
FAMILIES: Dict[str, Callable[[int, int], FamilyProblem]] = {
    "coloring": _make_coloring,
    "knapsack": _make_knapsack,
    "maxsat": _make_maxsat,
}


def list_families() -> Tuple[str, ...]:
    """Registered family names, sorted."""
    return tuple(sorted(FAMILIES))


def make_problem(family: str, size: int, seed: int) -> FamilyProblem:
    """Mint a seeded random instance of ``family`` (CLI / smoke tests)."""
    try:
        factory = FAMILIES[family]
    except KeyError:
        raise ReproError(
            f"unknown problem family {family!r}; "
            f"known: {', '.join(list_families())}"
        ) from None
    return factory(int(size), int(seed))


__all__: List[str] = [
    "FAMILIES",
    "FamilyProblem",
    "GraphColoringProblem",
    "HISTORY_SCHEMA",
    "History",
    "KnapsackProblem",
    "MaxSATProblem",
    "OpCounter",
    "QUBOAnnealOutcome",
    "QUBOProblem",
    "QUBO_SCHEMA",
    "anneal_qubo_chromatic",
    "anneal_qubo_sequential",
    "greedy_qubo_descent",
    "list_families",
    "load_qubo",
    "load_qubo_file",
    "load_rudy",
    "make_problem",
    "qubo_from_dict",
    "qubo_to_dict",
    "random_coloring_problem",
    "random_knapsack_problem",
    "random_maxsat_problem",
    "relax_qubo_simcim",
    "save_qubo",
]
