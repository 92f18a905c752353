"""Dense penalty-formulation TSP annealing (the road not taken).

Sec. II-A notes that the one-hot penalty terms of Eq. (3) can be
avoided "through permutational Boltzmann machine [5]" — every solver in
this repository therefore uses 4-spin swap moves that keep states
feasible by construction.  This module implements the alternative the
paper rejects: single-spin Gibbs annealing directly on the dense
N²-spin model with b/c penalties, so the design choice can be measured
instead of asserted.

What the comparison shows (see ``tests/ising/test_dense_annealer.py``):

* the dense chain spends most of its time fighting the constraints —
  at practical penalty strengths it frequently ends in *infeasible*
  states that need repair;
* even when feasible, tour quality lags the swap-move solver at equal
  sweep budgets;
* and it needs N² spins and N⁴ couplings to begin with, which is the
  scalability wall of Fig. 1.

Only practical for toy sizes (the dense model is O(N⁴) memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.ising.gibbs import gibbs_sweep
from repro.ising.schedule import GeometricTemperatureSchedule
from repro.ising.tsp_mapping import (
    TSPIsingMapping,
    build_tsp_ising,
    decode_spins_to_tour,
)
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import tour_length
from repro.utils.rng import SeedLike, spawn_rng


@dataclass(frozen=True)
class DenseTSPAnnealParams:
    """Tuning of the dense penalty-formulation anneal.

    The keyword-only configuration object :func:`anneal_dense_tsp`
    takes (API 1.3; the loose ``n_sweeps=...`` keywords were removed
    in 1.4, see ``docs/serving.md``).
    """

    #: Full Gibbs sweeps over all N² spins.
    n_sweeps: int = 300
    #: Geometric ramp in units of the mean edge weight.
    t_start: float = 2.0
    t_end: float = 0.02
    #: Multiplier on the default ``b = c = 2·max(W)`` penalties —
    #: exposes the classic tension: weak penalties yield infeasible
    #: states, strong penalties freeze the objective.
    penalty_scale: float = 1.0
    #: Record the model energy every this many sweeps (0 = never).
    record_every: int = 0

    def __post_init__(self) -> None:
        if self.n_sweeps < 1:
            raise ConfigError(f"n_sweeps must be >= 1, got {self.n_sweeps}")
        if self.penalty_scale <= 0:
            raise ConfigError(
                f"penalty_scale must be > 0, got {self.penalty_scale}"
            )
        if self.t_start <= 0 or self.t_end <= 0 or self.t_end > self.t_start:
            raise ConfigError("need 0 < t_end <= t_start")
        if self.record_every < 0:
            raise ConfigError(
                f"record_every must be >= 0, got {self.record_every}"
            )


@dataclass
class DenseAnnealResult:
    """Result of a dense penalty-formulation anneal."""

    tour: np.ndarray
    length: float
    feasible: bool            # was the raw spin state a permutation?
    repaired: bool            # did decoding need the greedy repair?
    final_energy: float
    trace: List[Tuple[int, float]]


def anneal_dense_tsp(
    instance: TSPInstance,
    *,
    params: Optional[DenseTSPAnnealParams] = None,
    seed: SeedLike = None,
    mapping: Optional[TSPIsingMapping] = None,
) -> DenseAnnealResult:
    """Anneal the full Eq. (3) model with single-spin Gibbs sweeps.

    Tuning goes through the keyword-only ``params`` dataclass; ``seed``
    (the chain seed) and ``mapping`` (a prebuilt
    :class:`~repro.ising.tsp_mapping.TSPIsingMapping`, rebuilt from
    the instance when omitted) are per-call state and stay direct
    keywords::

        anneal_dense_tsp(instance,
                         params=DenseTSPAnnealParams(n_sweeps=600),
                         seed=3)

    ``instance`` must be small — the dense model refuses N > 64.  The
    pre-1.3 loose form (``anneal_dense_tsp(instance, n_sweeps=600,
    ...)``) was removed in 1.4 and raises ``TypeError``.
    """
    p = params if params is not None else DenseTSPAnnealParams()
    n_sweeps = p.n_sweeps
    t_start, t_end = p.t_start, p.t_end
    penalty_scale, record_every = p.penalty_scale, p.record_every
    rng = spawn_rng(seed)
    if mapping is None:
        w_max = float(instance.distance_matrix().max())
        mapping = build_tsp_ising(
            instance,
            b=2.0 * w_max * penalty_scale,
            c=2.0 * w_max * penalty_scale,
        )
    model = mapping.to_ising_model()
    n = instance.n

    # Start from a random *feasible* assignment — the kindest possible
    # initialisation for the penalty formulation.
    spins = np.zeros(n * n)
    for order, city in enumerate(rng.permutation(n)):
        spins[order * n + int(city)] = 1.0

    mean_w = float(instance.distance_matrix().mean())
    schedule = GeometricTemperatureSchedule(
        t_start * mean_w, t_end * mean_w, n_sweeps
    )
    trace: List[Tuple[int, float]] = []
    for sweep in range(n_sweeps):
        temp = schedule.temperature(sweep)
        if record_every and sweep % record_every == 0:
            trace.append((sweep, mapping.energy(spins)))
        order = rng.permutation(n * n)
        spins = gibbs_sweep(model, spins, temp, seed=rng, order=order)

    final_energy = mapping.energy(spins)
    if record_every:
        trace.append((n_sweeps, final_energy))
    tour, feasible = decode_spins_to_tour(spins, n, strict=False)
    return DenseAnnealResult(
        tour=tour,
        length=tour_length(instance, tour),
        feasible=feasible,
        repaired=not feasible,
        final_energy=final_energy,
        trace=trace,
    )
