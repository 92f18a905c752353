"""Ising-model substrate.

Implements the paper's Sec. II background from scratch:

* :class:`IsingModel` — spins, couplings ``J``, field ``h``, the
  Hamiltonian of Eq. (1) and local energies of Eq. (2);
* :func:`build_tsp_ising` — the Eq. (3) TSP-to-Ising mapping with the
  ``a, b, c`` objective/penalty hyper-parameters;
* permutational-Boltzmann-machine swap moves (4 spins at once) that
  keep the two-way one-hot constraints satisfied by construction;
* sequential and chromatic-parallel Gibbs sweeps;
* annealing schedules (temperature for software SA, V_DD for the
  noisy-SRAM annealer);
* a software SA Ising solver used as the small-problem baseline;
* the SimCIM mean-field optimizer.

:func:`gibbs_sweep` and :func:`simcim_optimize` are the one
implementation of their algorithms: given an optional
:class:`~repro.problems.opcount.OpCounter` they also charge the MACs,
RNG draws and spin flips they spend, which is how the QUBO solvers of
:mod:`repro.problems.solvers` report op counts.
"""

from repro.ising.dense_annealer import (
    DenseAnnealResult,
    DenseTSPAnnealParams,
    anneal_dense_tsp,
)
from repro.ising.gibbs import chromatic_groups, gibbs_sweep
from repro.ising.simcim import (
    SimCIMParams,
    SimCIMResult,
    random_ising_model,
    simcim_optimize,
)
from repro.ising.tempering import (
    TemperingParams,
    TemperingResult,
    parallel_tempering_tsp,
)
from repro.ising.model import IsingModel
from repro.ising.numerics import boltzmann_accept_probability, stable_sigmoid
from repro.ising.pbm import PermutationState, swap_delta_energy
from repro.ising.schedule import (
    GeometricTemperatureSchedule,
    LinearTemperatureSchedule,
    VddSchedule,
)
from repro.ising.solver import IsingSAResult, solve_tsp_ising
from repro.ising.tsp_mapping import (
    TSPIsingMapping,
    build_tsp_ising,
    decode_spins_to_tour,
    tour_to_spins,
)

__all__ = [
    "IsingModel",
    "build_tsp_ising",
    "TSPIsingMapping",
    "tour_to_spins",
    "decode_spins_to_tour",
    "PermutationState",
    "swap_delta_energy",
    "gibbs_sweep",
    "chromatic_groups",
    "stable_sigmoid",
    "boltzmann_accept_probability",
    "GeometricTemperatureSchedule",
    "LinearTemperatureSchedule",
    "VddSchedule",
    "solve_tsp_ising",
    "IsingSAResult",
    "anneal_dense_tsp",
    "DenseAnnealResult",
    "DenseTSPAnnealParams",
    "parallel_tempering_tsp",
    "TemperingParams",
    "TemperingResult",
    "SimCIMParams",
    "SimCIMResult",
    "simcim_optimize",
    "random_ising_model",
]
