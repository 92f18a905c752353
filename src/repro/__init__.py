"""repro — Digital CIM with Noisy SRAM Bit: a compact clustered annealer.

Reproduction of Lu et al., DAC 2024: a digital compute-in-memory Ising
annealer that solves tens-of-thousands-of-city TSPs in MB-scale SRAM by
combining hierarchical clustering (input sparsity), compact window
mapping on digital CIM (weight sparsity), and annealing noise generated
by the intrinsic process variation of SRAM bit cells under reduced-V_DD
pseudo-read.

Quickstart
----------
>>> from repro import ClusteredCIMAnnealer, AnnealerConfig, random_uniform
>>> instance = random_uniform(500, seed=1)
>>> result = ClusteredCIMAnnealer(AnnealerConfig(seed=7)).solve(instance)
>>> result.length > 0
True

Package layout
--------------
* :mod:`repro.tsp` — instances, TSPLIB I/O, generators, CPU baselines;
* :mod:`repro.ising` — Ising/QUBO models, PBM swap moves, schedules;
* :mod:`repro.clustering` — hierarchical clustering strategies;
* :mod:`repro.sram` — noisy SRAM cells, Monte-Carlo error curves;
* :mod:`repro.cim` — digital CIM windows, arrays, adder trees;
* :mod:`repro.annealer` — the clustered CIM annealer (core);
* :mod:`repro.backends` — the pluggable solver-backend registry;
* :mod:`repro.runtime` — parallel ensembles, async serving, telemetry;
* :mod:`repro.hardware` — area / latency / energy models, Table III;
* :mod:`repro.analysis` — capacity laws, sweeps, speedup accounting.
"""

from repro.annealer import (
    AnnealerConfig,
    AnnealResult,
    ClusteredCIMAnnealer,
    EnsembleResult,
    NoiseSource,
    NoiseTarget,
    solve_ensemble,
)
from repro.backends import (
    DEFAULT_BACKEND,
    SolverBackend,
    list_backends,
    register_backend,
    resolve_backend,
)
from repro.runtime import (
    AnnealingService,
    CircuitBreaker,
    EnsembleExecutor,
    EnsembleOptions,
    EnsembleTelemetry,
    FaultPlan,
    Job,
    JobState,
    RunTelemetry,
    SolveRequest,
)
from repro.clustering import (
    ArbitraryStrategy,
    FixedSizeStrategy,
    SemiFlexibleStrategy,
)
from repro.errors import ReproError
from repro.hardware import TechNode, evaluate_ppa
from repro.ising import VddSchedule
from repro.sram import SRAMCellParams
from repro.tsp import (
    TSPInstance,
    Tour,
    load_tsplib,
    make_paper_instance,
    random_clustered,
    random_uniform,
    tour_length,
)

__version__ = "1.4.0"

__all__ = [
    "__version__",
    "ReproError",
    # problem side
    "TSPInstance",
    "Tour",
    "tour_length",
    "random_uniform",
    "random_clustered",
    "make_paper_instance",
    "load_tsplib",
    # solver side
    "ClusteredCIMAnnealer",
    "AnnealerConfig",
    "AnnealResult",
    "NoiseSource",
    "NoiseTarget",
    "VddSchedule",
    "SRAMCellParams",
    # solver-backend registry
    "DEFAULT_BACKEND",
    "SolverBackend",
    "list_backends",
    "register_backend",
    "resolve_backend",
    # ensemble + serving runtime
    "solve_ensemble",
    "EnsembleResult",
    "EnsembleExecutor",
    "EnsembleOptions",
    "EnsembleTelemetry",
    "RunTelemetry",
    "SolveRequest",
    "AnnealingService",
    "Job",
    "JobState",
    # robustness / chaos
    "FaultPlan",
    "CircuitBreaker",
    # strategies
    "ArbitraryStrategy",
    "FixedSizeStrategy",
    "SemiFlexibleStrategy",
    # hardware
    "TechNode",
    "evaluate_ppa",
]
