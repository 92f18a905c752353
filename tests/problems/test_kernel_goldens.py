"""Exact goldens for the Gibbs and SimCIM kernels and their QUBO adapters.

The QUBO solvers are thin adapters over :func:`repro.ising.gibbs.gibbs_sweep`
and :func:`repro.ising.simcim.simcim_optimize`, which charge an optional
:class:`~repro.problems.opcount.OpCounter` as they run.  The values below
were recorded from the earlier instrumented copies of those loops; every
entry pins the result bits (as a digest), the exact energy and every
history record ``(step, energy, spin_flips, macs, rng_draws)``.  A change
to any kernel's arithmetic, RNG consumption or op accounting fails here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.backends import resolve_backend
from repro.ising.dense_annealer import DenseTSPAnnealParams, anneal_dense_tsp
from repro.ising.gibbs import gibbs_sweep
from repro.ising.model import IsingModel
from repro.ising.simcim import (
    SimCIMParams,
    random_ising_model,
    simcim_optimize,
)
from repro.problems import (
    OpCounter,
    anneal_qubo_chromatic,
    anneal_qubo_sequential,
    make_problem,
    relax_qubo_simcim,
)
from repro.tsp.generators import random_uniform
from repro.utils.rng import spawn_rng

BENCH_WORKLOADS = Path(__file__).parents[2] / "BENCH_workloads.json"

FAMILY_SIZES = {"coloring": 8, "knapsack": 6, "maxsat": 6}
PROBLEM_SEED = 11

QUBO_KERNELS = {
    "sequential": lambda p, seed: anneal_qubo_sequential(
        p, n_sweeps=40, record_every=10, seed=seed
    ),
    "chromatic": lambda p, seed: anneal_qubo_chromatic(
        p, n_sweeps=40, record_every=10, seed=seed
    ),
    "simcim": lambda p, seed: relax_qubo_simcim(
        p, params=SimCIMParams(n_steps=200), record_every=50, seed=seed
    ),
}


def digest(values: np.ndarray) -> str:
    """Short stable hash of an integer-valued state vector."""
    raw = np.asarray(values, dtype=np.int64).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def record_tuples(records):
    keys = ("step", "energy", "spin_flips", "macs", "rng_draws")
    return [tuple(r[k] for k in keys) for r in records]


def run_qubo(kernel: str, family: str, seed: int):
    problem = make_problem(family, FAMILY_SIZES[family], PROBLEM_SEED)
    outcome = QUBO_KERNELS[kernel](problem.to_qubo(), seed)
    return (
        digest(outcome.bits),
        outcome.energy,
        record_tuples(outcome.history.records),
    )


def run_dense_tsp(seed: int):
    result = anneal_dense_tsp(
        random_uniform(6, seed=3),
        params=DenseTSPAnnealParams(n_sweeps=60, record_every=20),
        seed=seed,
    )
    return result.tour.tolist(), result.length, result.trace


def run_simcim(seed: int):
    result = simcim_optimize(
        random_ising_model(16, seed=0), seed=seed, record_every=200
    )
    return digest(result.spins), result.energy, result.trace


QUBO_GOLDENS = {
    ("sequential", "coloring", 0): (
        "d9b88ae616901c78", 0.0, [
            (0, 9.0, 14, 108, 48),
            (10, 5.0, 29, 1188, 288),
            (20, 0.0, 30, 2268, 528),
            (30, 0.0, 30, 3348, 768),
            (40, 0.0, 30, 4320, 984),
        ],
    ),
    ("sequential", "coloring", 1): (
        "52a95fd7a5545b66", 0.0, [
            (0, 9.0, 9, 108, 48),
            (10, 0.0, 23, 1188, 288),
            (20, 0.0, 23, 2268, 528),
            (30, 0.0, 23, 3348, 768),
            (40, 0.0, 23, 4320, 984),
        ],
    ),
    ("sequential", "knapsack", 0): (
        "32e93ee05ef65a11", 10.0, [
            (0, 10.0, 2, 100, 20),
            (10, 10.0, 2, 1100, 120),
            (20, 10.0, 2, 2100, 220),
            (30, 10.0, 2, 3100, 320),
            (40, 10.0, 2, 4000, 410),
        ],
    ),
    ("sequential", "knapsack", 1): (
        "786abe80aa8fb113", -8.0, [
            (0, 7.0, 2, 100, 20),
            (10, -8.0, 4, 1100, 120),
            (20, -8.0, 4, 2100, 220),
            (30, -8.0, 4, 3100, 320),
            (40, -8.0, 4, 4000, 410),
        ],
    ),
    ("sequential", "maxsat", 0): (
        "5050a3728f9dd5f0", 25.0, [
            (0, 25.0, 9, 101, 34),
            (10, 25.0, 15, 1111, 204),
            (20, 25.0, 19, 2121, 374),
            (30, 25.0, 19, 3131, 544),
            (40, 25.0, 19, 4040, 697),
        ],
    ),
    ("sequential", "maxsat", 1): (
        "09bdea91f39cb61a", 10.0, [
            (0, 19.0, 7, 101, 34),
            (10, 10.0, 14, 1111, 204),
            (20, 10.0, 16, 2121, 374),
            (30, 10.0, 16, 3131, 544),
            (40, 10.0, 16, 4040, 697),
        ],
    ),
    ("chromatic", "coloring", 0): (
        "2aaed86e5a5fd0e2", 1.0, [
            (0, 2.0, 16, 108, 48),
            (10, 9.0, 40, 1188, 288),
            (20, 1.0, 42, 2268, 528),
            (30, 1.0, 42, 3348, 768),
            (40, 1.0, 42, 4320, 984),
        ],
    ),
    ("chromatic", "coloring", 1): (
        "d41ae94363821ea3", 3.0, [
            (0, 5.0, 8, 108, 48),
            (10, 3.0, 25, 1188, 288),
            (20, 3.0, 25, 2268, 528),
            (30, 3.0, 25, 3348, 768),
            (40, 3.0, 25, 4320, 984),
        ],
    ),
    ("chromatic", "knapsack", 0): (
        "32e93ee05ef65a11", 10.0, [
            (0, 10.0, 2, 100, 20),
            (10, 10.0, 2, 1100, 120),
            (20, 10.0, 2, 2100, 220),
            (30, 10.0, 2, 3100, 320),
            (40, 10.0, 2, 4000, 410),
        ],
    ),
    ("chromatic", "knapsack", 1): (
        "786abe80aa8fb113", -8.0, [
            (0, 7.0, 2, 100, 20),
            (10, -8.0, 4, 1100, 120),
            (20, -8.0, 4, 2100, 220),
            (30, -8.0, 4, 3100, 320),
            (40, -8.0, 4, 4000, 410),
        ],
    ),
    ("chromatic", "maxsat", 0): (
        "e05821726b852079", 13.0, [
            (0, 28.0, 8, 101, 34),
            (10, 13.0, 19, 1111, 204),
            (20, 13.0, 19, 2121, 374),
            (30, 13.0, 19, 3131, 544),
            (40, 13.0, 19, 4040, 697),
        ],
    ),
    ("chromatic", "maxsat", 1): (
        "3fd6d36e8f23090f", 3.0, [
            (0, 35.0, 7, 101, 34),
            (10, 3.0, 23, 1111, 204),
            (20, 3.0, 27, 2121, 374),
            (30, 3.0, 32, 3131, 544),
            (40, 3.0, 34, 4040, 697),
        ],
    ),
    ("simcim", "coloring", 0): (
        "b3cadbffe6169ba0", 1.0, [
            (0, 32.0, 24, 132, 24),
            (50, 32.0, 24, 6732, 1224),
            (100, 32.0, 24, 13332, 2424),
            (150, 9.0, 30, 19932, 3624),
            (200, 1.0, 34, 26400, 4800),
        ],
    ),
    ("simcim", "coloring", 1): (
        "02cafb530b423c44", 0.0, [
            (0, 32.0, 24, 132, 24),
            (50, 32.0, 24, 6732, 1224),
            (100, 32.0, 24, 13332, 2424),
            (150, 20.0, 27, 19932, 3624),
            (200, 0.0, 32, 26400, 4800),
        ],
    ),
    ("simcim", "knapsack", 0): (
        "0cbe9cd45a74cc1a", -24.0, [
            (0, 2420.0, 8, 110, 10),
            (50, 3920.0, 20, 5610, 510),
            (100, 3920.0, 24, 11110, 1010),
            (150, 304.0, 38, 16610, 1510),
            (200, -24.0, 44, 22000, 2000),
        ],
    ),
    ("simcim", "knapsack", 1): (
        "7c5ab72f5697a2c6", -4.0, [
            (0, 3920.0, 10, 110, 10),
            (50, 3380.0, 33, 5610, 510),
            (100, 2879.0, 43, 11110, 1010),
            (150, -4.0, 75, 16610, 1510),
            (200, -4.0, 80, 22000, 2000),
        ],
    ),
    ("simcim", "maxsat", 0): (
        "fc69377ebcd798c6", 0.0, [
            (0, 39.0, 13, 118, 17),
            (50, 10.0, 28, 6018, 867),
            (100, 0.0, 29, 11918, 1717),
            (150, 0.0, 29, 17818, 2567),
            (200, 0.0, 29, 23600, 3400),
        ],
    ),
    ("simcim", "maxsat", 1): (
        "fc69377ebcd798c6", 0.0, [
            (0, 47.0, 12, 118, 17),
            (50, 10.0, 24, 6018, 867),
            (100, 3.0, 35, 11918, 1717),
            (150, 10.0, 38, 17818, 2567),
            (200, 0.0, 39, 23600, 3400),
        ],
    ),
}

DENSE_TSP_GOLDENS = {
    0: ([3, 5, 1, 4, 0, 2], 2585.228332419513, [
        (0, 3296.650625284481),
        (20, 2585.2283324195123),
        (40, 2585.2283324195123),
        (60, 2585.2283324195123),
    ]),
    1: ([4, 0, 2, 1, 5, 3], 2622.2100724902343, [
        (0, 2622.210072490234),
        (20, 2622.210072490234),
        (40, 2622.210072490234),
        (60, 2622.210072490234),
    ]),
}

SIMCIM_GOLDENS = {
    0: ("33c5824cb67c8adf", -44.856739792447826, [
        (0, -2.838700234607407),
        (200, -16.967604809245547),
        (400, -44.856739792447826),
        (600, -43.63419173512894),
        (800, -44.856739792447826),
        (1000, -44.856739792447826),
    ]),
    1: ("5e14201578c04054", -44.856739792447826, [
        (0, -11.205532645641325),
        (200, -26.018622713459003),
        (400, -43.63419173512894),
        (600, -43.63419173512894),
        (800, -44.856739792447826),
        (1000, -44.856739792447826),
    ]),
}


@pytest.mark.parametrize(
    "key", sorted(QUBO_GOLDENS), ids=lambda key: "-".join(map(str, key))
)
def test_qubo_kernel_golden(key):
    assert run_qubo(*key) == QUBO_GOLDENS[key]


@pytest.mark.parametrize("seed", sorted(DENSE_TSP_GOLDENS))
def test_dense_tsp_golden(seed):
    assert run_dense_tsp(seed) == DENSE_TSP_GOLDENS[seed]


@pytest.mark.parametrize("seed", sorted(SIMCIM_GOLDENS))
def test_simcim_optimize_golden(seed):
    assert run_simcim(seed) == SIMCIM_GOLDENS[seed]


def test_backends_reproduce_committed_workload_log():
    """The default schedules, through the backends: the first entry of
    ``BENCH_workloads.json`` (scale 0.1, seed 2024) reproduces exactly."""
    entry = json.loads(BENCH_WORKLOADS.read_text(encoding="utf-8"))[
        "entries"
    ][0]
    seed = entry["seed"]
    for family, doc in entry["families"].items():
        qubo = make_problem(family, doc["size"], seed).to_qubo()
        for leg in doc["backends"]:
            impl = resolve_backend(leg["backend"])
            result = impl.solve(impl.compile(qubo, None), seed)
            where = f"{family}/{leg['backend']}"
            assert result.length == leg["energy"], where
            assert result.ops == leg["ops"], where
            assert result.history.records == leg["history"]["records"], where


class TestSinkNeutrality:
    """An ``OpCounter`` observes a kernel; it never changes the run."""

    def test_gibbs_sweep(self):
        rng = np.random.default_rng(4)
        J = np.triu(rng.normal(size=(9, 9)), k=1)
        for convention in ("pm1", "01"):
            model = IsingModel(J + J.T, rng.normal(size=9), convention)
            spins = model.validate_state(
                rng.choice([-1.0, 1.0] if convention == "pm1" else [0.0, 1.0],
                           size=9)
            )
            for temperature in (0.0, 0.7):
                plain, counted = spawn_rng(5), spawn_rng(5)
                a = gibbs_sweep(model, spins, temperature, seed=plain)
                b = gibbs_sweep(
                    model, spins, temperature, seed=counted, ops=OpCounter()
                )
                np.testing.assert_array_equal(a, b)
                assert plain.random() == counted.random()

    def test_simcim_optimize(self):
        model = random_ising_model(12, seed=2)
        params = SimCIMParams(n_steps=150)
        plain, counted = spawn_rng(8), spawn_rng(8)
        a = simcim_optimize(model, params=params, seed=plain, record_every=30)
        b = simcim_optimize(
            model, params=params, seed=counted, record_every=30,
            ops=OpCounter(),
        )
        np.testing.assert_array_equal(a.spins, b.spins)
        assert a.energy == b.energy
        assert a.trace == b.trace
        assert plain.random() == counted.random()
