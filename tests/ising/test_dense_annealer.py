"""Tests for the dense penalty-formulation annealer.

These tests *measure* the design choice the paper asserts: swap moves
(PBM) dominate the raw Eq. (3) penalty formulation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.ising.dense_annealer import (
    DenseTSPAnnealParams,
    anneal_dense_tsp,
)
from repro.ising.solver import solve_tsp_ising
from repro.tsp.generators import random_uniform
from repro.tsp.tour import validate_tour


class TestDenseAnneal:
    def test_returns_valid_tour_after_repair(self):
        inst = random_uniform(8, seed=1)
        res = anneal_dense_tsp(
            inst, params=DenseTSPAnnealParams(n_sweeps=120), seed=0
        )
        validate_tour(res.tour, 8)
        assert np.isfinite(res.length)

    def test_trace_recorded(self):
        inst = random_uniform(7, seed=2)
        res = anneal_dense_tsp(
            inst,
            params=DenseTSPAnnealParams(n_sweeps=60, record_every=20),
            seed=1,
        )
        assert len(res.trace) == 4

    def test_deterministic(self):
        inst = random_uniform(7, seed=3)
        a = anneal_dense_tsp(inst, params=DenseTSPAnnealParams(n_sweeps=60), seed=5)
        b = anneal_dense_tsp(inst, params=DenseTSPAnnealParams(n_sweeps=60), seed=5)
        assert a.length == b.length and a.feasible == b.feasible

    def test_validation(self):
        inst = random_uniform(6, seed=4)
        with pytest.raises(ConfigError):
            anneal_dense_tsp(inst, params=DenseTSPAnnealParams(n_sweeps=0))
        with pytest.raises(ConfigError):
            anneal_dense_tsp(
                inst, params=DenseTSPAnnealParams(penalty_scale=0.0)
            )

    def test_legacy_loose_arguments_removed(self):
        # Pre-1.3 signature: shimmed in 1.3, removed in 1.4.
        inst = random_uniform(7, seed=3)
        with pytest.raises(TypeError, match="unexpected keyword"):
            anneal_dense_tsp(inst, n_sweeps=60, seed=5)
        with pytest.raises(TypeError, match="positional"):
            anneal_dense_tsp(inst, 60)

    def test_weak_penalties_break_feasibility(self):
        # The classic failure mode: with soft constraints the chain
        # abandons the permutation manifold.
        infeasible = 0
        for seed in range(4):
            inst = random_uniform(8, seed=30 + seed)
            res = anneal_dense_tsp(
                inst,
                params=DenseTSPAnnealParams(n_sweeps=80, penalty_scale=0.05),
                seed=seed,
            )
            infeasible += res.repaired
        assert infeasible >= 2


class TestPaperDesignChoice:
    """The Sec. II-A argument, measured: swap moves beat penalties."""

    def test_swap_moves_beat_dense_formulation(self):
        swap_total, dense_total = 0.0, 0.0
        for seed in range(4):
            inst = random_uniform(10, seed=50 + seed)
            swap = solve_tsp_ising(inst, n_sweeps=150, seed=seed)
            dense = anneal_dense_tsp(
                inst, params=DenseTSPAnnealParams(n_sweeps=150), seed=seed
            )
            swap_total += swap.length
            dense_total += dense.length
        # Equal sweep budgets: the feasible-by-construction swap chain
        # wins clearly.
        assert swap_total < dense_total

    def test_dense_needs_quadratic_spins(self):
        inst = random_uniform(10, seed=60)
        res = anneal_dense_tsp(
            inst, params=DenseTSPAnnealParams(n_sweeps=10), seed=0
        )
        # The dense model burned 100 spins for a 10-city tour — the
        # Fig. 1 scalability wall in miniature.  (Smoke-level check of
        # the mapping dimensions.)
        from repro.ising.tsp_mapping import build_tsp_ising

        assert build_tsp_ising(inst).n_spins == 100
        validate_tour(res.tour, 10)
