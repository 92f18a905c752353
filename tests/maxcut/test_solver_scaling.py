"""Tests for Max-Cut solvers and the spin-scaling comparison."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.maxcut.generators import planted_bisection, random_graph
from repro.maxcut.scaling import spin_scaling_comparison
from repro.maxcut.solver import (
    MaxCutAnnealParams,
    anneal_maxcut,
    greedy_maxcut,
    local_search_improve,
)


class TestGreedy:
    def test_beats_half_total_weight(self):
        # Greedy assignment guarantees >= W/2 on non-negative weights.
        for seed in range(3):
            p = random_graph(60, 0.2, seed=seed)
            res = greedy_maxcut(p, seed=seed)
            assert res.cut_value >= 0.5 * p.total_weight - 1e-9

    def test_valid_spins(self):
        p = random_graph(40, 0.3, seed=9)
        res = greedy_maxcut(p, seed=0)
        p.validate_state(res.spins)


class TestLocalSearch:
    def test_never_worse(self):
        rng = np.random.default_rng(3)
        p = random_graph(50, 0.3, seed=10)
        s = rng.choice([-1.0, 1.0], size=50)
        res = local_search_improve(p, s)
        assert res.cut_value >= p.cut_value(s) - 1e-9

    def test_local_optimum_no_positive_gain(self):
        p = random_graph(40, 0.4, seed=11)
        res = local_search_improve(
            p, np.random.default_rng(4).choice([-1.0, 1.0], size=40)
        )
        for node in range(p.n_nodes):
            assert p.flip_gain(res.spins, node) <= 1e-9

    def test_input_not_mutated(self):
        p = random_graph(20, 0.4, seed=12)
        s = np.ones(20)
        local_search_improve(p, s)
        assert np.all(s == 1.0)


class TestAnneal:
    def test_recovers_planted_cut(self):
        problem, _, planted_cut = planted_bisection(60, seed=13)
        res = anneal_maxcut(
            problem, params=MaxCutAnnealParams(n_sweeps=150), seed=0
        )
        assert res.cut_value >= 0.97 * planted_cut

    def test_beats_greedy_on_average(self):
        total_anneal, total_greedy = 0.0, 0.0
        for seed in range(4):
            p = random_graph(80, 0.15, seed=20 + seed, signed=True)
            total_anneal += anneal_maxcut(
                p, params=MaxCutAnnealParams(n_sweeps=120), seed=seed
            ).cut_value
            total_greedy += greedy_maxcut(p, seed=seed).cut_value
        assert total_anneal >= total_greedy

    def test_trace_and_acceptance(self):
        p = random_graph(30, 0.3, seed=14)
        res = anneal_maxcut(
            p,
            params=MaxCutAnnealParams(n_sweeps=50, record_every=10),
            seed=1,
        )
        assert len(res.trace) == 6
        assert 0 < res.acceptance_rate < 1

    def test_deterministic(self):
        p = random_graph(30, 0.3, seed=15)
        a = anneal_maxcut(p, params=MaxCutAnnealParams(n_sweeps=40), seed=2)
        b = anneal_maxcut(p, params=MaxCutAnnealParams(n_sweeps=40), seed=2)
        assert a.cut_value == b.cut_value

    def test_initial_spins_respected(self):
        problem, planted, cut = planted_bisection(40, seed=16)
        res = anneal_maxcut(
            problem,
            params=MaxCutAnnealParams(n_sweeps=1, t_start=1e-9, t_end=1e-9),
            initial_spins=planted,
            seed=3,
        )
        assert res.cut_value >= cut - 1e-9  # frozen chain only improves

    def test_validation(self):
        p = random_graph(10, 0.5, seed=17)
        with pytest.raises(ReproError):
            anneal_maxcut(p, params=MaxCutAnnealParams(n_sweeps=0))
        with pytest.raises(ReproError):
            anneal_maxcut(
                p, params=MaxCutAnnealParams(t_start=0.1, t_end=1.0)
            )

    # The pre-1.3 signature was shimmed in 1.3 and removed in 1.4; the two
    # tests below keep their 1.3 names and now pin the plain TypeError.
    def test_legacy_loose_arguments_warn_once_then_match(self):
        p = random_graph(10, 0.5, seed=17)
        with pytest.raises(TypeError, match="unexpected keyword"):
            anneal_maxcut(p, n_sweeps=40, seed=2)
        with pytest.raises(TypeError, match="positional"):
            anneal_maxcut(p, 40, 2.0, 0.01, 2)

    def test_legacy_shim_rejects_bad_mixes(self):
        p = random_graph(10, 0.5, seed=17)
        with pytest.raises(TypeError, match="unexpected keyword"):
            anneal_maxcut(p, n_sweeps=5, params=MaxCutAnnealParams())
        with pytest.raises(TypeError, match="positional"):
            anneal_maxcut(p, 40, params=MaxCutAnnealParams())


class TestScaling:
    def test_table3_footnote_numbers(self):
        # pla85900: functional spins N^2 = 7.4e9, weights N^4*8 = 4.4e20 b.
        out = spin_scaling_comparison([85900])
        row = out[85900]
        assert row["tsp_spins"] == pytest.approx(7.38e9, rel=0.01)
        assert row["tsp_weight_bits"] == pytest.approx(4.36e20, rel=0.01)
        assert row["spin_blowup"] == 85900
        assert row["weight_blowup"] == pytest.approx(85900**2)

    def test_maxcut_linear_spins(self):
        out = spin_scaling_comparison([512, 1024])
        assert out[512]["maxcut_spins"] == 512
        assert out[1024]["maxcut_spins"] == 1024

    def test_validation(self):
        with pytest.raises(ReproError):
            spin_scaling_comparison([0])
