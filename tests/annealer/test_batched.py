"""Batched replica annealer: bit-identity against the serial oracle.

The acceptance pin for the batched engine: for every seed of a 32-seed
clustered80 ensemble, tours, lengths, and telemetry trial counters must
match the ``batch_size=1`` serial path *exactly* at ``batch_size ∈
{4, 8, 32}``.  The serial results are computed once per session (they
are the expensive leg) and reused across the batch sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealer.batched import batchable_config, solve_batch
from repro.annealer.config import AnnealerConfig, NoiseSource, NoiseTarget
from repro.annealer.hierarchical import ClusteredCIMAnnealer
from repro.errors import AnnealerError
from repro.ising.numerics import stable_sigmoid
from repro.runtime.executor import EnsembleExecutor
from repro.runtime.options import EnsembleOptions
from repro.tsp.generators import random_clustered
from repro.utils.rng import spawn_rng

from dataclasses import replace

SEEDS_32 = list(range(300, 332))


@pytest.fixture(scope="module")
def clustered80():
    return random_clustered(80, n_clusters=4, seed=2024)


@pytest.fixture(scope="module")
def serial_oracle(clustered80):
    """batch_size=1 oracle: results + telemetry for all 32 seeds."""
    runner = EnsembleExecutor(EnsembleOptions())  # batch_size=1 default
    return runner.run(clustered80, SEEDS_32, AnnealerConfig())


def _assert_same_chip(a, b):
    """Every chip counter, per-level cycles in insertion order too."""
    assert a.summary() == b.summary()
    assert list(a.per_level_cycles.items()) == list(
        b.per_level_cycles.items()
    )


def _assert_bit_identical(oracle, candidate):
    results_a, tel_a = oracle
    results_b, tel_b = candidate
    assert len(results_a) == len(results_b) == len(SEEDS_32)
    for a, b in zip(results_a, results_b):
        assert np.array_equal(a.tour, b.tour)
        assert a.length == b.length  # exact, not approx
        _assert_same_chip(a.chip, b.chip)
    for x, y in zip(tel_a.runs, tel_b.runs):
        assert x.seed == y.seed
        assert x.ok and y.ok
        assert x.trials_proposed == y.trials_proposed
        assert x.trials_accepted == y.trials_accepted
        assert x.writeback_events == y.writeback_events
        assert x.mac_cycles == y.mac_cycles


class TestAcceptanceBitIdentity:
    @pytest.mark.parametrize("batch_size", [4, 8, 32])
    def test_clustered80_32_seeds(self, clustered80, serial_oracle, batch_size):
        runner = EnsembleExecutor(EnsembleOptions(batch_size=batch_size))
        candidate = runner.run(clustered80, SEEDS_32, AnnealerConfig())
        _assert_bit_identical(serial_oracle, candidate)

    def test_pool_batched_matches_too(self, clustered80, serial_oracle):
        runner = EnsembleExecutor(
            EnsembleOptions(batch_size=8, max_workers=2)
        )
        candidate = runner.run(clustered80, SEEDS_32, AnnealerConfig())
        assert candidate[1].mode == "parallel"
        _assert_bit_identical(serial_oracle, candidate)


class TestSolveBatch:
    def test_per_replica_level_reports_match_serial(self, clustered80):
        seeds = [300, 301, 302, 303]
        cfg = AnnealerConfig()
        batched = solve_batch(clustered80, cfg, seeds)
        for seed, b in zip(seeds, batched):
            a = ClusteredCIMAnnealer(replace(cfg, seed=seed)).solve(
                clustered80
            )
            assert np.array_equal(a.tour, b.tour)
            assert a.length == b.length
            assert len(a.levels) == len(b.levels)
            for la, lb in zip(a.levels, b.levels):
                assert la.level == lb.level
                assert la.n_items == lb.n_items
                assert la.n_clusters == lb.n_clusters
                assert la.p == lb.p
                assert la.iterations == lb.iterations
                assert la.swaps_proposed == lb.swaps_proposed
                assert la.swaps_accepted == lb.swaps_accepted
                assert la.objective_before == lb.objective_before
                assert la.objective_after == lb.objective_after

    def test_chip_counters_match_serial(self, clustered80):
        seeds = [310, 311, 312]
        cfg = AnnealerConfig()
        batched = solve_batch(clustered80, cfg, seeds)
        for seed, b in zip(seeds, batched):
            a = ClusteredCIMAnnealer(replace(cfg, seed=seed)).solve(
                clustered80
            )
            _assert_same_chip(a.chip, b.chip)

    def test_sequential_update_mode_matches_serial(self, clustered80):
        seeds = [320, 321]
        cfg = AnnealerConfig(parallel_update=False)
        batched = solve_batch(clustered80, cfg, seeds)
        for seed, b in zip(seeds, batched):
            a = ClusteredCIMAnnealer(replace(cfg, seed=seed)).solve(
                clustered80
            )
            assert np.array_equal(a.tour, b.tour)
            assert a.length == b.length

    def test_noise_free_config_matches_serial(self, clustered80):
        seeds = [330, 331, 332]
        cfg = AnnealerConfig(noise_source=NoiseSource.NONE)
        assert batchable_config(cfg)
        batched = solve_batch(clustered80, cfg, seeds)
        for seed, b in zip(seeds, batched):
            a = ClusteredCIMAnnealer(replace(cfg, seed=seed)).solve(
                clustered80
            )
            assert np.array_equal(a.tour, b.tour)
            assert a.length == b.length

    def test_single_seed_uses_serial_path(self, clustered80):
        cfg = AnnealerConfig()
        (b,) = solve_batch(clustered80, cfg, [300])
        a = ClusteredCIMAnnealer(replace(cfg, seed=300)).solve(clustered80)
        assert np.array_equal(a.tour, b.tour)
        assert a.length == b.length

    def test_unbatchable_config_falls_back_serially(self, clustered80):
        # The ablation noise modes key extra streams off per-replica
        # trial counters; solve_batch must transparently run them
        # serially and still return exact serial results.
        cfg = AnnealerConfig(noise_source=NoiseSource.LFSR)
        assert not batchable_config(cfg)
        seeds = [340, 341]
        batched = solve_batch(clustered80, cfg, seeds)
        for seed, b in zip(seeds, batched):
            a = ClusteredCIMAnnealer(replace(cfg, seed=seed)).solve(
                clustered80
            )
            assert np.array_equal(a.tour, b.tour)
            assert a.length == b.length

    def test_trace_recording_not_batchable(self):
        assert not batchable_config(AnnealerConfig(record_trace=True))

    def test_spin_noise_target_not_batchable(self):
        assert not batchable_config(
            AnnealerConfig(noise_target=NoiseTarget.SPINS)
        )

    def test_empty_seeds_rejected(self, clustered80):
        with pytest.raises(AnnealerError):
            solve_batch(clustered80, AnnealerConfig(), [])


class TestPlatformEquivalences:
    """Pin the two platform facts the batched kernel's exactness rests on."""

    def test_pcg64_block_draw_equals_scalar_draws(self):
        a = spawn_rng(123)
        b = spawn_rng(123)
        block = a.random(257)
        scalars = np.array([b.random() for _ in range(257)])
        assert np.array_equal(block, scalars)
        assert a.random() == b.random()  # stream state aligned after

    def test_stable_sigmoid_array_equals_scalar(self):
        rng = np.random.default_rng(99)
        x = np.concatenate(
            [rng.normal(scale=50.0, size=500), [0.0, -0.0, np.inf, -np.inf]]
        )
        vec = stable_sigmoid(x)
        for i, xi in enumerate(x):
            assert vec[i] == stable_sigmoid(float(xi))
