"""Tests for the single-level solver loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealer.cluster_tsp import solve_level
from repro.annealer.config import AnnealerConfig
from repro.annealer.engine import ClusterLevelEngine
from repro.annealer.hierarchical import ClusteredCIMAnnealer
from repro.annealer.trace import ConvergenceTrace
from repro.cim.macro import CIMChip
from repro.ising.schedule import VddSchedule
from repro.tsp.generators import random_clustered, random_uniform


def make_engine(n=24, p=3, seed=0):
    inst = random_uniform(n, seed=seed)
    groups = [np.arange(i, min(i + p, n)) for i in range(0, n, p)]
    return ClusterLevelEngine(inst.coords, groups, p=p, seed=seed)


class TestSolveLevel:
    def test_improves_objective(self):
        engine = make_engine(seed=1)
        report = solve_level(engine, VddSchedule(), level=0)
        assert report.objective_after <= report.objective_before
        assert report.swaps_accepted > 0

    def test_report_fields(self):
        engine = make_engine(seed=2)
        report = solve_level(engine, VddSchedule(total_iterations=100), level=3)
        assert report.level == 3
        assert report.n_items == 24
        assert report.n_clusters == 8
        assert report.iterations == 100
        assert 0 <= report.acceptance_rate <= 1

    def test_chip_cycle_accounting(self):
        engine = make_engine(seed=3)
        chip = CIMChip(p=3, n_clusters=8)
        schedule = VddSchedule(total_iterations=100, iterations_per_step=50)
        solve_level(engine, schedule, level=0, chip=chip)
        # 8 clusters -> 2 phases -> 8 MAC cycles per iteration.
        assert chip.mac_cycles == 100 * 2 * 4
        assert chip.writeback_events == 2
        assert chip.levels_processed == 1

    def test_writeback_bit_accounting(self):
        engine = make_engine(seed=4)
        chip = CIMChip(p=3, n_clusters=8)
        solve_level(engine, VddSchedule(), level=0, chip=chip)
        # Initial program (8 planes) + refreshes of 6,5,4,3,2,1,0 planes.
        per_window = chip.weights_per_window
        expected = 8 * per_window * (8 + 6 + 5 + 4 + 3 + 2 + 1 + 0)
        assert chip.weight_bits_written == expected

    def test_sequential_mode_more_cycles(self):
        chip_par = CIMChip(p=3, n_clusters=8)
        chip_seq = CIMChip(p=3, n_clusters=8)
        schedule = VddSchedule(total_iterations=50, iterations_per_step=50)
        solve_level(make_engine(seed=5), schedule, 0, chip=chip_par)
        solve_level(
            make_engine(seed=5), schedule, 0, chip=chip_seq, parallel_update=False
        )
        # Sequential: 8 clusters × 4 cycles vs 2 phases × 4 cycles.
        assert chip_seq.mac_cycles == 4 * chip_par.mac_cycles

    def test_trace_recording(self):
        engine = make_engine(seed=6)
        trace = ConvergenceTrace()
        solve_level(
            engine,
            VddSchedule(total_iterations=100, iterations_per_step=50),
            level=2,
            trace=trace,
            trace_every=25,
        )
        its, objs = trace.level_series(2)
        assert its.tolist() == [0, 25, 50, 75, 100]
        assert objs[-1] <= objs[0]

    def test_quality_beats_no_anneal(self):
        # The annealed level should (on average) outperform the raw
        # clustering order it starts from.
        total_before, total_after = 0.0, 0.0
        for seed in range(5):
            engine = make_engine(n=45, seed=seed + 10)
            report = solve_level(engine, VddSchedule(), level=0)
            total_before += report.objective_before
            total_after += report.objective_after
        assert total_after < total_before * 0.98


def _summary(p, n_clusters, n_arrays, capacity_bits, *counters):
    names = (
        "mac_cycles", "macs_performed", "writeback_events",
        "weights_written", "weight_bits_written", "seam_transfers",
        "bits_transferred", "levels_processed",
    )
    geometry = dict(
        p=p, n_clusters=n_clusters, n_arrays=n_arrays,
        capacity_bits=capacity_bits,
    )
    return dict(geometry, **dict(zip(names, counters)))


#: Full-solve chip counters recorded from the per-iteration accounting
#: loop: (instance, config, summary(), per_level_cycles in insertion
#: order).
CHIP_GOLDENS = {
    "clustered80": (
        lambda: random_clustered(80, n_clusters=4, seed=2024),
        AnnealerConfig(),
        _summary(3, 40, 4, 43200,
                 14400, 123200, 40, 83160, 301455, 14400, 43200, 5),
        [(4, 1600), (3, 3200), (2, 3200), (1, 3200), (0, 3200)],
    ),
    "clustered80-sequential": (
        lambda: random_clustered(80, n_clusters=4, seed=2024),
        AnnealerConfig(parallel_update=False),
        _summary(3, 40, 4, 43200,
                 123200, 123200, 40, 83160, 301455, 0, 0, 5),
        [(4, 1600), (3, 6400), (2, 16000), (1, 32000), (0, 67200)],
    ),
    # Top level orders K = 5 super-clusters: three chromatic groups.
    # 35 windows (odd) cross 4 seams in solid phases but 3 in dash
    # phases, so the third group's phase shows in the seam count.
    "uniform70-odd-top": (
        lambda: random_uniform(70, seed=0),
        AnnealerConfig(),
        _summary(3, 35, 4, 37800,
                 14400, 75200, 32, 50760, 184005, 13200, 39600, 4),
        [(3, 1600), (2, 4800), (1, 3200), (0, 4800)],
    ),
    "uniform200-multi-array": (
        lambda: random_uniform(200, seed=7),
        AnnealerConfig(),
        _summary(3, 100, 10, 108000,
                 19200, 230400, 40, 155520, 563760, 48000, 144000, 5),
        [(4, 1600), (3, 4800), (2, 4800), (1, 3200), (0, 4800)],
    ),
}


class TestChipCounterGoldens:
    @pytest.mark.parametrize("case", sorted(CHIP_GOLDENS))
    def test_full_solve_counters_pinned(self, case):
        make_instance, config, summary, per_level = CHIP_GOLDENS[case]
        chip = ClusteredCIMAnnealer(config).solve(make_instance()).chip
        assert chip.summary() == summary
        assert list(chip.per_level_cycles.items()) == per_level
