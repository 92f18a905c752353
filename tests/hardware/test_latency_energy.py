"""Tests for the latency and energy models (Fig. 7c/d anchors)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealer.cluster_tsp import record_level_events
from repro.annealer.engine import ClusterLevelEngine
from repro.cim.macro import CIMChip
from repro.errors import HardwareModelError
from repro.hardware.energy import EnergyModel
from repro.hardware.latency import LatencyModel
from repro.hardware.tech import TechNode
from repro.ising.schedule import VddSchedule
from repro.tsp.generators import random_uniform


@pytest.fixture
def chip_rl5934():
    return CIMChip(p=3, n_clusters=2967)  # ceil(2*5934/4)


@pytest.fixture
def chip_pla85900():
    return CIMChip(p=3, n_clusters=42950)


class TestLatency:
    def test_rl5934_anchor(self, chip_rl5934):
        # Paper: ~44 µs annealing for rl5934; our schedule model gives
        # ~10 levels × (3200 + 600) cycles at 900 MHz ≈ 42 µs.
        report = LatencyModel().predict(chip_rl5934, n_levels=10)
        assert report.total_time_s == pytest.approx(44e-6, rel=0.15)

    def test_write_fraction_small(self, chip_rl5934):
        report = LatencyModel().predict(chip_rl5934, n_levels=10)
        assert report.write_fraction < 0.25

    def test_read_cycles_formula(self, chip_rl5934):
        report = LatencyModel().predict(chip_rl5934, n_levels=5)
        assert report.read_cycles == 5 * 400 * 2 * 4

    def test_from_recorded_counters(self, chip_rl5934):
        chip_rl5934.record_phase_cycles(active_windows=100, cycles=8)
        chip_rl5934.record_writeback()
        report = LatencyModel().report(chip_rl5934)
        assert report.read_cycles == 8
        assert report.write_cycles == 75  # one array refresh, row-serial

    def test_clock_scaling(self, chip_rl5934):
        slow = LatencyModel(tech=TechNode(f_clk_hz=450e6)).predict(
            chip_rl5934, n_levels=10
        )
        fast = LatencyModel().predict(chip_rl5934, n_levels=10)
        assert slow.total_time_s == pytest.approx(2 * fast.total_time_s)

    def test_validation(self, chip_rl5934):
        with pytest.raises(HardwareModelError):
            LatencyModel().predict(chip_rl5934, n_levels=0)


class TestEnergy:
    def test_pla85900_power_anchor(self, chip_pla85900):
        # Paper: 433 mW chip power; model lands within 10%.
        latency = LatencyModel().predict(chip_pla85900, n_levels=14)
        energy = EnergyModel().predict(chip_pla85900, n_levels=14)
        power = energy.average_power_w(latency)
        assert power == pytest.approx(0.433, rel=0.10)

    def test_power_per_bit_anchor(self, chip_pla85900):
        # Table III: 9.3 nW per physical weight bit.
        latency = LatencyModel().predict(chip_pla85900, n_levels=14)
        energy = EnergyModel().predict(chip_pla85900, n_levels=14)
        per_bit = energy.average_power_w(latency) / chip_pla85900.capacity_bits
        assert per_bit == pytest.approx(9.3e-9, rel=0.15)

    def test_write_fraction_small(self, chip_pla85900):
        # Fig. 7d: write energy share much smaller than read.
        energy = EnergyModel().predict(chip_pla85900, n_levels=14)
        assert energy.write_fraction < 0.3
        assert energy.read_energy_j > energy.write_energy_j

    def test_energy_from_counters_consistent_with_predict(self):
        chip = CIMChip(p=3, n_clusters=40)
        # One full bottom level's events, charged as the annealer does.
        points = random_uniform(120, seed=0).coords
        groups = [np.arange(i, i + 3) for i in range(0, 120, 3)]
        engine = ClusterLevelEngine(points, groups, p=3, seed=0)
        record_level_events(chip, VddSchedule(), engine, 0, True)
        measured = EnergyModel().report(chip)
        predicted = EnergyModel().predict(chip, n_levels=1)
        assert measured.read_energy_j == pytest.approx(
            predicted.read_energy_j, rel=0.01
        )
        assert measured.write_energy_j == pytest.approx(
            predicted.write_energy_j, rel=0.01
        )
        # 40 clusters: 4 + 4 seam crossings per iteration, wrap included.
        assert measured.transfer_energy_j == pytest.approx(
            predicted.transfer_energy_j, rel=1e-12
        )

    def test_energy_scale_with_node(self, chip_pla85900):
        big = EnergyModel(tech=TechNode(node_nm=32.0)).predict(
            chip_pla85900, n_levels=5
        )
        small = EnergyModel().predict(chip_pla85900, n_levels=5)
        assert big.read_energy_j == pytest.approx(2 * small.read_energy_j)

    def test_zero_time_power(self):
        from repro.hardware.latency import LatencyReport

        e = EnergyModel().predict(CIMChip(p=2, n_clusters=4), n_levels=1)
        zero = LatencyReport(0.0, 0.0, 0, 0)
        assert e.average_power_w(zero) == 0.0
