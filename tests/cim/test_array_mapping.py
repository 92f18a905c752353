"""Tests for CIM arrays, the cluster mapping, and the chip counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cim.array import (
    WINDOWS_PER_ARRAY,
    CIMArray,
    array_bit_geometry,
)
from repro.cim.macro import CIMChip
from repro.cim.mapping import ClusterWindowMapping
from repro.errors import CIMError


class TestArrayGeometry:
    @pytest.mark.parametrize(
        "p,rows,cols", [(2, 40, 64), (3, 75, 144), (4, 120, 256)]
    )
    def test_table2_exact(self, p, rows, cols):
        assert array_bit_geometry(p) == (rows, cols)

    def test_array_object_reports_geometry(self):
        arr = CIMArray(3, seed=0)
        assert arr.bit_rows == 75
        assert arr.bit_cols == 144
        assert len(arr.windows) == WINDOWS_PER_ARRAY

    def test_window_slots(self):
        arr = CIMArray(2, seed=1)
        assert arr.window_at(0, 0) is arr.windows[0]
        assert arr.window_at(4, 1) is arr.windows[9]
        with pytest.raises(CIMError):
            arr.window_at(5, 0)

    def test_compute_cycle(self):
        arr = CIMArray(2, seed=2)
        rows, cols = 8, 4
        for w in arr.windows:
            w.program(np.ones((rows, cols), dtype=int))
        inputs = [np.ones(rows, dtype=np.int64)] * 5
        results = arr.compute_cycle(0, [0] * 5, inputs)
        assert results == [rows] * 5
        assert arr.mac_cycles == 1

    def test_compute_cycle_validation(self):
        arr = CIMArray(2, seed=3)
        with pytest.raises(CIMError):
            arr.compute_cycle(2, [0] * 5, [np.zeros(8, dtype=np.int64)] * 5)
        with pytest.raises(CIMError):
            arr.compute_cycle(0, [0] * 4, [np.zeros(8, dtype=np.int64)] * 4)


class TestClusterWindowMapping:
    def test_ten_windows_per_array(self):
        m = ClusterWindowMapping(25, 3)
        assert m.n_arrays == 3
        assert m.slot_of(0) == (0, 0, 0)
        assert m.slot_of(9) == (0, 4, 1)
        assert m.slot_of(10) == (1, 0, 0)

    def test_phase_alternates(self):
        m = ClusterWindowMapping(20, 3)
        assert m.phase_of(4) == 0 and m.phase_of(7) == 1
        assert list(m.clusters_in_phase(0)) == list(range(0, 20, 2))

    def test_seam_detection(self):
        m = ClusterWindowMapping(20, 3)
        # Cluster 10 (array 1) pulls from cluster 9 (array 0) in phase 0.
        assert m.is_seam_cluster(10, 0)
        # Cluster 12's predecessor 11 is in the same array.
        assert not m.is_seam_cluster(12, 0)
        # Phase 1: cluster 9 (array 0) pulls from cluster 10 (array 1).
        assert m.is_seam_cluster(9, 1)

    def test_cyclic_seam(self):
        m = ClusterWindowMapping(20, 3)
        # Cluster 0 pulls from cluster 19 (last array) — cyclic seam.
        assert m.is_seam_cluster(0, 0)

    def test_transfer_counts(self):
        m = ClusterWindowMapping(40, 3)
        assert m.transfers_per_phase(0) == 4  # clusters 0, 10, 20, 30
        assert m.transfers_per_phase(1) == 4  # clusters 9, 19, 29, 39
        assert m.bits_per_transfer() == 3

    @pytest.mark.parametrize("phase", [0, 1])
    def test_closed_form_transfers_match_seam_oracle(self, phase):
        # Odd counts, partial last arrays and a single array included.
        for n_clusters in range(1, 251):
            m = ClusterWindowMapping(n_clusters, 3)
            oracle = sum(
                m.is_seam_cluster(c, phase)
                for c in m.clusters_in_phase(phase)
            )
            assert m.transfers_per_phase(phase) == oracle, n_clusters

    def test_single_array_no_internal_seams(self):
        # All 10 clusters in one array: even the cyclic neighbour is
        # local, so no bits ever cross an array seam.
        m = ClusterWindowMapping(10, 2)
        assert m.transfers_per_phase(0) == 0
        assert m.transfers_per_phase(1) == 0

    def test_validation(self):
        with pytest.raises(CIMError):
            ClusterWindowMapping(0, 3)
        m = ClusterWindowMapping(5, 3)
        with pytest.raises(CIMError):
            m.slot_of(5)
        with pytest.raises(CIMError):
            m.clusters_in_phase(2)
        with pytest.raises(CIMError):
            m.is_seam_cluster(0, phase=2)


class TestCIMChip:
    def test_paper_headline_numbers(self):
        # pla85900, p_max = 3: 46.4 Mb, 0.39 M spins (Table III).
        chip = CIMChip(p=3, n_clusters=42950)
        assert chip.capacity_bits == pytest.approx(46.4e6, rel=0.01)
        assert chip.n_clusters * chip.window_cols == pytest.approx(0.39e6, rel=0.01)
        assert chip.n_arrays == 4295

    def test_counters(self):
        chip = CIMChip(p=3, n_clusters=20)
        chip.record_phase_cycles(active_windows=10, cycles=4, level=0)
        chip.record_writeback(bits_per_weight=6)
        chip.record_seam_transfers(phase=0)
        s = chip.summary()
        assert s["mac_cycles"] == 4
        assert s["macs_performed"] == 40
        assert s["writeback_events"] == 1
        assert chip.weight_bits_written == 20 * 135 * 6
        assert s["seam_transfers"] == chip.mapping.transfers_per_phase(0)

    def test_writeback_defaults_full_width(self):
        chip = CIMChip(p=2, n_clusters=5)
        chip.record_writeback()
        assert chip.weight_bits_written == 5 * 32 * 8

    def test_validation(self):
        with pytest.raises(CIMError):
            CIMChip(p=0, n_clusters=5)
        chip = CIMChip(p=2, n_clusters=5)
        with pytest.raises(CIMError):
            chip.record_phase_cycles(-1, 1)
        with pytest.raises(CIMError):
            chip.record_writeback(bits_per_weight=9)
