"""Cluster → window compact mapping and dataflow accounting (Fig. 5e).

Clusters along the tour sequence are laid into arrays so that
consecutive clusters alternate window columns:

* cluster ``c`` → array ``c // 10``, window row ``(c % 10) // 2``,
  window column ``c % 2``;
* even clusters ("solid windows") occupy column 0, odd clusters
  ("dash windows") column 1 — the window MUX enables one column per
  phase, implementing the chromatic odd/even parallel update.

Inter-array dataflow: a window's boundary rows need the current
first/last element of the *adjacent* clusters.  Within an array those
spins are local; only at array seams must ``p`` bits travel to the
neighbouring array — downstream during solid phases, upstream during
dash phases.  :meth:`ClusterWindowMapping.transfers_per_phase` counts
those seam crossings for the latency/energy models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.cim.array import WINDOWS_PER_ARRAY
from repro.errors import CIMError


@dataclass(frozen=True)
class ClusterWindowMapping:
    """Compact mapping of a cluster sequence onto 5×2-window arrays.

    Parameters
    ----------
    n_clusters:
        Number of provisioned cluster windows at the level.
    p:
        Window dimension (boundary transfers move p bits).
    """

    n_clusters: int
    p: int

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise CIMError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.p < 1:
            raise CIMError(f"p must be >= 1, got {self.p}")

    @property
    def n_arrays(self) -> int:
        """Arrays needed (10 windows each, last may be partial)."""
        return -(-self.n_clusters // WINDOWS_PER_ARRAY)

    def slot_of(self, cluster: int) -> Tuple[int, int, int]:
        """``(array, window_row, window_col)`` of a cluster."""
        if not 0 <= cluster < self.n_clusters:
            raise CIMError(
                f"cluster {cluster} out of range 0..{self.n_clusters - 1}"
            )
        array, within = divmod(cluster, WINDOWS_PER_ARRAY)
        return array, within // 2, within % 2

    def phase_of(self, cluster: int) -> int:
        """0 for solid/even-phase clusters, 1 for dash/odd-phase."""
        return cluster % 2

    def clusters_in_phase(self, phase: int) -> range:
        """Cluster ids updated during ``phase`` (0 = solid, 1 = dash)."""
        if phase not in (0, 1):
            raise CIMError(f"phase must be 0 or 1, got {phase}")
        return range(phase, self.n_clusters, 2)

    def is_seam_cluster(self, cluster: int, phase: int) -> bool:
        """Does this cluster need a neighbour spin from another array?

        Solid phases pull the previous cluster's last element; dash
        phases pull the next cluster's first element (Fig. 5e).  The
        transfer crosses an array seam when that neighbour lives in a
        different array (cyclic neighbours always count).
        """
        if phase not in (0, 1):
            raise CIMError(f"phase must be 0 or 1, got {phase}")
        if self.phase_of(cluster) != phase:
            return False
        neighbour = (cluster - 1) % self.n_clusters if phase == 0 else \
            (cluster + 1) % self.n_clusters
        return self.slot_of(neighbour)[0] != self.slot_of(cluster)[0]

    def transfers_per_phase(self, phase: int) -> int:
        """Seam crossings (each p bits) during one phase update cycle.

        Arrays hold an even number of windows, so each interior seam is
        crossed once per phase; on a multi-array chip the cyclic wrap
        adds one whenever cluster 0 or the last cluster is in the phase.
        """
        if phase not in (0, 1):
            raise CIMError(f"phase must be 0 or 1, got {phase}")
        if self.n_arrays == 1:
            return 0
        wraps = phase == 0 or self.n_clusters % 2 == 0
        return self.n_arrays - 1 + int(wraps)

    def bits_per_transfer(self) -> int:
        """Bits moved per seam crossing (one one-hot element id: p bits)."""
        return self.p
