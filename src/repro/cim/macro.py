"""The multi-array CIM chip: geometry + hardware-event counters.

:class:`CIMChip` is the accounting spine of the co-evaluation: the
annealer charges each level's update cycles, write-backs, and seam
transfers to it once, in closed form (they depend only on the level
geometry and the schedule), and the PPA models (:mod:`repro.hardware`)
turn the tallies into time-to-solution and energy-to-solution with
read/write breakdowns (Fig. 7c/d).

The chip is *counter-only* by design — it never materialises windows —
so it scales to the pla85900 configuration (4 295 arrays).  Bit-exact
window behaviour lives in :class:`repro.cim.array.CIMArray` and is
exercised by the test suite on small problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cim.array import array_bit_geometry
from repro.cim.mapping import ClusterWindowMapping
from repro.cim.window import window_shape
from repro.errors import CIMError


@dataclass
class CIMChip:
    """Chip-level geometry and event counters.

    Parameters
    ----------
    p:
        Window dimension (p_max of the chosen strategy).
    n_clusters:
        Provisioned cluster windows (bottom level of the hierarchy —
        arrays are time-multiplexed across levels, Sec. V).
    weight_bits:
        Weight precision (8).
    """

    p: int
    n_clusters: int
    weight_bits: int = 8

    # --- event counters -------------------------------------------------
    mac_cycles: int = 0          # global update cycles where MACs happen
    macs_performed: int = 0      # individual column-MACs (energy events)
    writeback_events: int = 0    # global weight-refresh events
    weights_written: int = 0     # weight codes rewritten across all windows
    weight_bits_written: int = 0  # bit cells actually rewritten
    seam_transfers: int = 0      # inter-array boundary transfers
    bits_transferred: int = 0    # total bits moved across seams
    levels_processed: int = 0    # hierarchy levels annealed
    per_level_cycles: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.p < 1:
            raise CIMError(f"p must be >= 1, got {self.p}")
        if self.n_clusters < 1:
            raise CIMError(f"n_clusters must be >= 1, got {self.n_clusters}")
        self.mapping = ClusterWindowMapping(self.n_clusters, self.p)

    # --- geometry --------------------------------------------------------
    @property
    def n_arrays(self) -> int:
        """Arrays on the chip (10 windows each)."""
        return self.mapping.n_arrays

    @property
    def window_rows(self) -> int:
        """Rows per window: p² + 2p."""
        return window_shape(self.p)[0]

    @property
    def window_cols(self) -> int:
        """Weight columns per window: p²."""
        return window_shape(self.p)[1]

    @property
    def weights_per_window(self) -> int:
        """(p²+2p)·p² weight codes per window."""
        return self.window_rows * self.window_cols

    @property
    def capacity_bits(self) -> int:
        """Total provisioned weight storage in bits (Table I / III)."""
        return self.n_clusters * self.weights_per_window * self.weight_bits

    @property
    def capacity_bytes(self) -> float:
        """Provisioned weight storage in bytes."""
        return self.capacity_bits / 8.0

    def array_bit_geometry(self) -> tuple[int, int]:
        """Physical (rows, bit columns) of one array — Table II."""
        return array_bit_geometry(self.p, self.weight_bits)

    # --- event recording ---------------------------------------------------
    def record_phase_cycles(
        self, active_windows: int, cycles: int, level: int = 0
    ) -> None:
        """Record ``cycles`` update cycles with ``active_windows`` MACs each.

        One swap trial costs 4 cycles (2 MACs before + 2 after the
        swap); all active windows of the enabled column compute in
        parallel, so wall-clock cycles add once regardless of how many
        windows participate.
        """
        if active_windows < 0 or cycles < 0:
            raise CIMError("counts must be >= 0")
        self.mac_cycles += cycles
        self.macs_performed += active_windows * cycles
        self.per_level_cycles[level] = (
            self.per_level_cycles.get(level, 0) + cycles
        )

    def record_writeback(
        self,
        n_windows: int | None = None,
        bits_per_weight: int | None = None,
    ) -> None:
        """Record one global weight-refresh of ``n_windows`` windows.

        ``bits_per_weight`` is how many bit planes are rewritten —
        only the planes that ran at reduced V_DD in the previous step
        can hold flips, so refreshes after the first write fewer planes
        (Sec. IV-B).  Defaults to the full weight width (initial
        programming).
        """
        windows = self.n_clusters if n_windows is None else n_windows
        if windows < 0:
            raise CIMError("n_windows must be >= 0")
        bits = self.weight_bits if bits_per_weight is None else bits_per_weight
        if not 0 <= bits <= self.weight_bits:
            raise CIMError(
                f"bits_per_weight must be in [0, {self.weight_bits}], got {bits}"
            )
        self.writeback_events += 1
        self.weights_written += windows * self.weights_per_window
        self.weight_bits_written += windows * self.weights_per_window * bits

    def record_seam_transfers(self, phase: int, cycles: int = 1) -> None:
        """Record the Fig. 5e boundary transfers for ``cycles`` updates."""
        transfers = self.mapping.transfers_per_phase(phase) * cycles
        self.seam_transfers += transfers
        self.bits_transferred += transfers * self.mapping.bits_per_transfer()

    def record_level_done(self) -> None:
        """Mark one hierarchy level as completed."""
        self.levels_processed += 1

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Counter snapshot for reports."""
        return {
            "p": self.p,
            "n_clusters": self.n_clusters,
            "n_arrays": self.n_arrays,
            "capacity_bits": self.capacity_bits,
            "mac_cycles": self.mac_cycles,
            "macs_performed": self.macs_performed,
            "writeback_events": self.writeback_events,
            "weights_written": self.weights_written,
            "weight_bits_written": self.weight_bits_written,
            "seam_transfers": self.seam_transfers,
            "bits_transferred": self.bits_transferred,
            "levels_processed": self.levels_processed,
        }
