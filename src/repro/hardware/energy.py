"""Dynamic-energy model (Fig. 7d, Table III power).

Energy decomposes into per-event costs drawn from 16 nm digital-CIM
macro surveys and calibrated against the paper's 433 mW chip power for
pla85900 at p_max = 3:

* **window MAC** — one column reduction: ``(p²+2p) · weight_bits``
  1-bit products plus the adder tree.  Calibrated at 0.16 fJ per
  row-bit, i.e. ≈19 fJ for the 15×8 p_max = 3 window — in family with
  the ~100 TOPS/W reported for 16-22 nm digital CIM macros [6-8];
* **weight-bit write** — 2 fJ per rewritten bit cell (short bit-lines:
  these arrays are only 40-120 rows tall).  Write-backs after the
  initial programming rewrite only the previously-noisy LSB planes, so
  the write share of both energy and latency stays small (Fig. 7c/d);
* **seam transfer** — 10 fJ per bit over short inter-array links, once
  per phase per seam crossing of the Fig. 5e mapping, ring-closing
  wrap included (the boundary spin changes at most once per trial).

With these constants the model lands pla85900 / p_max = 3 at ≈0.45 W
average vs the published 433 mW.  Average power = total dynamic energy
/ time-to-solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cim.macro import CIMChip
from repro.hardware.latency import LatencyModel, LatencyReport
from repro.hardware.tech import TechNode

#: Calibrated per-event energies at the 16 nm reference (joules).
MAC_ENERGY_PER_ROW_BIT_J = 0.16e-15
WRITE_ENERGY_PER_BIT_J = 2e-15
TRANSFER_ENERGY_PER_BIT_J = 10e-15


@dataclass(frozen=True)
class EnergyReport:
    """Energy-to-solution breakdown in joules."""

    read_energy_j: float
    write_energy_j: float
    transfer_energy_j: float

    @property
    def total_energy_j(self) -> float:
        """Total dynamic energy."""
        return self.read_energy_j + self.write_energy_j + self.transfer_energy_j

    @property
    def write_fraction(self) -> float:
        """Share of energy spent on write-backs (small, per Fig. 7d)."""
        total = self.total_energy_j
        return self.write_energy_j / total if total > 0 else 0.0

    def average_power_w(self, latency: LatencyReport) -> float:
        """Average chip power over the anneal (Table III row)."""
        t = latency.total_time_s
        return self.total_energy_j / t if t > 0 else 0.0


@dataclass(frozen=True)
class EnergyModel:
    """Turns chip counters into an :class:`EnergyReport`."""

    tech: TechNode = field(default_factory=TechNode)

    def mac_energy_j(self, chip: CIMChip) -> float:
        """Energy of one window-column MAC."""
        return (
            chip.window_rows
            * chip.weight_bits
            * MAC_ENERGY_PER_ROW_BIT_J
            * self.tech.energy_scale
        )

    def report(self, chip: CIMChip) -> EnergyReport:
        """Energy report from a chip's recorded counters."""
        scale = self.tech.energy_scale
        read = chip.macs_performed * self.mac_energy_j(chip)
        write = chip.weight_bits_written * WRITE_ENERGY_PER_BIT_J * scale
        transfer = chip.bits_transferred * TRANSFER_ENERGY_PER_BIT_J * scale
        return EnergyReport(
            read_energy_j=read,
            write_energy_j=write,
            transfer_energy_j=transfer,
        )

    def predict(
        self,
        chip: CIMChip,
        n_levels: int,
        iterations_per_level: int = 400,
        writeback_bits_per_level: int | None = None,
    ) -> EnergyReport:
        """Closed-form prediction matching :meth:`LatencyModel.predict`.

        Assumes the paper's default schedule: each iteration trials
        every cluster once (half per phase, 4 MAC cycles per trial),
        and write-backs refresh 8 + 6 + 5 + 4 + 3 + 2 + 1 = 29 bit
        planes per level (initial full programming then the shrinking
        noisy-LSB refreshes).
        """
        # MACs: every cluster runs one 4-cycle trial per iteration.
        macs = n_levels * iterations_per_level * 4 * chip.n_clusters
        read = macs * self.mac_energy_j(chip)

        if writeback_bits_per_level is None:
            # Full initial program + refreshes of the shrinking LSB set.
            planes = chip.weight_bits + sum(range(1, 7))  # 8 + 21 = 29
            writeback_bits_per_level = (
                chip.n_clusters * chip.weights_per_window * planes
            )
        write = (
            n_levels
            * writeback_bits_per_level
            * WRITE_ENERGY_PER_BIT_J
            * self.tech.energy_scale
        )

        # One p-bit transfer per seam crossing of each phase (Fig. 5e).
        mapping = chip.mapping
        seams = mapping.transfers_per_phase(0) + mapping.transfers_per_phase(1)
        transfer_bits = n_levels * iterations_per_level * seams * chip.p
        transfer = transfer_bits * TRANSFER_ENERGY_PER_BIT_J * self.tech.energy_scale
        return EnergyReport(
            read_energy_j=read,
            write_energy_j=write,
            transfer_energy_j=transfer,
        )

    def latency_and_energy(
        self, chip: CIMChip, latency_model: LatencyModel | None = None
    ) -> tuple[LatencyReport, EnergyReport]:
        """Convenience: both reports from the same counters."""
        lm = latency_model or LatencyModel(tech=self.tech)
        return lm.report(chip), self.report(chip)
