"""Clustered-TSP level engine and the one swap-trial kernel.

Simulates, for one hierarchy level, exactly what the CIM hardware
computes — swap-trial local energies over quantised, noise-corrupted
window weights — but batched across all clusters of a phase with numpy
gathers instead of per-window Python objects (a 3038-city level has
~1500 windows × 400 iterations; the golden
:class:`repro.cim.window.WeightWindow` path would take hours).

:class:`ClusterLevelEngine` holds one replica's level: geometry, noise
fields, write-back corruption, visiting order.  :class:`SwapKernel`
runs the swap trials on a flat window axis of R ≥ 1 replicas (a window
is one (replica, cluster) pair), the way the paper anneals every
cluster of a level at once across its CIM arrays; a serial solve is
the kernel at R = 1, on the engine's own arrays.

Bit-compatibility with the golden model is the critical invariant:

* every (column-position, row-position, element-pair) weight usage maps
  to a *distinct* bit cell with its own critical voltage and preferred
  state, exactly as in the expanded window of
  :func:`repro.cim.window.expand_spin_window`;
* corruption is regenerated at write-back boundaries from the same
  pseudo-read rule, so within a V_DD step the noise is spatial
  (deterministic per cell) and across trials it is temporal (different
  cells are addressed) — the Sec. IV-B mechanism;
* R replicas in one call equal R serial runs: energies are integer,
  the float trial math is elementwise (lint rule RL010 keeps vectorised
  float reductions out of this module), and every draw comes from the
  owning replica's own streams in its serial order.

The integration tests drive both implementations over the same state
and assert equal MAC values cell-for-cell.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.annealer.config import NoiseSource, NoiseTarget
from repro.cim.quantize import WeightQuantizer
from repro.errors import AnnealerError
from repro.ising.gibbs import cycle_groups
from repro.ising.numerics import boltzmann_accept_probability
from repro.sram.cell import SRAMCellParams
from repro.sram.errormodel import ErrorRateModel
from repro.utils.rng import RandomState


class ClusterLevelEngine:
    """One replica's window-MAC state for one hierarchy level.

    Parameters
    ----------
    points:
        ``(M, 2)`` coordinates of the level's items (cities at level 0,
        centroids above).
    groups:
        K index arrays into ``points`` — the clusters, in tour-sequence
        order (from the level above).  Cyclic: group K−1 precedes 0.
    p:
        Window dimension; at least the largest group size.
    weight_bits:
        Weight precision (8).
    cell_params:
        SRAM population for the noise fields.
    noise_source, noise_target:
        Ablation switches (see :mod:`repro.annealer.config`).
    seed:
        Fabrication + proposal seed for this level.
    """

    def __init__(
        self,
        points: np.ndarray,
        groups: List[np.ndarray],
        p: int,
        weight_bits: int = 8,
        cell_params: Optional[SRAMCellParams] = None,
        noise_source: NoiseSource = NoiseSource.SRAM,
        noise_target: NoiseTarget = NoiseTarget.WEIGHTS,
        seed: int = 0,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise AnnealerError(f"points must be (M,2), got {points.shape}")
        if not groups:
            raise AnnealerError("need at least one group")
        self.points = points
        self.groups = [np.asarray(g, dtype=np.int64) for g in groups]
        self.K = len(self.groups)
        self.sizes = np.asarray([g.size for g in self.groups], dtype=np.int64)
        if int(self.sizes.max()) > p:
            raise AnnealerError(
                f"group of size {int(self.sizes.max())} exceeds window p={p}"
            )
        if int(self.sizes.min()) < 1:
            raise AnnealerError("empty group")
        self.p = int(p)
        self.weight_bits = int(weight_bits)
        self.noise_source = NoiseSource(noise_source)
        self.noise_target = NoiseTarget(noise_target)
        self.cell_params = cell_params or SRAMCellParams()
        self._error_model = ErrorRateModel(self.cell_params)
        self._rs = RandomState(seed)
        self.rng = self._rs.child("proposals")

        self._build_distance_tensors()
        self._build_noise_fields()

        # Local visiting order inside each cluster; identity initially
        # (padded tail positions index themselves and never move).
        self.order = np.tile(np.arange(self.p, dtype=np.int64), (self.K, 1))
        # Boundary element (local index in the *neighbour* cluster) seen
        # by each cluster's window.
        self.prev_last = np.empty(self.K, dtype=np.int64)
        self.next_first = np.empty(self.K, dtype=np.int64)

        # Effective (possibly corrupted) weights; clean until the first
        # write-back applies a noise setting.  Every later update writes
        # in place, so a kernel holding these arrays never goes stale.
        self.C_own = self.Q_own.copy()
        self.C_prev = self.Q_prev.copy()
        self.C_next = self.Q_next.copy()
        self._current_noise_amp_code = 0.0
        # The [4]-style spin-noise design has no noise ramp (Sec. IV-B
        # notes it used a single lowered V_DD): freeze its amplitude at
        # the first write-back's setting.
        self._spin_amp_code: Optional[float] = None

        # Counters the caller converts into chip events.
        self.trials_proposed = 0
        self.trials_accepted = 0

        self._kernel: Optional[SwapKernel] = None
        self._refresh_boundaries()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_distance_tensors(self) -> None:
        K, p = self.K, self.p
        coords = np.zeros((K, p, 2))
        for c, g in enumerate(self.groups):
            coords[c, : g.size] = self.points[g]
        self.coords = coords

        def dist(rows: np.ndarray) -> np.ndarray:
            diff = rows[:, :, None, :] - coords[:, None, :, :]
            dx, dy = diff[..., 0], diff[..., 1]
            return np.sqrt(dx * dx + dy * dy)

        d_own = dist(coords)  # (K, p, p) [row l, col k]
        d_prev = dist(np.roll(coords, 1, axis=0))  # (K, p_prev-row, p-col)
        d_next = dist(np.roll(coords, -1, axis=0))

        # Zero the padded rows/cols ("redundant columns" hold code 0).
        valid = np.zeros((K, p), dtype=bool)
        for c in range(K):
            valid[c, : self.sizes[c]] = True
        self._valid = valid
        own_mask = valid[:, :, None] & valid[:, None, :]
        d_own *= own_mask
        prev_valid = np.roll(valid, 1, axis=0)
        next_valid = np.roll(valid, -1, axis=0)
        d_prev *= prev_valid[:, :, None] & valid[:, None, :]
        d_next *= next_valid[:, :, None] & valid[:, None, :]

        max_d = float(max(d_own.max(), d_prev.max(), d_next.max()))
        self.quantizer = WeightQuantizer(max_d, bits=self.weight_bits)
        self.Q_own_pair = self.quantizer.quantize(d_own)  # element-pair codes
        self.Q_prev = self.quantizer.quantize(d_prev)
        self.Q_next = self.quantizer.quantize(d_next)
        # Tile own codes per (column position, direction): each usage is
        # a distinct window cell, hence a distinct noisy bit group.
        self.Q_own = np.broadcast_to(
            self.Q_own_pair[:, None, None, :, :], (K, p, 2, p, p)
        ).copy()

    def _build_noise_fields(self) -> None:
        if (
            self.noise_source is not NoiseSource.SRAM
            or self.noise_target is not NoiseTarget.WEIGHTS
        ):
            self._vc_own = self._vc_prev = self._vc_next = None
            self._pref_own = self._pref_prev = self._pref_next = None
        else:
            params = self.cell_params
            B = self.weight_bits

            def fabricate(name: str, shape: Tuple[int, ...]) -> np.ndarray:
                rng = self._rs.child(f"fab/{name}")
                vc = (
                    params.v50_mv
                    + params.effective_sigma_mv
                    * rng.standard_normal(shape + (B,)).astype(np.float32)
                ).astype(np.float16)
                pref = rng.integers(0, 2, size=shape + (B,), dtype=np.uint8)
                return vc, pref

            K, p = self.K, self.p
            self._vc_own, self._pref_own = fabricate("own", (K, p, 2, p, p))
            self._vc_prev, self._pref_prev = fabricate("prev", (K, p, p))
            self._vc_next, self._pref_next = fabricate("next", (K, p, p))

        # Spatial spin-path noise pattern for the [4]-style ablation:
        # a fixed offset per (cluster, i, j) swap proposal.
        if self.noise_target is NoiseTarget.SPINS:
            rng = self._rs.child("fab/spin_offsets")
            raw = rng.standard_normal((self.K, self.p, self.p))
            self._spin_offsets = (raw + raw.transpose(0, 2, 1)) / np.sqrt(2.0)
        else:
            self._spin_offsets = None

    # ------------------------------------------------------------------
    # Noise application (write-back boundaries)
    # ------------------------------------------------------------------
    def _corrupt(
        self,
        codes: np.ndarray,
        vc: np.ndarray,
        pref: np.ndarray,
        vdd_mv: float,
        noisy_lsbs: int,
    ) -> np.ndarray:
        B = self.weight_bits
        bits = ((codes[..., None] >> np.arange(B)) & 1).astype(np.uint8)
        mask = vc.astype(np.float32) > np.float32(vdd_mv)
        if noisy_lsbs < B:
            mask = mask.copy()
            mask[..., noisy_lsbs:] = False
        bits = np.where(mask, pref, bits)
        return np.bitwise_or.reduce(
            bits.astype(np.int64) << np.arange(B), axis=-1
        )

    def writeback(self, vdd_mv: float, noisy_lsbs: int) -> None:
        """Refresh weights, then apply this step's pseudo-read corruption.

        For the non-SRAM noise modes the weights stay clean and only
        the equivalent noise *amplitude* (used to scale the LFSR / spin
        perturbations) tracks the schedule.
        """
        self._current_noise_amp_code = self._error_model.expected_weight_noise(
            vdd_mv, noisy_lsbs, self.weight_bits
        )
        if self._spin_amp_code is None:
            self._spin_amp_code = self._current_noise_amp_code
        if self._vc_own is None:
            return
        if noisy_lsbs == 0:
            self.C_own[...] = self.Q_own
            self.C_prev[...] = self.Q_prev
            self.C_next[...] = self.Q_next
            return
        self.C_own[...] = self._corrupt(
            self.Q_own, self._vc_own, self._pref_own, vdd_mv, noisy_lsbs
        )
        self.C_prev[...] = self._corrupt(
            self.Q_prev, self._vc_prev, self._pref_prev, vdd_mv, noisy_lsbs
        )
        self.C_next[...] = self._corrupt(
            self.Q_next, self._vc_next, self._pref_next, vdd_mv, noisy_lsbs
        )

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> "SwapKernel":
        """The swap-trial kernel over this engine's own windows (R = 1)."""
        if self._kernel is None:
            # A weak back-reference: a cycle would keep every finished
            # level's arrays alive until a full garbage collection.
            self._kernel = SwapKernel([weakref.proxy(self)])
        return self._kernel

    def _refresh_boundaries(self) -> None:
        self.kernel.refresh_boundaries()

    def phase_groups(self) -> List[np.ndarray]:
        """Chromatic update groups over the cluster cycle (odd/even)."""
        return cycle_groups(self.K)

    def sequence(self) -> np.ndarray:
        """Level items in the current visiting order (global indices)."""
        parts = [
            self.groups[c][self.order[c, : self.sizes[c]]] for c in range(self.K)
        ]
        return np.concatenate(parts)

    def objective(self) -> float:
        """True (float) cyclic length of the current item sequence."""
        seq = self.sequence()
        pts = self.points[seq]
        nxt = np.roll(pts, -1, axis=0)
        return float(np.hypot(pts[:, 0] - nxt[:, 0], pts[:, 1] - nxt[:, 1]).sum())

    def local_energy(self, cs: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Local energy of the spins currently at ``pos`` (MAC output)."""
        return self.kernel.local_energy(np.asarray(cs), np.asarray(pos))

    def run_phase_trials(self, phase_cs: np.ndarray) -> Tuple[int, int]:
        """One swap trial in every cluster of a phase: the kernel at R = 1.

        Returns ``(proposed, accepted)`` counts.
        """
        return self.kernel.run_trials(phase_cs)


_Draw = Callable[[ClusterLevelEngine, int], np.ndarray]


class SwapKernel:
    """Swap trials over the flat window axis of R ≥ 1 same-shape engines.

    Window ``r * K + c`` is cluster ``c`` of replica ``r``; its ring
    neighbours are windows ``r * K + (c ∓ 1) % K``.  At R = 1 the kernel
    works on the engine's own arrays.  At R > 1 it stacks them once and
    rebinds each engine's arrays to its slice of the stack, so in-place
    write-backs land in the kernel and the engines see the annealed
    order: no copy after a write-back, none at the end.
    """

    def __init__(self, engines: Sequence[ClusterLevelEngine]) -> None:
        self.engines = list(engines)
        self.R = len(self.engines)
        lead = self.engines[0]
        self.K, self.p = lead.K, lead.p
        shape = attrgetter(
            "K", "p", "weight_bits", "cell_params", "noise_source", "noise_target"
        )
        if any(shape(e) != shape(lead) for e in engines):
            raise AnnealerError(
                "batched replicas must share the level shape and noise model"
            )
        # A window is its own neighbour at a one-cluster level (the top).
        self.self_ring = self.K == 1
        self.order = self._adopt("order")
        self.sizes = self._adopt("sizes")
        self.prev_last = self._adopt("prev_last")
        self.next_first = self._adopt("next_first")
        self.C_own = self._adopt("C_own")
        self.C_prev = self._adopt("C_prev")
        self.C_next = self._adopt("C_next")
        spins = lead.noise_target is NoiseTarget.SPINS
        self.spin_offsets = self._adopt("_spin_offsets") if spins else None
        base = np.arange(self.R)[:, None] * self.K
        c = np.arange(self.K)
        self.windows = (base + c).ravel()
        self.prev_w = (base + np.roll(c, 1)).ravel()
        self.next_w = (base + np.roll(c, -1)).ravel()

    def _adopt(self, name: str) -> np.ndarray:
        """The flat array of attribute ``name``; stacked when R > 1."""
        arrays: List[np.ndarray] = [getattr(e, name) for e in self.engines]
        if self.R == 1:
            return arrays[0]
        stacked = np.concatenate(arrays)
        for r, e in enumerate(self.engines):
            setattr(e, name, stacked[r * self.K : (r + 1) * self.K])
            e._kernel = None  # its own view must be rebuilt on the slice
        return stacked

    def windows_of(self, clusters: np.ndarray) -> np.ndarray:
        """Every replica's windows of ``clusters``, replica-major."""
        return self.windows.reshape(self.R, self.K)[:, clusters].ravel()

    def refresh_boundaries(self) -> None:
        """Re-read each window's boundary spins from its neighbours."""
        last = self.order[self.windows, self.sizes - 1]
        self.prev_last[:] = last[self.prev_w]
        self.next_first[:] = self.order[self.next_w, 0]

    def _per_replica(self, w: np.ndarray) -> List[int]:
        """How many of the (replica-major) windows ``w`` each replica owns."""
        if self.R == 1:
            return [int(w.size)]
        return [int(n) for n in np.bincount(w // self.K, minlength=self.R)]

    def _draw(self, w: np.ndarray, draw: _Draw) -> np.ndarray:
        """Each replica's ``draw(engine, n)`` for its windows of ``w``.

        The parts are joined along the last axis in replica order, so
        every window's value comes from its own replica's stream.
        """
        if self.R == 1:
            return draw(self.engines[0], int(w.size))
        parts = zip(self.engines, self._per_replica(w))
        return np.concatenate([draw(e, n) for e, n in parts if n], axis=-1)

    # ------------------------------------------------------------------
    # Energy computation (the MACs)
    # ------------------------------------------------------------------
    def _pair_energy(
        self,
        w: np.ndarray,
        pos: np.ndarray,
        elem: np.ndarray,
        left_elem: np.ndarray,
        right_elem: np.ndarray,
        prev_boundary: Optional[np.ndarray] = None,
        next_boundary: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Local energy of spin (pos, elem) with explicit neighbours.

        ``left_elem``/``right_elem`` are the local element ids occupying
        positions pos−1 / pos+1 (ignored where the neighbour is the
        boundary spin of the adjacent cluster).  ``prev_boundary`` /
        ``next_boundary`` override the boundary spin element ids — used
        for after-swap energies when the swap itself moves the
        window's first/last element (only observable when a window is
        its own neighbour, i.e. the K = 1 top level).
        """
        last = self.sizes[w] - 1
        at_first = pos == 0
        at_last = pos == last
        pb = self.prev_last[w] if prev_boundary is None else prev_boundary
        nb = self.next_first[w] if next_boundary is None else next_boundary
        # Clip override indices so gathers stay in range where masked.
        le = np.where(at_first, 0, left_elem)
        re = np.where(at_last, 0, right_elem)
        lpos = np.where(at_first, 0, pos)  # any valid value when masked
        left = np.where(
            at_first,
            self.C_prev[w, pb, elem],
            self.C_own[w, lpos, 0, le, elem],
        )
        right = np.where(
            at_last,
            self.C_next[w, nb, elem],
            self.C_own[w, pos, 1, re, elem],
        )
        return left + right

    def local_energy(self, w: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Local energy of the spins currently at ``pos`` of windows ``w``."""
        order = self.order
        elem = order[w, pos]
        left_elem = order[w, np.maximum(pos - 1, 0)]
        right_elem = order[w, np.minimum(pos + 1, self.p - 1)]
        return self._pair_energy(w, pos, elem, left_elem, right_elem)

    # ------------------------------------------------------------------
    # Swap trials
    # ------------------------------------------------------------------
    def run_trials(self, windows: np.ndarray) -> Tuple[int, int]:
        """One swap trial in every window of a phase (4 MAC cycles).

        ``windows`` must be replica-major (see :meth:`windows_of`).
        Returns the ``(proposed, accepted)`` totals; each engine's own
        ``trials_proposed``/``trials_accepted`` counters advance by its
        share.  Mirrors the hardware exactly: two local-energy MACs with
        the pre-swap spins, two with the post-swap spins, accept when
        the (noisy) energy drops.
        """
        w = np.asarray(windows, dtype=np.int64)
        w = w[self.sizes[w] >= 2]
        if w.size == 0:
            return 0, 0
        s = self.sizes[w]
        u = self._draw(w, lambda e, n: e.rng.random((2, n)))
        i = np.minimum((u[0] * s).astype(np.int64), s - 1)
        j = np.minimum((u[1] * s).astype(np.int64), s - 1)
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        pick = lo != hi
        w, lo, hi = w[pick], lo[pick], hi[pick]
        if w.size == 0:
            return 0, 0

        order = self.order
        k = order[w, lo]  # element at the lower position
        l = order[w, hi]  # element at the higher position

        # --- before-swap energies (2 MAC cycles) -----------------------
        e_before = self.local_energy(w, lo) + self.local_energy(w, hi)

        # --- after-swap energies (2 MAC cycles) ------------------------
        adjacent = hi == lo + 1
        # When a window is its own neighbour, moving the first/last
        # element also moves the boundary spin the window sees; compute
        # the post-swap boundary ids.
        prev_after: Optional[np.ndarray] = None
        next_after: Optional[np.ndarray] = None
        if self.self_ring:
            last_pos = self.sizes[w] - 1
            prev_after = np.where(hi == last_pos, k, order[w, last_pos])
            next_after = np.where(lo == 0, l, order[w, 0])
        # Spin (lo, l): left neighbour unchanged, right becomes k if adjacent.
        left_lo = order[w, np.maximum(lo - 1, 0)]
        right_lo = np.where(adjacent, k, order[w, np.minimum(lo + 1, self.p - 1)])
        e_after_lo = self._pair_energy(
            w, lo, l, left_lo, right_lo, prev_after, next_after
        )
        # Spin (hi, k): right neighbour unchanged, left becomes l if adjacent.
        left_hi = np.where(adjacent, l, order[w, np.maximum(hi - 1, 0)])
        right_hi = order[w, np.minimum(hi + 1, self.p - 1)]
        e_after_hi = self._pair_energy(
            w, hi, k, left_hi, right_hi, prev_after, next_after
        )

        delta = (e_after_lo + e_after_hi - e_before).astype(np.float64)

        # --- non-SRAM noise ablations ----------------------------------
        # Replicas share the configuration and the schedule, so they
        # share the amplitudes too.
        lead = self.engines[0]
        amp = lead._current_noise_amp_code
        if lead.noise_source is NoiseSource.LFSR and amp > 0:
            # Temporal PRNG perturbation with the schedule's amplitude
            # (≈4 independent weight reads per delta → 2·amp spread).
            delta = delta + 2.0 * amp * self._draw(
                w,
                lambda e, n: e._rs.child(
                    f"lfsr/{e.trials_proposed}"
                ).standard_normal(n),
            )
        if self.spin_offsets is not None:
            # Spatial-only noise at a fixed (never-annealed) amplitude:
            # the same proposal always sees the same offset, and [4]'s
            # single lowered V_DD means it never decays either.
            spin_amp = lead._spin_amp_code or 0.0
            if spin_amp > 0:
                delta = delta + 2.0 * spin_amp * self.spin_offsets[w, lo, hi]

        if lead.noise_source is NoiseSource.METROPOLIS and amp > 0:
            # Idealised baseline: exact energies, Boltzmann acceptance
            # at a temperature tracking the noise-amplitude schedule.
            u_acc = self._draw(
                w,
                lambda e, n: e._rs.child(
                    f"metropolis/{e.trials_proposed}"
                ).random(n),
            )
            accept = (delta < 0) | (
                u_acc < boltzmann_accept_probability(delta, amp)
            )
        else:
            accept = delta < 0
        acc = w[accept]
        if acc.size:
            alo, ahi = lo[accept], hi[accept]
            tmp = order[acc, alo].copy()
            order[acc, alo] = order[acc, ahi]
            order[acc, ahi] = tmp
            self.refresh_boundaries()

        for e, n_prop, n_acc in zip(
            self.engines, self._per_replica(w), self._per_replica(acc)
        ):
            e.trials_proposed += n_prop
            e.trials_accepted += n_acc
        return int(w.size), int(acc.size)

    #: The batched phase entry point, traced apart from the serial
    #: ``ClusterLevelEngine.run_phase_trials`` by the benchmark harness.
    run_phase = run_trials
