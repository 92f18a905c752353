"""Batched replica engine for the clustered CIM annealer.

Anneals many seeds of one instance in one vectorised kernel: the R
replicas' swap trials run as a single flat numpy batch per phase
(gathers over stacked per-replica weight tensors), while construction,
write-back corruption, and the proposal RNG stay per replica so every
replica is **bit-identical to its own serial run** of
:class:`~repro.annealer.hierarchical.ClusteredCIMAnnealer` — same
tours, same lengths, same trial counters.  ``batch_size=1`` (the
serial path) remains the exactness oracle the batch is tested against.

Why this is exact
-----------------
* Window energies are **integer** (quantised weight codes summed in
  ``int64``), so batching the energy gathers cannot reassociate any
  floating-point reduction.
* The only floating-point trial math (``u * size`` position draws and
  the ``delta < 0`` accept) is elementwise, which vectorises exactly.
* Each replica keeps its own ``RandomState``-derived proposal stream
  and consumes it in the serial order: a level's draws are taken as
  one per-replica block up front (PCG64 block draws equal successive
  scalar draws), with the per-iteration offset affine in the iteration
  index because a phase's eligible-cluster count never changes within
  a level.
* Hardware-event accounting is replica-independent (it depends only on
  the schedule and the level geometry): each replica's own
  :class:`~repro.cim.macro.CIMChip` is charged once per level in
  closed form by the serial path's
  :func:`~repro.annealer.cluster_tsp.record_level_events`.

Batching is gated to configurations whose accept rule is a pure
function of the integer energies: ``noise_source`` ∈ {``SRAM``,
``NONE``} with ``noise_target=WEIGHTS`` and no convergence trace.  The
``LFSR``/``METROPOLIS`` ablations key extra noise streams off a
per-replica trial counter and the ``SPINS`` target keeps per-replica
amplitude state, so those (and trace recording) fall back to per-seed
serial solves — :func:`solve_batch` always returns the exact serial
results either way.  Replicas whose cluster hierarchies differ (the
tree build is seed-dependent) are grouped by tree signature and
batched within each group.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.annealer.cluster_tsp import record_level_events
from repro.annealer.config import AnnealerConfig, NoiseSource, NoiseTarget
from repro.annealer.engine import ClusterLevelEngine
from repro.annealer.hierarchical import ClusteredCIMAnnealer
from repro.annealer.result import AnnealResult, LevelReport
from repro.cim.macro import CIMChip
from repro.clustering.hierarchy import ClusterTree
from repro.errors import AnnealerError
from repro.ising.schedule import VddSchedule
from repro.runtime.telemetry import Stopwatch
from repro.sram.writeback import WritebackController
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import tour_length


def batchable_config(config: AnnealerConfig) -> bool:
    """Can this configuration run on the batched kernel bit-exactly?"""
    return (
        config.noise_source in (NoiseSource.SRAM, NoiseSource.NONE)
        and config.noise_target is NoiseTarget.WEIGHTS
        and not config.record_trace
    )


class _PhasePlan(NamedTuple):
    """Static flat layout of one phase's trial slots across replicas."""

    rep: np.ndarray  # (n_slots,) replica index of each slot
    cs: np.ndarray  # (n_slots,) cluster index of each slot
    sizes: np.ndarray  # (n_slots,) cluster sizes (static per level)
    #: per replica (replica, offset into its iteration draw block, m)
    slices: List[Tuple[int, int, int]]


class _BatchedLevelKernel:
    """Flat-batch swap trials over R same-shape level engines.

    Owns the stacked order/weight state during a level solve; the
    engines' own state is written back by :meth:`finish` so
    ``sequence()``/``objective()`` observe the annealed order.
    """

    def __init__(
        self,
        engines: Sequence[ClusterLevelEngine],
        schedule: VddSchedule,
        parallel_update: bool,
    ) -> None:
        self.engines = list(engines)
        self.R = len(self.engines)
        first = self.engines[0]
        self.K = first.K
        self.p = first.p
        for e in self.engines:
            if e.K != self.K or e.p != self.p:
                raise AnnealerError(
                    "batched replicas must share the level geometry"
                )
        self.sizes_st = np.stack([e.sizes for e in self.engines])
        self.order_st = np.stack([e.order for e in self.engines])
        self._refresh_boundaries()
        self.restack_weights()

        phase_list = (
            first.phase_groups()
            if parallel_update
            else [np.array([c], dtype=np.int64) for c in range(self.K)]
        )
        # A phase's eligible clusters (size >= 2) are static for the
        # whole level, so each replica's per-iteration draw count is a
        # constant c_r and the serial stream can be pre-drawn in one
        # block with offsets affine in the iteration index.
        pre = np.zeros(self.R, dtype=np.int64)
        self._phases: List[_PhasePlan] = []
        for ph in phase_list:
            ph = np.asarray(ph, dtype=np.int64)
            rep_parts: List[np.ndarray] = []
            cs_parts: List[np.ndarray] = []
            slices: List[Tuple[int, int, int]] = []
            for r in range(self.R):
                cs_r = ph[self.sizes_st[r, ph] >= 2]
                slices.append((r, int(pre[r]), int(cs_r.size)))
                pre[r] += 2 * cs_r.size
                if cs_r.size:
                    rep_parts.append(
                        np.full(cs_r.size, r, dtype=np.int64)
                    )
                    cs_parts.append(cs_r)
            rep = (
                np.concatenate(rep_parts)
                if rep_parts
                else np.empty(0, dtype=np.int64)
            )
            cs = (
                np.concatenate(cs_parts)
                if cs_parts
                else np.empty(0, dtype=np.int64)
            )
            sizes = (
                self.sizes_st[rep, cs]
                if rep.size
                else np.empty(0, dtype=np.int64)
            )
            self._phases.append(_PhasePlan(rep, cs, sizes, slices))
        self._draws_per_iter = pre
        self._U = [
            e.rng.random(schedule.total_iterations * int(pre[r]))
            for r, e in enumerate(self.engines)
        ]

    # ------------------------------------------------------------------
    def restack_weights(self) -> None:
        """Re-stack the (possibly just rewritten) effective weights."""
        self.C_own_st = np.stack([e.C_own for e in self.engines])
        self.C_prev_st = np.stack([e.C_prev for e in self.engines])
        self.C_next_st = np.stack([e.C_next for e in self.engines])

    def _refresh_boundaries(self) -> None:
        idx = (self.sizes_st - 1)[:, :, None]
        last = np.take_along_axis(self.order_st, idx, axis=2)[:, :, 0]
        first = self.order_st[:, :, 0]
        self.prev_last_st = np.roll(last, 1, axis=1)
        self.next_first_st = np.roll(first, -1, axis=1)

    # ------------------------------------------------------------------
    def _pair_energy(
        self,
        rep: np.ndarray,
        cs: np.ndarray,
        pos: np.ndarray,
        elem: np.ndarray,
        left_elem: np.ndarray,
        right_elem: np.ndarray,
        prev_boundary: Optional[np.ndarray] = None,
        next_boundary: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched mirror of ``ClusterLevelEngine._pair_energy``."""
        last = self.sizes_st[rep, cs] - 1
        at_first = pos == 0
        at_last = pos == last
        pb = (
            self.prev_last_st[rep, cs]
            if prev_boundary is None
            else prev_boundary
        )
        nb = (
            self.next_first_st[rep, cs]
            if next_boundary is None
            else next_boundary
        )
        le = np.where(at_first, 0, left_elem)
        re = np.where(at_last, 0, right_elem)
        lpos = np.where(at_first, 0, pos)
        left = np.where(
            at_first,
            self.C_prev_st[rep, cs, pb, elem],
            self.C_own_st[rep, cs, lpos, 0, le, elem],
        )
        right = np.where(
            at_last,
            self.C_next_st[rep, cs, nb, elem],
            self.C_own_st[rep, cs, pos, 1, re, elem],
        )
        return left + right

    def _local_energy(
        self, rep: np.ndarray, cs: np.ndarray, pos: np.ndarray
    ) -> np.ndarray:
        order = self.order_st
        elem = order[rep, cs, pos]
        left_elem = order[rep, cs, np.maximum(pos - 1, 0)]
        right_elem = order[rep, cs, np.minimum(pos + 1, self.p - 1)]
        return self._pair_energy(rep, cs, pos, elem, left_elem, right_elem)

    # ------------------------------------------------------------------
    def run_phase(
        self, iteration: int, phase: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One swap trial per eligible cluster per replica.

        Returns per-replica ``(proposed, accepted)`` count arrays; the
        proposal draws, positions, energies, accepts, and swaps are all
        bit-identical to each replica's serial
        ``ClusterLevelEngine.run_phase_trials`` call.
        """
        plan = self._phases[phase]
        zeros = np.zeros(self.R, dtype=np.int64)
        if plan.rep.size == 0:
            return zeros, zeros
        u0_parts: List[np.ndarray] = []
        u1_parts: List[np.ndarray] = []
        for r, off, m in plan.slices:
            if m == 0:
                continue
            base = iteration * int(self._draws_per_iter[r]) + off
            u0_parts.append(self._U[r][base : base + m])
            u1_parts.append(self._U[r][base + m : base + 2 * m])
        u0 = np.concatenate(u0_parts)
        u1 = np.concatenate(u1_parts)
        s = plan.sizes
        i = np.minimum((u0 * s).astype(np.int64), s - 1)
        j = np.minimum((u1 * s).astype(np.int64), s - 1)
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        pick = lo != hi
        rep_b = plan.rep[pick]
        proposed = np.bincount(rep_b, minlength=self.R)
        if rep_b.size == 0:
            return proposed, zeros
        cs_b = plan.cs[pick]
        lo_b = lo[pick]
        hi_b = hi[pick]

        order = self.order_st
        k = order[rep_b, cs_b, lo_b]
        l = order[rep_b, cs_b, hi_b]

        e_before = self._local_energy(rep_b, cs_b, lo_b) + self._local_energy(
            rep_b, cs_b, hi_b
        )

        adjacent = hi_b == lo_b + 1
        prev_after: Optional[np.ndarray]
        next_after: Optional[np.ndarray]
        if self.K == 1:
            last_pos = self.sizes_st[rep_b, cs_b] - 1
            prev_after = np.where(
                hi_b == last_pos, k, order[rep_b, cs_b, last_pos]
            )
            next_after = np.where(lo_b == 0, l, order[rep_b, cs_b, 0])
        else:
            prev_after = next_after = None
        left_lo = order[rep_b, cs_b, np.maximum(lo_b - 1, 0)]
        right_lo = np.where(
            adjacent, k, order[rep_b, cs_b, np.minimum(lo_b + 1, self.p - 1)]
        )
        e_after_lo = self._pair_energy(
            rep_b, cs_b, lo_b, l, left_lo, right_lo, prev_after, next_after
        )
        left_hi = np.where(
            adjacent, l, order[rep_b, cs_b, np.maximum(hi_b - 1, 0)]
        )
        right_hi = order[rep_b, cs_b, np.minimum(hi_b + 1, self.p - 1)]
        e_after_hi = self._pair_energy(
            rep_b, cs_b, hi_b, k, left_hi, right_hi, prev_after, next_after
        )

        delta = (e_after_lo + e_after_hi - e_before).astype(np.float64)
        accept = delta < 0
        rep_a = rep_b[accept]
        if rep_a.size:
            cs_a = cs_b[accept]
            alo = lo_b[accept]
            ahi = hi_b[accept]
            tmp = order[rep_a, cs_a, alo].copy()
            order[rep_a, cs_a, alo] = order[rep_a, cs_a, ahi]
            order[rep_a, cs_a, ahi] = tmp
            self._refresh_boundaries()
        return proposed, np.bincount(rep_a, minlength=self.R)

    def finish(self, proposed: np.ndarray, accepted: np.ndarray) -> None:
        """Write the annealed state back into the serial engines."""
        for r, e in enumerate(self.engines):
            e.order[:, :] = self.order_st[r]
            e._refresh_boundaries()
            e.trials_proposed = int(proposed[r])
            e.trials_accepted = int(accepted[r])


def _solve_level_batched(
    engines: Sequence[ClusterLevelEngine],
    schedule: VddSchedule,
    level: int,
    chips: Sequence[CIMChip],
    parallel_update: bool,
) -> List[LevelReport]:
    """Batched mirror of :func:`repro.annealer.cluster_tsp.solve_level`.

    Each replica's chip is charged the level's events; wall time is
    attributed evenly across the replicas.
    """
    watch = Stopwatch()
    controller = WritebackController(schedule=schedule)
    engines = list(engines)
    R = len(engines)
    obj_before = [e.objective() for e in engines]
    kernel = _BatchedLevelKernel(engines, schedule, parallel_update)
    K = kernel.K
    n_phases = len(kernel._phases)
    proposed = np.zeros(R, dtype=np.int64)
    accepted = np.zeros(R, dtype=np.int64)

    for iteration in range(schedule.total_iterations):
        writeback, vdd, lsbs = controller.begin_iteration(iteration)
        if writeback:
            for e in engines:
                e.writeback(vdd, lsbs)
            kernel.restack_weights()
        for phase in range(n_phases):
            n_prop, n_acc = kernel.run_phase(iteration, phase)
            proposed += n_prop
            accepted += n_acc

    controller.validate_complete()
    kernel.finish(proposed, accepted)
    obj_after = [e.objective() for e in engines]
    for chip in chips:
        record_level_events(chip, schedule, engines[0], level, parallel_update)
    wall = watch.elapsed_s() / R
    n_items = int(engines[0].sizes.sum())
    return [
        LevelReport(
            level=level,
            n_items=n_items,
            n_clusters=K,
            p=kernel.p,
            iterations=schedule.total_iterations,
            swaps_proposed=int(proposed[r]),
            swaps_accepted=int(accepted[r]),
            objective_before=obj_before[r],
            objective_after=obj_after[r],
            wall_time_s=wall,
        )
        for r in range(R)
    ]


def _tree_signature(tree: ClusterTree) -> Tuple[object, ...]:
    """Hashable identity of a cluster hierarchy's structure."""
    return tuple(
        tuple(tuple(m.tolist()) for m in level.members)
        for level in tree.levels
    )


def _solve_group(
    instance: TSPInstance,
    annealers: Sequence[ClusteredCIMAnnealer],
    tree: ClusterTree,
) -> List[AnnealResult]:
    """Batched hierarchical solve for replicas sharing one tree."""
    watch = Stopwatch()
    annealers = list(annealers)
    R = len(annealers)
    cfg0 = annealers[0].config
    n_levels = tree.n_levels

    hardware_p = cfg0.strategy.hardware_p()
    chip_p = hardware_p or tree.max_level_size()
    n_clusters = cfg0.strategy.provisioned_clusters(instance.n)
    chips = [CIMChip(chip_p, n_clusters, cfg0.weight_bits) for _ in range(R)]
    reports: List[List[LevelReport]] = [[] for _ in range(R)]

    # ---- top level: order the super-clusters -------------------------
    top = tree.levels[-1]
    k_top = top.n_clusters
    if k_top == 1:
        cluster_orders = [np.array([0], dtype=np.int64) for _ in range(R)]
    else:
        engines = [
            a._make_engine(
                points=top.centroids,
                groups=[np.arange(k_top, dtype=np.int64)],
                p=k_top,
                level_tag=f"top/{n_levels}",
            )
            for a in annealers
        ]
        per_rep = _solve_level_batched(
            engines,
            cfg0.schedule,
            level=n_levels,
            chips=chips,
            parallel_update=cfg0.parallel_update,
        )
        for r in range(R):
            reports[r].append(per_rep[r])
        cluster_orders = [e.sequence() for e in engines]

    # ---- descend the hierarchy ---------------------------------------
    for level_idx in range(n_levels - 1, -1, -1):
        level = tree.levels[level_idx]
        points = tree.points_at(level_idx)
        groups_by_rep = [
            [level.members[int(c)] for c in cluster_orders[r]]
            for r in range(R)
        ]
        # The replicas permute the same cluster set, so the maximal
        # group size (hence p) is identical for all of them.
        max_size = int(max(g.size for g in groups_by_rep[0]))
        p = max(hardware_p or 1, max_size)
        engines = [
            a._make_engine(
                points=points,
                groups=groups_by_rep[r],
                p=p,
                level_tag=f"level/{level_idx}",
            )
            for r, a in enumerate(annealers)
        ]
        per_rep = _solve_level_batched(
            engines,
            cfg0.schedule,
            level=level_idx,
            chips=chips,
            parallel_update=cfg0.parallel_update,
        )
        for r in range(R):
            reports[r].append(per_rep[r])
        cluster_orders = [e.sequence() for e in engines]

    wall = watch.elapsed_s()
    results: List[AnnealResult] = []
    for r in range(R):
        tour = cluster_orders[r]
        if tour.size != instance.n:
            raise AnnealerError(
                f"hierarchy produced {tour.size} cities, "
                f"expected {instance.n}"
            )
        results.append(
            AnnealResult(
                instance=instance,
                tour=tour,
                length=tour_length(instance, tour),
                chip=chips[r],
                levels=reports[r],
                trace=None,
                wall_time_s=wall / R,
            )
        )
    return results


def solve_batch(
    instance: TSPInstance,
    config: Optional[AnnealerConfig],
    seeds: Sequence[int],
) -> List[AnnealResult]:
    """Solve ``instance`` for every seed, batching replicas where exact.

    Returns one :class:`AnnealResult` per seed, in seed order, each
    bit-identical to ``ClusteredCIMAnnealer(replace(config,
    seed=s)).solve(instance)``.  Configurations (or replicas) the
    batched kernel cannot represent exactly fall back to that serial
    call transparently.
    """
    config = config if config is not None else AnnealerConfig()
    seed_list = [int(s) for s in seeds]
    if not seed_list:
        raise AnnealerError("need at least one seed")
    if len(seed_list) == 1 or not batchable_config(config):
        return [
            ClusteredCIMAnnealer(replace(config, seed=s)).solve(instance)
            for s in seed_list
        ]
    annealers = [
        ClusteredCIMAnnealer(replace(config, seed=s)) for s in seed_list
    ]
    trees = [a.build_tree(instance) for a in annealers]
    by_signature: Dict[Tuple[object, ...], List[int]] = {}
    for idx, tree in enumerate(trees):
        by_signature.setdefault(_tree_signature(tree), []).append(idx)

    out: List[Optional[AnnealResult]] = [None] * len(seed_list)
    for members in by_signature.values():
        if len(members) == 1:
            r = members[0]
            out[r] = annealers[r].solve(instance)
        else:
            group_results = _solve_group(
                instance,
                [annealers[r] for r in members],
                trees[members[0]],
            )
            for r, result in zip(members, group_results):
                out[r] = result
    return [result for result in out if result is not None]
