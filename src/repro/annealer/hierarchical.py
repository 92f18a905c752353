"""The hierarchical clustered CIM annealer (Fig. 4, right).

End-to-end solve:

1. **Cluster** bottom-up with the configured strategy.
2. **Top level** — the ≤ ``top_size`` super-clusters are ordered by the
   same windowed swap-annealer, run as a single window whose boundary
   wraps onto itself (a cyclic TSP over the top centroids).
3. **Descend** — for each level, the cluster sequence fixed above is
   refined by annealing the internal order of every cluster against its
   neighbours' boundary spins, on noisy quantised CIM weights, with
   odd/even clusters updating in alternating parallel phases.
4. The bottom level's item sequence is the city tour.

:func:`anneal_tree` is the one descent, for R ≥ 1 replicas sharing a
cluster tree: :meth:`ClusteredCIMAnnealer.solve` runs it with one
replica, :func:`repro.annealer.batched.solve_batch` once per group of
seeds sharing a tree.  Hardware events accumulate in one
:class:`repro.cim.macro.CIMChip` per replica (arrays are
time-multiplexed across levels, so the bottom level sets the
provisioned window count).
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence

import numpy as np

from repro.annealer.cluster_tsp import solve_level
from repro.annealer.config import AnnealerConfig
from repro.annealer.engine import ClusterLevelEngine
from repro.annealer.result import AnnealResult, LevelReport
from repro.annealer.trace import ConvergenceTrace
from repro.cim.macro import CIMChip
from repro.clustering.hierarchy import ClusterTree, build_hierarchy
from repro.errors import AnnealerError
from repro.runtime.telemetry import Stopwatch
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import tour_length


class ClusteredCIMAnnealer:
    """Public solver API of the reproduction.

    Example
    -------
    >>> from repro.tsp import random_uniform
    >>> from repro.annealer import AnnealerConfig, ClusteredCIMAnnealer
    >>> inst = random_uniform(200, seed=1)
    >>> result = ClusteredCIMAnnealer(AnnealerConfig(seed=7)).solve(inst)
    >>> result.tour.shape
    (200,)
    """

    def __init__(self, config: Optional[AnnealerConfig] = None) -> None:
        self.config = config or AnnealerConfig()

    # ------------------------------------------------------------------
    def build_tree(self, instance: TSPInstance) -> ClusterTree:
        """Cluster the instance with the configured strategy."""
        return build_hierarchy(
            instance,
            self.config.strategy,
            top_size=self.config.top_size,
            seed=self.config.seed,
        )

    def _make_engine(
        self,
        points: np.ndarray,
        groups: List[np.ndarray],
        p: int,
        level_tag: str,
    ) -> ClusterLevelEngine:
        cfg = self.config
        # Distinct fabrication/proposal seed per level, derived from the
        # master seed so the whole solve is reproducible.
        seed = (
            cfg.seed * 1_000_003 + zlib.crc32(level_tag.encode("utf-8"))
        ) % (2**31 - 1)
        return ClusterLevelEngine(
            points=points,
            groups=groups,
            p=p,
            weight_bits=cfg.weight_bits,
            cell_params=cfg.cell_params,
            noise_source=cfg.noise_source,
            noise_target=cfg.noise_target,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def solve(self, instance: TSPInstance) -> AnnealResult:
        """Run the full hierarchical anneal and return the result."""
        watch = Stopwatch()
        (result,) = anneal_tree(instance, [self], self.build_tree(instance))
        result.wall_time_s = watch.elapsed_s()
        return result


def anneal_tree(
    instance: TSPInstance,
    annealers: Sequence[ClusteredCIMAnnealer],
    tree: ClusterTree,
) -> List[AnnealResult]:
    """Descend ``tree`` once per annealer; one result per annealer.

    The annealers share one configuration up to the seed, and ``tree``
    is the hierarchy every one of them builds.  Each result is
    bit-identical to that annealer's own serial solve; wall time is
    split evenly across the replicas.
    """
    watch = Stopwatch()
    cfg = annealers[0].config
    n_levels = tree.n_levels
    hardware_p = cfg.strategy.hardware_p()
    chips = [
        CIMChip(
            p=hardware_p or tree.max_level_size(),
            n_clusters=cfg.strategy.provisioned_clusters(instance.n),
            weight_bits=cfg.weight_bits,
        )
        for _ in annealers
    ]
    traces = [ConvergenceTrace() for _ in annealers] if cfg.record_trace else []
    reports: List[List[LevelReport]] = [[] for _ in annealers]

    def anneal(
        level: int, points: np.ndarray, groups: List[List[np.ndarray]], p: int, tag: str
    ) -> List[np.ndarray]:
        """Anneal one level of every replica; return their item orders."""
        engines = [
            a._make_engine(points=points, groups=g, p=p, level_tag=tag)
            for a, g in zip(annealers, groups)
        ]
        level_reports = solve_level(
            engines,
            cfg.schedule,
            level=level,
            chip=chips,
            trace=traces,
            trace_every=cfg.trace_every,
            parallel_update=cfg.parallel_update,
        )
        for per_replica, report in zip(reports, level_reports):
            per_replica.append(report)
        return [e.sequence() for e in engines]

    # ---- top level: order the super-clusters ---------------------------
    k_top = tree.levels[-1].n_clusters
    if k_top == 1:
        cluster_orders = [np.array([0], dtype=np.int64) for _ in annealers]
    else:
        cluster_orders = anneal(
            n_levels,  # top solve labelled one above
            tree.levels[-1].centroids,
            [[np.arange(k_top, dtype=np.int64)] for _ in annealers],
            k_top,
            f"top/{n_levels}",
        )

    # ---- descend the hierarchy -----------------------------------------
    for level_idx in range(n_levels - 1, -1, -1):
        members = tree.levels[level_idx].members
        groups = [[members[int(c)] for c in order] for order in cluster_orders]
        # The replicas permute the same cluster set, so the largest
        # group (hence p) is the same for all of them.
        p = max(hardware_p or 1, int(max(g.size for g in groups[0])))
        cluster_orders = anneal(
            level_idx, tree.points_at(level_idx), groups, p, f"level/{level_idx}"
        )

    wall = watch.elapsed_s() / len(annealers)
    results: List[AnnealResult] = []
    for r, tour in enumerate(cluster_orders):
        if tour.size != instance.n:
            raise AnnealerError(
                f"hierarchy produced {tour.size} cities, expected {instance.n}"
            )
        results.append(
            AnnealResult(
                instance=instance,
                tour=tour,
                length=tour_length(instance, tour),
                chip=chips[r],
                levels=reports[r],
                trace=traces[r] if traces else None,
                wall_time_s=wall,
            )
        )
    return results
