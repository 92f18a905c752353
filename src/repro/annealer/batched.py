"""Multi-seed solves of one instance, batched where the seeds share a tree.

:func:`solve_batch` builds every seed's cluster tree once, groups the
seeds whose trees are identical (the tree build is seed-dependent), and
runs the one descent, :func:`~repro.annealer.hierarchical.anneal_tree`,
once per group.  Every configuration batches, and every result is
bit-identical to the seed's own serial solve.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.annealer.config import AnnealerConfig
from repro.annealer.engine import SwapKernel
from repro.annealer.hierarchical import ClusteredCIMAnnealer, anneal_tree
from repro.annealer.result import AnnealResult
from repro.clustering.hierarchy import ClusterTree
from repro.errors import AnnealerError
from repro.runtime.telemetry import Stopwatch
from repro.tsp.instance import TSPInstance

#: The benchmark harness traces ``_BatchedLevelKernel.run_phase`` as
#: ``annealer.batch_kernel``; kept only so that target resolves.
_BatchedLevelKernel = SwapKernel


def _tree_signature(tree: ClusterTree) -> Tuple[object, ...]:
    """Hashable identity of a cluster hierarchy's structure."""
    return tuple(
        tuple(tuple(m.tolist()) for m in level.members)
        for level in tree.levels
    )


def solve_batch(
    instance: TSPInstance,
    config: Optional[AnnealerConfig],
    seeds: Sequence[int],
) -> List[AnnealResult]:
    """Solve ``instance`` for every seed, batching seeds that share a tree.

    Returns one :class:`AnnealResult` per seed, in seed order, each
    bit-identical to ``ClusteredCIMAnnealer(replace(config,
    seed=s)).solve(instance)``.  A result's ``wall_time_s`` is its own
    tree build plus its share of its group's anneal.
    """
    config = config if config is not None else AnnealerConfig()
    if not seeds:
        raise AnnealerError("need at least one seed")
    annealers = [ClusteredCIMAnnealer(replace(config, seed=int(s))) for s in seeds]
    trees: List[ClusterTree] = []
    build_s: List[float] = []
    for annealer in annealers:
        watch = Stopwatch()
        trees.append(annealer.build_tree(instance))
        build_s.append(watch.elapsed_s())
    by_signature: Dict[Tuple[object, ...], List[int]] = {}
    for idx, tree in enumerate(trees):
        by_signature.setdefault(_tree_signature(tree), []).append(idx)

    out: List[Optional[AnnealResult]] = [None] * len(annealers)
    for members in by_signature.values():
        group = anneal_tree(
            instance, [annealers[r] for r in members], trees[members[0]]
        )
        for r, result in zip(members, group):
            result.wall_time_s += build_s[r]  # as in a serial solve
            out[r] = result
    return [result for result in out if result is not None]
