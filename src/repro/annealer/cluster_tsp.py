"""The level loop: one hierarchy level, R ≥ 1 replicas (Fig. 5a).

Drives the :class:`repro.annealer.engine.SwapKernel` over the level's
engines — one per replica, a serial solve being R = 1 — through the
paper's update schedule:

* at every write-back boundary (each V_DD step), refresh the weights
  and re-apply the pseudo-read corruption at the new (V_DD, noisy-LSB)
  setting;
* per iteration, run one swap trial in every cluster — odd and even
  phases in alternating parallel cycles (4 MAC cycles each), or one
  cluster at a time when ``parallel_update`` is off (the sequential
  Gibbs ablation);
* charge the level's cycles, write-backs, and seam transfers to each
  replica's CIM chip once, in closed form (:func:`record_level_events`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union, overload

import numpy as np

from repro.annealer.engine import ClusterLevelEngine, SwapKernel
from repro.annealer.result import LevelReport
from repro.annealer.trace import ConvergenceTrace
from repro.cim.macro import CIMChip
from repro.errors import AnnealerError
from repro.ising.schedule import VddSchedule
from repro.runtime.telemetry import Stopwatch
from repro.sram.writeback import WritebackController

#: MAC cycles per swap trial (2 before + 2 after the swap, Fig. 5a).
CYCLES_PER_TRIAL = 4


def record_level_events(
    chip: CIMChip,
    schedule: VddSchedule,
    engine: ClusterLevelEngine,
    level: int,
    parallel_update: bool,
) -> None:
    """Charge one annealed level's hardware events to ``chip``.

    They depend only on the level geometry and the schedule, not on
    which swaps were accepted, so the totals equal recording every
    cycle of :func:`solve_level` (windows too small to swap included).
    """
    T = schedule.total_iterations
    cycles = CYCLES_PER_TRIAL * T
    if parallel_update:
        # An odd cycle's third group updates in a solid phase.
        for phase, group in enumerate(engine.phase_groups()):
            chip.record_phase_cycles(int(group.size), cycles, level)
            chip.record_seam_transfers(phase % 2, cycles=T)
    else:
        chip.record_phase_cycles(1, cycles * engine.K, level)
    # The first write programs all planes; each refresh rewrites the
    # planes that were noisy during the previous step.
    for step in range(schedule.n_steps):
        bits = schedule.noisy_lsbs(step - 1) if step else schedule.weight_bits
        chip.record_writeback(n_windows=engine.K, bits_per_weight=bits)
    chip.record_level_done()


@overload
def solve_level(
    engine: ClusterLevelEngine,
    schedule: VddSchedule,
    level: int,
    chip: Optional[CIMChip] = None,
    trace: Optional[ConvergenceTrace] = None,
    trace_every: int = 10,
    parallel_update: bool = True,
) -> LevelReport: ...


@overload
def solve_level(
    engine: Sequence[ClusterLevelEngine],
    schedule: VddSchedule,
    level: int,
    chip: Sequence[CIMChip] = (),
    trace: Sequence[ConvergenceTrace] = (),
    trace_every: int = 10,
    parallel_update: bool = True,
) -> List[LevelReport]: ...


def solve_level(
    engine: Union[ClusterLevelEngine, Sequence[ClusterLevelEngine]],
    schedule: VddSchedule,
    level: int,
    chip: Union[None, CIMChip, Sequence[CIMChip]] = None,
    trace: Union[None, ConvergenceTrace, Sequence[ConvergenceTrace]] = None,
    trace_every: int = 10,
    parallel_update: bool = True,
) -> Union[LevelReport, List[LevelReport]]:
    """Anneal one hierarchy level in place; return its report.

    ``engine`` is one replica's engine, or a sequence of same-shape
    engines (one per replica) with per-replica ``chip``/``trace``
    sequences; a sequence gets one report per replica, each equal to
    that replica's own serial solve.
    """
    if trace_every < 1:
        raise AnnealerError(f"trace_every must be >= 1, got {trace_every}")
    engines = [engine] if isinstance(engine, ClusterLevelEngine) else list(engine)
    chips = [chip] if isinstance(chip, CIMChip) else list(chip or ())
    traces = [trace] if isinstance(trace, ConvergenceTrace) else list(trace or ())
    watch = Stopwatch()
    controller = WritebackController(schedule=schedule)
    lead = engines[0]
    kernel = lead.kernel if len(engines) == 1 else SwapKernel(engines)
    # A serial phase runs through the engine, a batched one through the
    # kernel: the same trials, under the two names the benchmark
    # harness traces (``engine.trials`` and ``annealer.batch_kernel``).
    run_phase = lead.run_phase_trials if kernel.R == 1 else kernel.run_phase
    groups = (
        lead.phase_groups()
        if parallel_update
        else [np.array([c]) for c in range(lead.K)]  # sequential Gibbs
    )
    phases = [kernel.windows_of(g) for g in groups]
    before = [(e.objective(), e.trials_proposed, e.trials_accepted) for e in engines]

    for iteration in range(schedule.total_iterations):
        writeback, vdd, lsbs = controller.begin_iteration(iteration)
        if writeback:
            for e in engines:
                e.writeback(vdd, lsbs)
        if iteration % trace_every == 0:
            for e, t in zip(engines, traces):
                t.record(level, iteration, e.objective())
        for phase in phases:
            run_phase(phase)

    controller.validate_complete()
    after = [e.objective() for e in engines]
    for t, objective in zip(traces, after):
        t.record(level, schedule.total_iterations, objective)
    for c in chips:
        record_level_events(c, schedule, lead, level, parallel_update)
    wall = watch.elapsed_s() / len(engines)
    reports = [
        LevelReport(
            level=level,
            n_items=int(lead.sizes.sum()),
            n_clusters=lead.K,
            p=lead.p,
            iterations=schedule.total_iterations,
            swaps_proposed=e.trials_proposed - proposed0,
            swaps_accepted=e.trials_accepted - accepted0,
            objective_before=objective_before,
            objective_after=objective_after,
            wall_time_s=wall,
        )
        for e, (objective_before, proposed0, accepted0), objective_after in zip(
            engines, before, after
        )
    ]
    return reports[0] if isinstance(engine, ClusterLevelEngine) else reports
