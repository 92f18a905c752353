"""Single-level clustered-TSP solve (Fig. 5a update loop).

Drives a :class:`repro.annealer.engine.ClusterLevelEngine` through the
paper's update schedule:

* at every write-back boundary (each V_DD step), refresh the weights
  and re-apply the pseudo-read corruption at the new (V_DD, noisy-LSB)
  setting;
* per iteration, run one swap trial in every cluster — odd and even
  phases in alternating parallel cycles (4 MAC cycles each), or one
  cluster at a time when ``parallel_update`` is off (the sequential
  Gibbs ablation);
* charge the level's cycles, write-backs, and seam transfers to the
  CIM chip once, in closed form (:func:`record_level_events`).
"""

from __future__ import annotations

from typing import Optional

from repro.annealer.engine import ClusterLevelEngine
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


def solve_level(
    engine: ClusterLevelEngine,
    schedule: VddSchedule,
    level: int,
    chip: Optional[CIMChip] = None,
    trace: Optional[ConvergenceTrace] = None,
    trace_every: int = 10,
    parallel_update: bool = True,
) -> LevelReport:
    """Anneal one hierarchy level in place; return its report."""
    if trace_every < 1:
        raise AnnealerError(f"trace_every must be >= 1, got {trace_every}")
    watch = Stopwatch()
    controller = WritebackController(schedule=schedule)
    objective_before = engine.objective()
    proposed = accepted = 0

    for iteration in range(schedule.total_iterations):
        writeback, vdd, lsbs = controller.begin_iteration(iteration)
        if writeback:
            engine.writeback(vdd, lsbs)

        if trace is not None and iteration % trace_every == 0:
            trace.record(level, iteration, engine.objective())

        if parallel_update:
            for group in engine.phase_groups():
                n_prop, n_acc = engine.run_phase_trials(group)
                proposed += n_prop
                accepted += n_acc
        else:
            # Sequential Gibbs: one cluster per 4-cycle trial.
            for c in range(engine.K):
                n_prop, n_acc = engine.run_phase_trials([c])
                proposed += n_prop
                accepted += n_acc

    controller.validate_complete()
    objective_after = engine.objective()
    if trace is not None:
        trace.record(level, schedule.total_iterations, objective_after)
    if chip is not None:
        record_level_events(chip, schedule, engine, level, parallel_update)
    return LevelReport(
        level=level,
        n_items=int(engine.sizes.sum()),
        n_clusters=engine.K,
        p=engine.p,
        iterations=schedule.total_iterations,
        swaps_proposed=proposed,
        swaps_accepted=accepted,
        objective_before=objective_before,
        objective_after=objective_after,
        wall_time_s=watch.elapsed_s(),
    )
