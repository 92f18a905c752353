"""Unit tests for the deterministic fault-injection primitives."""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.annealer.config import AnnealerConfig
from repro.backends.cluster_cim import ClusterCIMBackend
from repro.errors import AnnealerError
from repro.ising.schedule import VddSchedule
from repro.runtime.executor import EnsembleExecutor, WorkerPool
from repro.runtime.faults import (
    Backoff,
    CircuitBreaker,
    CircuitOpenError,
    FaultInjector,
    FaultKind,
    FaultPlan,
    InjectedFault,
    ResultIntegrityError,
    ShardFaultKind,
    ShardFaultPlan,
)
from repro.runtime.options import EnsembleOptions
from repro.tsp.generators import random_uniform

#: The TSP integrity gate at the pool boundary.
validate_result = ClusterCIMBackend().validate_result

CHEAP = AnnealerConfig(
    schedule=VddSchedule(total_iterations=40, iterations_per_step=10)
)


@pytest.fixture(scope="module")
def instance():
    return random_uniform(40, seed=5)


@pytest.fixture(scope="module")
def result(instance):
    backend = ClusterCIMBackend()
    return backend.solve(backend.compile(instance, AnnealerConfig()), 0)


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(AnnealerError, match="crash_rate"):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(AnnealerError, match="sum"):
            FaultPlan(crash_rate=0.6, hang_rate=0.6)
        with pytest.raises(AnnealerError, match="hang_s"):
            FaultPlan(hang_s=0.0)
        with pytest.raises(AnnealerError, match="chaos seed"):
            FaultPlan(seed=-1)

    def test_disabled_by_default(self):
        plan = FaultPlan(seed=1)
        assert not plan.enabled
        assert plan.fault_for(0, 0) is None

    def test_schedule_is_pure(self):
        plan = FaultPlan(seed=7, crash_rate=0.3, hang_rate=0.2)
        twin = FaultPlan(seed=7, crash_rate=0.3, hang_rate=0.2)
        draws = [(s, a) for s in range(50) for a in range(3)]
        assert [plan.fault_for(s, a) for s, a in draws] == [
            twin.fault_for(s, a) for s, a in draws
        ]

    def test_different_chaos_seeds_differ(self):
        a = FaultPlan(seed=1, crash_rate=0.5)
        b = FaultPlan(seed=2, crash_rate=0.5)
        draws = [a.fault_for(s, 0) == b.fault_for(s, 0) for s in range(64)]
        assert not all(draws)

    def test_rates_roughly_respected(self):
        plan = FaultPlan(seed=3, crash_rate=0.25, corrupt_rate=0.25)
        kinds = [plan.fault_for(s, 0) for s in range(400)]
        crash = sum(1 for k in kinds if k is FaultKind.CRASH)
        corrupt = sum(1 for k in kinds if k is FaultKind.CORRUPT)
        assert 60 <= crash <= 140
        assert 60 <= corrupt <= 140
        assert FaultKind.HANG not in kinds

    def test_attempts_beyond_budget_always_clean(self):
        plan = FaultPlan(seed=9, crash_rate=1.0, max_faults_per_run=2)
        assert plan.fault_for(0, 0) is FaultKind.CRASH
        assert plan.fault_for(0, 1) is FaultKind.CRASH
        assert plan.fault_for(0, 2) is None
        assert plan.fault_for(0, 99) is None

    def test_faults_for_run_lists_attempt_order(self):
        plan = FaultPlan(seed=9, crash_rate=1.0, max_faults_per_run=2)
        assert plan.faults_for_run(4, 3) == ("crash", "crash")


class TestShardFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(AnnealerError, match="crash_rate"):
            ShardFaultPlan(crash_rate=1.5)
        with pytest.raises(AnnealerError, match="sum"):
            ShardFaultPlan(crash_rate=0.6, stall_rate=0.6)
        with pytest.raises(AnnealerError, match="chaos seed"):
            ShardFaultPlan(seed=-1)
        with pytest.raises(AnnealerError, match="max_fault_ticks"):
            ShardFaultPlan(max_fault_ticks=-1)

    def test_disabled_by_default(self):
        plan = ShardFaultPlan(seed=1)
        assert not plan.enabled
        assert plan.fault_for(0, 0) is None

    def test_schedule_is_pure(self):
        plan = ShardFaultPlan(seed=7, crash_rate=0.3, blackhole_rate=0.2)
        twin = ShardFaultPlan(seed=7, crash_rate=0.3, blackhole_rate=0.2)
        draws = [(s, t) for s in range(8) for t in range(20)]
        assert [plan.fault_for(s, t) for s, t in draws] == [
            twin.fault_for(s, t) for s, t in draws
        ]

    def test_different_chaos_seeds_differ(self):
        a = ShardFaultPlan(seed=1, crash_rate=0.5)
        b = ShardFaultPlan(seed=2, crash_rate=0.5)
        same = [a.fault_for(s, 0) == b.fault_for(s, 0) for s in range(64)]
        assert not all(same)

    def test_rates_roughly_respected(self):
        plan = ShardFaultPlan(
            seed=3, crash_rate=0.25, stall_rate=0.25, max_fault_ticks=1
        )
        kinds = [plan.fault_for(s, 0) for s in range(400)]
        crash = sum(1 for k in kinds if k is ShardFaultKind.SHARD_CRASH)
        stall = sum(1 for k in kinds if k is ShardFaultKind.STREAM_STALL)
        assert 60 <= crash <= 140
        assert 60 <= stall <= 140
        assert ShardFaultKind.PROBE_BLACKHOLE not in kinds

    def test_ticks_beyond_window_always_clean(self):
        plan = ShardFaultPlan(seed=9, crash_rate=1.0, max_fault_ticks=2)
        assert plan.fault_for(0, 0) is ShardFaultKind.SHARD_CRASH
        assert plan.fault_for(0, 1) is ShardFaultKind.SHARD_CRASH
        assert plan.fault_for(0, 2) is None
        assert plan.fault_for(0, 99) is None

    def test_faults_for_shard_lists_tick_order(self):
        plan = ShardFaultPlan(seed=9, crash_rate=1.0, max_fault_ticks=2)
        assert plan.faults_for_shard(4, 5) == (
            (0, "shard-crash"),
            (1, "shard-crash"),
        )


class TestFaultInjector:
    def test_crash_raises_transient(self):
        plan = FaultPlan(seed=1, crash_rate=1.0)
        with pytest.raises(InjectedFault, match="injected crash"):
            FaultInjector(plan).pre_solve(0, 0, in_pool=False)

    def test_crash_is_not_annealer_error(self):
        # Retry machinery re-raises AnnealerError; injected faults must
        # stay transient RuntimeErrors or chaos would kill whole runs.
        assert not issubclass(InjectedFault, AnnealerError)
        assert not issubclass(ResultIntegrityError, AnnealerError)

    def test_broken_pool_downgrades_in_process(self):
        plan = FaultPlan(seed=1, broken_pool_rate=1.0)
        with pytest.raises(InjectedFault, match="broken-pool"):
            FaultInjector(plan).pre_solve(0, 0, in_pool=False)

    def test_hang_sleeps(self, monkeypatch):
        plan = FaultPlan(seed=1, hang_rate=1.0, hang_s=7.5)
        slept = []
        monkeypatch.setattr(
            "repro.runtime.faults.time.sleep", slept.append
        )
        FaultInjector(plan).pre_solve(0, 0, in_pool=True)
        assert slept == [7.5]

    def test_corrupt_tamper_caught_by_validation(self, instance, result):
        plan = FaultPlan(seed=1, corrupt_rate=1.0)
        bad = FaultInjector(plan).post_solve(0, 0, result)
        assert bad.length != result.length
        with pytest.raises(ResultIntegrityError, match="corrupted result"):
            validate_result(instance, bad)

    def test_clean_attempt_passes_through(self, instance, result):
        plan = FaultPlan(seed=1, corrupt_rate=1.0, max_faults_per_run=1)
        out = FaultInjector(plan).post_solve(0, 1, result)  # attempt 1: clean
        assert out is result
        validate_result(instance, out)


class TestValidateResult:
    def test_accepts_honest_result(self, instance, result):
        validate_result(instance, result)

    def test_rejects_wrong_type(self, instance):
        with pytest.raises(ResultIntegrityError, match="not an AnnealResult"):
            validate_result(instance, {"length": 1.0})

    def test_rejects_corrupted_tour(self, instance, result):
        import copy

        bad = copy.copy(result)
        bad.tour = result.tour.copy()
        bad.tour[0] = bad.tour[1]  # no longer a permutation
        with pytest.raises(ResultIntegrityError, match="corrupted tour"):
            validate_result(instance, bad)


class TestBackoff:
    def test_deterministic_and_bounded(self):
        a = Backoff(base_s=0.1, cap_s=0.4, seed=3)
        b = Backoff(base_s=0.1, cap_s=0.4, seed=3)
        delays = [a.delay_s(k) for k in range(1, 6)]
        assert delays == [b.delay_s(k) for k in range(1, 6)]
        caps = [0.1, 0.2, 0.4, 0.4, 0.4]
        for delay, cap in zip(delays, caps):
            assert cap * 0.5 <= delay <= cap

    def test_zero_base_disables_pacing(self):
        slept = []
        backoff = Backoff(base_s=0.0, cap_s=1.0, seed=0, sleep=slept.append)
        assert backoff.wait(1) == 0.0
        assert slept == []

    def test_wait_returns_slept_seconds(self):
        slept = []
        backoff = Backoff(base_s=0.1, cap_s=1.0, seed=1, sleep=slept.append)
        out = backoff.wait(2)
        assert slept == [out] and out > 0

    def test_invalid_settings_rejected(self):
        with pytest.raises(AnnealerError, match="base_s"):
            Backoff(base_s=-0.1)
        with pytest.raises(AnnealerError, match="cap_s"):
            Backoff(base_s=0.5, cap_s=0.1)
        with pytest.raises(AnnealerError, match="attempt"):
            Backoff().delay_s(0)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(3)
        for _ in range(2):
            breaker.record_failure()
        breaker.check()  # still closed
        breaker.record_failure()
        assert breaker.is_open
        with pytest.raises(CircuitOpenError, match="circuit breaker open"):
            breaker.check("seed 42")

    def test_success_closes(self):
        breaker = CircuitBreaker(2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.is_open
        assert breaker.total_failures == 2

    def test_none_threshold_never_opens(self):
        breaker = CircuitBreaker(None)
        for _ in range(100):
            breaker.record_failure()
        breaker.check()

    def test_open_error_is_annealer_error(self):
        # Unlike injected faults, a tripped breaker must propagate and
        # fail the job instead of being retried.
        assert issubclass(CircuitOpenError, AnnealerError)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(AnnealerError, match="threshold"):
            CircuitBreaker(0)


class TestPoolSupervisor:
    """:class:`WorkerPool`, the one supervisor of the process pool."""

    def test_hung_slot_reclaimed_when_worker_finishes(self):
        pool = WorkerPool(max_workers=2, budget=1)
        try:
            fut: Future = Future()
            fut.set_running_or_notify_cancel()
            pool.note_hung(fut)
            assert pool.hung_slots == 1
            assert not pool.starved()
            fut.set_result(None)  # hung worker eventually finished
            assert pool.hung_slots == 0
        finally:
            pool.close()

    def test_starved_when_all_slots_hung(self):
        pool = WorkerPool(max_workers=1, budget=1)
        try:
            fut: Future = Future()
            fut.set_running_or_notify_cancel()
            pool.note_hung(fut)
            assert pool.starved()
        finally:
            pool.close()

    def test_owned_heal_bounded_by_budget(self):
        pool = WorkerPool(max_workers=1, budget=1)
        try:
            assert pool.executor is not None
            assert pool.heal(pool.executor) is not None  # budget 1 -> 0
            assert pool.rebuilds == 1
            assert pool.heal(pool.executor) is None  # budget exhausted
            assert pool.rebuilds == 1
        finally:
            pool.close()

    def test_heal_resets_hung_accounting(self):
        pool = WorkerPool(max_workers=1, budget=2)
        try:
            fut: Future = Future()
            fut.set_running_or_notify_cancel()
            pool.note_hung(fut)
            assert pool.starved()
            assert pool.heal(pool.executor) is not None
            assert pool.hung_slots == 0 and not pool.starved()
            # The hung run finishing on the abandoned pool must not
            # free a slot that a hang on its replacement holds.
            fresh: Future = Future()
            fresh.set_running_or_notify_cancel()
            pool.note_hung(fresh)
            fut.set_result(None)
            assert pool.hung_slots == 1
            fresh.set_result(None)
        finally:
            pool.close()

    def test_sibling_heal_handed_back_without_budget(self):
        pool = WorkerPool(max_workers=2, budget=1)
        try:
            broken = pool.executor
            healed = pool.heal(broken)  # the first run to see it break
            assert healed is not None and healed is not broken
            # A sibling that saw the same pool break gets the rebuilt
            # one back; no budget is spent and no pool is built.
            assert pool.heal(broken) is healed
            assert pool.rebuilds == 1 and pool.budget_left == 0
        finally:
            pool.close()

    def test_concurrent_heals_and_hangs_keep_one_ledger(self):
        # Many job threads hit one pool at once.  Every thread that saw
        # the same pool break must get the one rebuilt pool back for a
        # single unit of budget, and no hung-slot update may be lost.
        import sys
        import threading

        rounds, width = 10, 16
        pool = WorkerPool(max_workers=64, budget=rounds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for done in range(rounds):
                broken = pool.executor
                futures = [Future() for _ in range(width)]
                healed = []
                start = threading.Barrier(width)

                def job(fut):
                    start.wait(timeout=10)
                    fut.set_running_or_notify_cancel()
                    pool.note_hung(fut)
                    fut.set_result(None)  # the hung run finishes
                    healed.append(pool.heal(broken))

                threads = [
                    threading.Thread(target=job, args=(fut,))
                    for fut in futures
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert pool.rebuilds == done + 1
                assert pool.budget_left == rounds - done - 1
                assert len(healed) == width
                assert all(h is pool.executor for h in healed)
                assert pool.hung_slots == 0
        finally:
            sys.setswitchinterval(interval)
            pool.close()

    def test_borrowed_pool_heals_through_owner(self, instance):
        # A run dispatched into its owner's pool heals through the
        # owner's ledger: the run's own ``self_heal_budget`` is not
        # spent, so a spent owner budget degrades the run serially.
        pool = WorkerPool(max_workers=2, budget=0)
        try:
            results, tel = EnsembleExecutor(
                EnsembleOptions(
                    max_workers=2,
                    max_retries=1,
                    backoff_base_s=0.001,
                    backoff_cap_s=0.01,
                    self_heal_budget=5,
                    fault_plan=FaultPlan(seed=3, broken_pool_rate=1.0),
                )
            ).run(instance, [0, 1], config=CHEAP, pool=pool)
            assert tel.n_failed == 0 and len(results) == 2
            assert tel.mode == "serial-fallback"
            assert tel.pool_rebuilds == 0
            assert pool.rebuilds == 0 and pool.executor is None
        finally:
            pool.close()

    def test_borrowed_pool_without_healer_degrades(self, instance):
        # Once the owner's pool is down for good, a later run handed it
        # degrades to the serial loop instead of building its own pool.
        pool = WorkerPool(max_workers=2, budget=0)
        try:
            assert pool.heal(pool.executor) is None  # budget spent
            results, tel = EnsembleExecutor(
                EnsembleOptions(max_workers=2)
            ).run(instance, [0, 1], config=CHEAP, pool=pool)
            assert tel.n_failed == 0 and len(results) == 2
            assert tel.mode == "serial-fallback"
            assert pool.executor is None and pool.rebuilds == 0
        finally:
            pool.close()

    def test_closed_pool_declines_heals(self):
        pool = WorkerPool(max_workers=2, budget=5)
        executor = pool.executor
        pool.close()
        assert pool.executor is None
        assert pool.heal(executor) is None
        assert pool.rebuilds == 0 and pool.budget_left == 5
