"""Tests for the process-pool ensemble executor."""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

from repro.annealer.config import AnnealerConfig
from repro.backends.cluster_cim import ClusterCIMBackend
from repro.errors import AnnealerError
from repro.ising.schedule import VddSchedule
from repro.runtime.executor import EnsembleExecutor, WorkerPool
from repro.runtime.faults import FaultPlan
from repro.runtime.options import EnsembleOptions
from repro.tsp.generators import random_uniform


@pytest.fixture(scope="module")
def instance():
    return random_uniform(70, seed=13)


SEEDS = [3, 1, 2]  # deliberately unsorted: output must follow input order


class TestValidation:
    def test_bad_settings_rejected(self):
        with pytest.raises(AnnealerError):
            EnsembleExecutor(EnsembleOptions(max_workers=0))
        with pytest.raises(AnnealerError):
            EnsembleExecutor(EnsembleOptions(max_retries=-1))
        with pytest.raises(AnnealerError):
            EnsembleExecutor(EnsembleOptions(timeout_s=0))
        with pytest.raises(AnnealerError):
            EnsembleExecutor(EnsembleOptions(chunk_size=0))

    def test_empty_seeds_rejected(self, instance):
        with pytest.raises(AnnealerError, match="at least one seed"):
            EnsembleExecutor().run(instance, [])

    def test_duplicate_seeds_rejected(self, instance):
        with pytest.raises(AnnealerError, match="duplicate seeds"):
            EnsembleExecutor().run(instance, [1, 2, 1])


class TestSerialPath:
    def test_results_in_seed_order(self, instance):
        results, tel = EnsembleExecutor(EnsembleOptions(max_workers=1)).run(instance, SEEDS)
        assert tel.mode == "serial"
        assert [t.seed for t in tel.runs] == SEEDS
        backend = ClusterCIMBackend()
        plan = backend.compile(instance, None)
        for seed, res in zip(SEEDS, results):
            expected = backend.solve(plan, seed)
            assert res.length == expected.length

    def test_telemetry_complete(self, instance):
        _, tel = EnsembleExecutor().run(instance, [4, 5])
        assert tel.n_runs == 2 and tel.n_failed == 0
        assert tel.wall_time_s > 0
        for run in tel.runs:
            assert run.ok and run.worker == "serial"
            assert run.trials_proposed > 0
            assert run.writeback_events > 0
            assert run.mac_cycles > 0
            assert len(run.level_times_s) > 0


class TestParallelPath:
    def test_bit_identical_to_serial(self, instance):
        serial, _ = EnsembleExecutor(EnsembleOptions(max_workers=1)).run(instance, SEEDS)
        parallel, tel = EnsembleExecutor(EnsembleOptions(max_workers=2)).run(instance, SEEDS)
        assert tel.mode in ("parallel", "serial-fallback")
        assert [r.length for r in parallel] == [r.length for r in serial]
        assert all(
            np.array_equal(a.tour, b.tour) for a, b in zip(parallel, serial)
        )

    def test_chunked_dispatch_covers_all_seeds(self, instance):
        seeds = list(range(20, 25))
        results, tel = EnsembleExecutor(EnsembleOptions(max_workers=2, chunk_size=2)).run(
            instance, seeds
        )
        assert len(results) == len(seeds)
        assert [t.seed for t in tel.runs] == seeds

    def test_timeout_falls_back_to_in_process_retry(self, instance):
        # Deterministic hang schedule instead of a wall-clock race: an
        # injected hang (rate 1.0) makes *every* pool attempt sleep
        # 0.4s against a 0.05s budget, and chunk_size=1 dispatches one
        # seed at a time, so both seeds must time out in the pool and
        # complete via the in-process retry — attempt 1 is always
        # clean by schedule (max_faults_per_run=1).
        plan = FaultPlan(
            seed=99, hang_rate=1.0, hang_s=0.4, max_faults_per_run=1
        )
        results, tel = EnsembleExecutor(
            EnsembleOptions(
                max_workers=2,
                timeout_s=0.05,
                max_retries=1,
                backoff_base_s=0.0,
                chunk_size=1,
                fault_plan=plan,
            )
        ).run(instance, [8, 9])
        assert len(results) == 2
        assert tel.mode == "parallel"
        for t in tel.runs:
            assert t.ok
            assert t.worker == "serial"  # reached only via timeout retry
            assert t.retries == 1
            assert "exceeded" in t.first_error
            # The hang is accounted when the worker had started its
            # injected sleep before the parent's budget expired.
            assert t.faults_injected in ([], ["hang"])
        serial, _ = EnsembleExecutor(EnsembleOptions(max_workers=1)).run(instance, [8, 9])
        assert [r.length for r in results] == [r.length for r in serial]

    def test_pool_unavailable_degrades_to_serial(self, instance, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no fork for you")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", broken_pool
        )
        results, tel = EnsembleExecutor(EnsembleOptions(max_workers=4)).run(instance, [6, 7])
        assert tel.mode == "serial-fallback"
        assert len(results) == 2 and all(t.ok for t in tel.runs)


class TestFailureIsolation:
    def test_failed_run_reported_not_raised(self, instance, monkeypatch):
        real = ClusterCIMBackend.solve

        def flaky(backend, plan, seed):
            if seed == 2:
                raise RuntimeError("injected crash")
            return real(backend, plan, seed)

        monkeypatch.setattr(ClusterCIMBackend, "solve", flaky)
        results, tel = EnsembleExecutor(EnsembleOptions(max_retries=1)).run(
            instance, [1, 2, 3]
        )
        assert len(results) == 2  # seed 2 dropped, siblings intact
        by_seed = {t.seed: t for t in tel.runs}
        assert not by_seed[2].ok
        assert "injected crash" in by_seed[2].error
        assert by_seed[2].retries == 2  # first try + 1 retry
        assert by_seed[1].ok and by_seed[3].ok
        assert tel.n_failed == 1

    def test_retry_recovers_transient_failure(self, instance, monkeypatch):
        real = ClusterCIMBackend.solve
        calls = {"n": 0}

        def transient(backend, plan, seed):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(backend, plan, seed)

        monkeypatch.setattr(ClusterCIMBackend, "solve", transient)
        results, tel = EnsembleExecutor(EnsembleOptions(max_retries=2)).run(instance, [5])
        assert len(results) == 1
        assert tel.runs[0].ok and tel.runs[0].retries == 1

    def test_strict_mode_raises(self, instance, monkeypatch):
        def always_fails(backend, plan, seed):
            raise RuntimeError("permanent")

        monkeypatch.setattr(ClusterCIMBackend, "solve", always_fails)
        with pytest.raises(AnnealerError, match="failed after"):
            EnsembleExecutor(EnsembleOptions(max_retries=1, strict=True)).run(instance, [1])


class TestRetryAccounting:
    def test_first_error_preserved_across_recovery(self, instance, monkeypatch):
        real = ClusterCIMBackend.solve
        calls = {"n": 0}

        def transient(backend, plan, seed):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("flaky init")
            return real(backend, plan, seed)

        monkeypatch.setattr(ClusterCIMBackend, "solve", transient)
        _, tel = EnsembleExecutor(
            EnsembleOptions(max_retries=2, backoff_base_s=0.0)
        ).run(instance, [5])
        run = tel.runs[0]
        assert run.ok and run.retries == 1
        assert run.error == ""  # terminal error empty: the run recovered
        assert "ValueError" in run.first_error
        assert "flaky init" in run.first_error

    def test_pool_timeout_preserves_first_error_and_attempts(self, instance):
        _, tel = EnsembleExecutor(
            EnsembleOptions(
                max_workers=2,
                timeout_s=1e-9,
                max_retries=1,
                backoff_base_s=0.0,
            )
        ).run(instance, [8])
        run = tel.runs[0]
        assert run.ok
        assert run.worker == "serial" and run.retries >= 1
        assert "exceeded" in run.first_error  # the pool-side timeout

    def test_terminal_failure_keeps_first_and_last_error(
        self, instance, monkeypatch
    ):
        calls = {"n": 0}

        def changing(backend, plan, seed):
            calls["n"] += 1
            raise RuntimeError(f"fault #{calls['n']}")

        monkeypatch.setattr(ClusterCIMBackend, "solve", changing)
        _, tel = EnsembleExecutor(
            EnsembleOptions(max_retries=1, backoff_base_s=0.0)
        ).run(instance, [5])
        run = tel.runs[0]
        assert not run.ok and run.retries == 2
        assert "fault #1" in run.first_error
        assert "fault #2" in run.error

    def test_backoff_recorded_and_deterministic(self, instance, monkeypatch):
        real = ClusterCIMBackend.solve
        calls = {"n": 0}

        def transient(backend, plan, seed):
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                raise RuntimeError("transient")
            return real(backend, plan, seed)

        monkeypatch.setattr(ClusterCIMBackend, "solve", transient)
        opts = EnsembleOptions(
            max_retries=1, backoff_base_s=0.002, backoff_cap_s=0.004
        )
        _, tel_a = EnsembleExecutor(opts).run(instance, [5])
        calls["n"] = 0
        _, tel_b = EnsembleExecutor(opts).run(instance, [5])
        assert tel_a.runs[0].backoff_s > 0
        assert tel_a.runs[0].backoff_s == tel_b.runs[0].backoff_s


class TestCircuitBreakerDispatch:
    def test_open_breaker_fails_fast_mid_ensemble(self, instance, monkeypatch):
        from repro.runtime.faults import CircuitBreaker, CircuitOpenError

        attempted = []

        def always_fails(backend, plan, seed):
            attempted.append(seed)
            raise RuntimeError("permanent")

        monkeypatch.setattr(ClusterCIMBackend, "solve", always_fails)
        breaker = CircuitBreaker(2)
        with pytest.raises(CircuitOpenError, match="circuit breaker open"):
            EnsembleExecutor(
                EnsembleOptions(max_retries=0, backoff_base_s=0.0)
            ).run(instance, [1, 2, 3, 4], breaker=breaker)
        assert attempted == [1, 2]  # seeds 3, 4 never burned
        assert breaker.consecutive_failures == 2

    def test_success_resets_breaker(self, instance, monkeypatch):
        from repro.runtime.faults import CircuitBreaker

        real = ClusterCIMBackend.solve

        def alternating(backend, plan, seed):
            if seed % 2 == 0:
                raise RuntimeError("even seeds fail")
            return real(backend, plan, seed)

        monkeypatch.setattr(ClusterCIMBackend, "solve", alternating)
        breaker = CircuitBreaker(2)
        results, tel = EnsembleExecutor(
            EnsembleOptions(max_retries=0, backoff_base_s=0.0)
        ).run(instance, [2, 1, 4, 3], breaker=breaker)
        assert len(results) == 2  # odd seeds fine, breaker never opens
        assert tel.n_failed == 2
        assert breaker.total_failures == 2


class TestCompletionCallback:
    def test_callback_fires_per_run_in_order(self, instance):
        seen = []
        results, tel = EnsembleExecutor(EnsembleOptions(max_workers=1)).run(
            instance, SEEDS, on_run_complete=seen.append
        )
        assert [r.seed for r in seen] == SEEDS
        assert [r.seed for r in seen] == [t.seed for t in tel.runs]

    def test_callback_sees_failures_too(self, instance, monkeypatch):
        real = ClusterCIMBackend.solve

        def flaky(backend, plan, seed):
            if seed == 2:
                raise RuntimeError("injected crash")
            return real(backend, plan, seed)

        monkeypatch.setattr(ClusterCIMBackend, "solve", flaky)
        seen = []
        EnsembleExecutor(EnsembleOptions(max_retries=0)).run(
            instance, [1, 2, 3], on_run_complete=seen.append
        )
        assert [r.ok for r in seen] == [True, False, True]

    def test_worker_suffix_threaded_through(self, instance):
        _, tel = EnsembleExecutor(EnsembleOptions(max_workers=1)).run(
            instance, [1], worker_suffix="@job-0042"
        )
        assert tel.runs[0].worker == "serial@job-0042"
        assert tel.runs[0].job_id == "job-0042"


class TestWorkerPool:
    def test_shared_pool_not_shut_down(self, instance):
        pool = WorkerPool(max_workers=2, budget=1)
        try:
            runner = EnsembleExecutor(EnsembleOptions(max_workers=2))
            r1, t1 = runner.run(instance, [1, 2], pool=pool)
            # A second ensemble reuses the same (still-open) pool.
            r2, t2 = runner.run(instance, [3], pool=pool)
            assert len(r1) == 2 and len(r2) == 1
            assert t1.mode == "parallel" and t2.mode == "parallel"
        finally:
            pool.close()

    def test_closed_pool_degrades_serially(self, instance):
        pool = WorkerPool(max_workers=2, budget=1)
        pool.close()
        results, tel = EnsembleExecutor(EnsembleOptions(max_workers=2)).run(
            instance, [1, 2], pool=pool
        )
        assert len(results) == 2
        assert tel.mode == "serial-fallback"
        assert all(t.ok for t in tel.runs)


class TestCancellation:
    def test_pre_set_cancel_raises_before_any_run(self, instance):
        import threading

        cancel = threading.Event()
        cancel.set()
        with pytest.raises(AnnealerError, match="cancelled after 0/2"):
            EnsembleExecutor(EnsembleOptions(max_workers=1)).run(
                instance, [1, 2], cancel=cancel
            )

    def test_cancel_between_seeds_stops_dispatch(self, instance):
        import threading

        cancel = threading.Event()
        seen = []

        def stop_after_first(record):
            seen.append(record)
            cancel.set()

        with pytest.raises(AnnealerError, match="cancelled after 1/3"):
            EnsembleExecutor(EnsembleOptions(max_workers=1)).run(
                instance, [1, 2, 3],
                on_run_complete=stop_after_first,
                cancel=cancel,
            )
        assert len(seen) == 1  # first run finished, rest never dispatched


class TestRemovedLegacyKwargs:
    """The pre-1.1 ``EnsembleExecutor(max_workers=...)`` keyword form
    was shimmed for one release (1.1) and removed in 1.2."""

    def test_legacy_kwargs_removed(self, instance):
        with pytest.raises(TypeError, match="unexpected"):
            EnsembleExecutor(max_workers=2, timeout_s=30.0)

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="unexpected"):
            EnsembleExecutor(workers=2)

    def test_canonical_form_does_not_warn(self, instance):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner = EnsembleExecutor(EnsembleOptions(max_workers=1))
        results, _ = runner.run(instance, [1, 2])
        assert len(results) == 2


class TestBatchedDispatch:
    """batch_size > 1: a worker claims a batch of seeds; results,
    telemetry framing, and failure isolation are unchanged."""

    def test_bad_batch_size_rejected(self):
        with pytest.raises(AnnealerError):
            EnsembleOptions(batch_size=0)

    def test_serial_batched_matches_oracle(self, instance):
        oracle, tel0 = EnsembleExecutor(EnsembleOptions()).run(
            instance, SEEDS
        )
        results, tel = EnsembleExecutor(
            EnsembleOptions(batch_size=2)
        ).run(instance, SEEDS)
        assert tel.mode == "serial"
        assert [t.seed for t in tel.runs] == SEEDS
        for a, b in zip(oracle, results):
            assert np.array_equal(a.tour, b.tour)
            assert a.length == b.length
        for x, y in zip(tel0.runs, tel.runs):
            assert x.trials_proposed == y.trials_proposed
            assert x.trials_accepted == y.trials_accepted
            assert y.worker == "serial" and y.retries == 0

    def test_pool_batched_matches_oracle(self, instance):
        oracle, _ = EnsembleExecutor(EnsembleOptions()).run(
            instance, SEEDS
        )
        results, tel = EnsembleExecutor(
            EnsembleOptions(batch_size=2, max_workers=2)
        ).run(instance, SEEDS)
        assert tel.mode == "parallel"
        assert [t.seed for t in tel.runs] == SEEDS
        assert all(t.ok and t.worker == "pool" for t in tel.runs)
        for a, b in zip(oracle, results):
            assert np.array_equal(a.tour, b.tour)
            assert a.length == b.length

    def test_one_telemetry_record_per_seed(self, instance):
        seen = []
        EnsembleExecutor(EnsembleOptions(batch_size=4)).run(
            instance,
            SEEDS,
            on_run_complete=lambda rec: seen.append(rec.seed),
        )
        assert sorted(seen) == sorted(SEEDS)

    def test_batch_failure_falls_back_per_seed(self, instance, monkeypatch):
        def exploding_batch(backend, plan, seeds):
            raise RuntimeError("batched kernel exploded")

        monkeypatch.setattr(ClusterCIMBackend, "solve_group", exploding_batch)
        results, tel = EnsembleExecutor(
            EnsembleOptions(batch_size=3)
        ).run(instance, SEEDS)
        assert len(results) == len(SEEDS)
        for t in tel.runs:
            assert t.ok and t.worker == "serial"
            assert t.retries == 1
            assert "exploded" in t.first_error

    def test_fault_plan_pins_batch_to_one(self, instance, monkeypatch):
        # Chaos runs need per-seed attempt accounting, so an active
        # plan must bypass the batched path entirely.
        def forbidden(*args, **kwargs):
            raise AssertionError("batched path used under a fault plan")

        monkeypatch.setattr(ClusterCIMBackend, "solve_group", forbidden)
        plan = FaultPlan(seed=1, crash_rate=0.5, max_faults_per_run=1)
        results, tel = EnsembleExecutor(
            EnsembleOptions(batch_size=4, max_retries=2,
                            backoff_base_s=0.0, fault_plan=plan)
        ).run(instance, SEEDS)
        assert len(results) == len(SEEDS)
        assert all(t.ok for t in tel.runs)

    def test_pool_unavailable_degrades_to_serial_batched(
        self, instance, monkeypatch
    ):
        def broken_pool(*args, **kwargs):
            raise OSError("no fork for you")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", broken_pool
        )
        results, tel = EnsembleExecutor(
            EnsembleOptions(batch_size=2, max_workers=4)
        ).run(instance, SEEDS)
        assert tel.mode == "serial-fallback"
        assert len(results) == len(SEEDS) and all(t.ok for t in tel.runs)


CHEAP = AnnealerConfig(
    schedule=VddSchedule(total_iterations=40, iterations_per_step=10)
)


def dispatch_case(case):
    """(problem, config, backend) for one collapsed-dispatch case."""
    if case == "cluster-cim-tsp":
        return random_uniform(20, seed=4), CHEAP, "cluster-cim"
    if case == "cluster-cim-qubo":
        from repro.problems import make_problem

        return make_problem("coloring", 6, seed=2).to_qubo(), None, "cluster-cim"
    return random_uniform(8, seed=5), None, "dense-ising"


class TestCollapsedDispatch:
    """One work unit and two loops: every (pool width, batch width)
    combination equals the max_workers=1, batch_size=1 oracle."""

    SEEDS = [7, 3, 5, 1, 9]  # batch_size=4: a group of four, then one

    @pytest.mark.parametrize(
        "case", ["cluster-cim-tsp", "cluster-cim-qubo", "dense-ising"]
    )
    @pytest.mark.parametrize("batch_size", [1, 4])
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_matches_serial_oracle(self, case, batch_size, max_workers):
        problem, config, backend = dispatch_case(case)
        oracle, _ = EnsembleExecutor(EnsembleOptions()).run(
            problem, self.SEEDS, config=config, backend=backend
        )
        seen = []
        results, tel = EnsembleExecutor(
            EnsembleOptions(max_workers=max_workers, batch_size=batch_size)
        ).run(
            problem,
            self.SEEDS,
            config=config,
            backend=backend,
            on_run_complete=seen.append,
        )
        assert sorted(r.seed for r in seen) == sorted(self.SEEDS)
        assert [r.seed for r in tel.runs] == self.SEEDS
        assert len(results) == len(oracle) == len(self.SEEDS)
        for fast, slow in zip(results, oracle):
            assert np.array_equal(fast.tour, slow.tour)
            assert fast.length == slow.length
        worker = "serial" if max_workers == 1 else "pool"
        assert tel.mode == ("serial" if max_workers == 1 else "parallel")
        for run in tel.runs:
            assert run.ok and run.retries == 0
            assert run.worker == worker and run.backend == backend


@pytest.mark.chaos
class TestAttemptBound:
    """docs/robustness.md: one executor run makes at most
    ``max_retries + 1`` attempts per seed, in-process or pooled."""

    @pytest.mark.parametrize("max_retries", [0, 2])
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_every_attempt_faulted_uses_exactly_the_budget(
        self, instance, max_workers, max_retries
    ):
        # Every attempt crashes, so each recorded fault is one attempt
        # that ran: the count is the per-executor factor itself.
        plan = FaultPlan(seed=1, crash_rate=1.0, max_faults_per_run=99)
        results, tel = EnsembleExecutor(
            EnsembleOptions(
                max_workers=max_workers,
                max_retries=max_retries,
                backoff_base_s=0.0,
                fault_plan=plan,
            )
        ).run(instance, [0, 1])
        assert results == []
        for run in tel.runs:
            assert not run.ok
            assert run.retries == max_retries + 1
            assert run.faults_injected == ["crash"] * (max_retries + 1)
