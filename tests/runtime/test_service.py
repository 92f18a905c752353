"""Tests for the async multi-instance serving runtime.

Native ``async def`` tests; ``conftest.py`` runs each on a fresh event
loop.  Deterministic streaming/admission tests gate the cluster-cim
backend's per-seed solve (``ClusterCIMBackend.solve``) with threading
events — that only works with ``max_workers=1`` (in-process
dispatch), which is also what keeps them timing-independent.  The
shared-pool tests at the end exercise the real process pool without
gates.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading

import numpy as np
import pytest

from repro.annealer.batch import solve_ensemble
from repro.annealer.config import AnnealerConfig
from repro.backends.cluster_cim import ClusterCIMBackend
from repro.errors import AnnealerError
from repro.ising.schedule import VddSchedule
from repro.runtime.faults import FaultPlan
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.runtime.service import AnnealingService, Job, JobState
from repro.tsp.generators import random_uniform

#: Generous guard so a bug hangs a test, not the whole suite.
WAIT = 60.0

#: A short anneal for the pool tests, where only dispatch is under test.
CHEAP = AnnealerConfig(
    schedule=VddSchedule(total_iterations=40, iterations_per_step=10)
)


@pytest.fixture(scope="module")
def instance():
    return random_uniform(60, seed=21)


@pytest.fixture(scope="module")
def small_instance():
    return random_uniform(40, seed=22)


def serial_options(**kwargs):
    return EnsembleOptions(max_workers=1, **kwargs)


async def solve_serial(instance, seeds):
    """Run ``solve_ensemble`` off-loop (it refuses to block a loop)."""
    return await asyncio.to_thread(
        solve_ensemble, instance, seeds, options=serial_options()
    )


class Gate:
    """Per-seed gates for deterministically pacing in-process solves."""

    def __init__(self, monkeypatch):
        real = ClusterCIMBackend.solve
        self._events = {}
        self._all_open = False
        self._lock = threading.Lock()

        def gated(backend, plan, seed):
            assert self._event(seed).wait(timeout=WAIT), f"seed {seed} starved"
            return real(backend, plan, seed)

        monkeypatch.setattr(ClusterCIMBackend, "solve", gated)

    def _event(self, seed):
        with self._lock:
            event = self._events.setdefault(seed, threading.Event())
            if self._all_open:
                event.set()
            return event

    def release(self, *seeds):
        for seed in seeds:
            self._event(seed).set()

    def release_all(self):
        # Seeds not yet requested must not block either: _event checks
        # the flag under the same lock before any future wait.
        with self._lock:
            self._all_open = True
            events = list(self._events.values())
        for event in events:
            event.set()


class TestSubmitAndResult:
    async def test_result_bit_identical_to_serial_path(self, instance):
        seeds = [1, 2, 3]
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(
                SolveRequest.build(instance, seeds, options=serial_options())
            )
            served = await asyncio.wait_for(job.result(), WAIT)
        serial = await solve_serial(instance, seeds)
        assert [r.length for r in served.results] == [
            r.length for r in serial.results
        ]
        assert all(
            np.array_equal(a.tour, b.tour)
            for a, b in zip(served.results, serial.results)
        )
        assert served.ratio_stats.mean == serial.ratio_stats.mean
        assert served.reference == serial.reference

    async def test_job_id_threaded_into_worker_field(self, instance):
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(
                SolveRequest.build(instance, [1], tag="acme")
            )
            result = await asyncio.wait_for(job.result(), WAIT)
        assert job.job_id.startswith("acme-")
        assert result.telemetry.job_id == job.job_id
        for record in result.telemetry.runs:
            assert record.worker == f"serial@{job.job_id}"
            assert record.job_id == job.job_id

    async def test_records_complete_before_result_resolves(self, instance):
        seeds = [4, 5]
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(SolveRequest.build(instance, seeds))
            await asyncio.wait_for(job.result(), WAIT)
            # The streaming guarantee: by the time result() resolves,
            # every record is already observable.
            assert [r.seed for r in job.records] == seeds
        assert job.state is JobState.DONE

    async def test_submit_requires_a_request(self, instance):
        async with AnnealingService(serial_options()) as service:
            with pytest.raises(AnnealerError, match="SolveRequest"):
                await service.submit(instance)  # type: ignore[arg-type]


class TestStreaming:
    async def test_stream_is_incremental(
        self, small_instance, monkeypatch
    ):
        gate = Gate(monkeypatch)
        seeds = [1, 2]
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(SolveRequest.build(small_instance, seeds))
            stream = job.stream()
            gate.release(1)
            first = await asyncio.wait_for(stream.__anext__(), WAIT)
            # First record observed while the ensemble is still running.
            assert first.seed == 1
            assert not job.done
            assert job.state is JobState.RUNNING
            gate.release(2)
            second = await asyncio.wait_for(stream.__anext__(), WAIT)
            assert second.seed == 2
            with pytest.raises(StopAsyncIteration):
                await asyncio.wait_for(stream.__anext__(), WAIT)
            assert (await job.result()).n_runs == 2

    async def test_late_consumer_replays_buffered_records(self, instance):
        seeds = [6, 7]
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(SolveRequest.build(instance, seeds))
            await asyncio.wait_for(job.result(), WAIT)
            replay = [r.seed async for r in job.stream()]
        assert replay == seeds

    async def test_two_consumers_see_the_full_sequence(self, instance):
        seeds = [8, 9]
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(SolveRequest.build(instance, seeds))

            async def consume():
                return [r.seed async for r in job.stream()]

            a, b = await asyncio.wait_for(
                asyncio.gather(consume(), consume()), WAIT
            )
        assert a == seeds and b == seeds


class TestConcurrentJobs:
    async def test_interleaving_without_cross_contamination(
        self, small_instance, monkeypatch
    ):
        gate = Gate(monkeypatch)
        seeds_a, seeds_b = [1, 2], [11, 12]
        async with AnnealingService(serial_options()) as service:
            job_a = await service.submit(SolveRequest.build(small_instance, seeds_a))
            job_b = await service.submit(SolveRequest.build(small_instance, seeds_b))
            order = []

            async def consume(job: Job):
                async for record in job.stream():
                    order.append((job.job_id, record.seed, record.job_id))

            consumers = asyncio.gather(consume(job_a), consume(job_b))
            # Force a cross-job interleaving: a1 → b1 → a2 → b2.
            for seed in (1, 11, 2, 12):
                gate.release(seed)
            await asyncio.wait_for(consumers, WAIT)
            result_a = await job_a.result()
            result_b = await job_b.result()

        # Every record carries its own job's id — no cross-talk.
        assert all(job_id == rec_job for job_id, _, rec_job in order)
        # Per-job seed ordering is preserved regardless of interleave.
        assert [s for j, s, _ in order if j == job_a.job_id] == seeds_a
        assert [s for j, s, _ in order if j == job_b.job_id] == seeds_b
        # And the payloads match the jobs.
        assert [r.seed for r in result_a.telemetry.runs] == seeds_a
        assert [r.seed for r in result_b.telemetry.runs] == seeds_b


class TestAdmissionControl:
    async def test_submit_backpressure_blocks_at_capacity(
        self, small_instance, monkeypatch
    ):
        gate = Gate(monkeypatch)
        options = serial_options(max_pending_jobs=1)
        async with AnnealingService(options) as service:
            job1 = await service.submit(SolveRequest.build(small_instance, [1]))
            # Capacity 1: the second submit must block until job1 ends.
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    service.submit(SolveRequest.build(small_instance, [2])),
                    timeout=0.2,
                )
            gate.release_all()
            await asyncio.wait_for(job1.result(), WAIT)
            job2 = await asyncio.wait_for(
                service.submit(SolveRequest.build(small_instance, [2])), WAIT
            )
            await asyncio.wait_for(job2.result(), WAIT)
        assert job2.state is JobState.DONE

    async def test_per_job_inflight_cap_limits_dispatch_wave(
        self, small_instance, monkeypatch
    ):
        gate = Gate(monkeypatch)
        request = SolveRequest.build(
            small_instance,
            [1, 2, 3],
            options=serial_options(max_inflight_per_job=1),
        )
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(request)
            stream = job.stream()
            gate.release(1)
            first = await asyncio.wait_for(stream.__anext__(), WAIT)
            assert first.seed == 1
            gate.release_all()
            rest = [r.seed async for r in stream]
        assert rest == [2, 3]


class TestShutdown:
    async def test_drain_finishes_admitted_jobs(self, instance):
        service = AnnealingService(serial_options())
        job = await service.submit(SolveRequest.build(instance, [1, 2]))
        await service.shutdown(drain=True)
        assert job.done and job.state is JobState.DONE
        assert (await job.result()).n_runs == 2

    async def test_submit_after_shutdown_rejected(self, instance):
        service = AnnealingService(serial_options())
        await service.start()
        await service.shutdown()
        with pytest.raises(AnnealerError, match="shut down"):
            await service.submit(SolveRequest.build(instance, [1]))

    async def test_cancel_shutdown_stops_dispatch(
        self, small_instance, monkeypatch
    ):
        gate = Gate(monkeypatch)
        service = AnnealingService(serial_options())
        job = await service.submit(SolveRequest.build(small_instance, [1, 2]))
        stream = job.stream()
        gate.release(1)
        first = await asyncio.wait_for(stream.__anext__(), WAIT)
        assert first.seed == 1
        shutdown = asyncio.create_task(service.shutdown(drain=False))
        gate.release_all()
        await asyncio.wait_for(shutdown, WAIT)
        assert job.state is JobState.CANCELLED
        with pytest.raises(AnnealerError, match="cancelled"):
            await job.result()
        # The stream terminated cleanly at cancellation.
        assert [r.seed async for r in stream] == []

    async def test_job_cancel_mid_run(self, small_instance, monkeypatch):
        gate = Gate(monkeypatch)
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(
                SolveRequest.build(small_instance, [1, 2])
            )
            stream = job.stream()
            gate.release(1)
            await asyncio.wait_for(stream.__anext__(), WAIT)
            job.cancel()
            gate.release_all()
            with pytest.raises(AnnealerError, match="cancelled"):
                await asyncio.wait_for(job.result(), WAIT)
        assert job.state is JobState.CANCELLED
        assert len(job.records) == 1  # seed 2 never dispatched


class TestDeadlines:
    async def test_deadline_expires_mid_run(
        self, small_instance, monkeypatch
    ):
        from repro.errors import DeadlineExceededError

        gate = Gate(monkeypatch)
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(
                SolveRequest.build(small_instance, [1, 2], deadline_s=0.1)
            )
            # Hold every seed shut until the watchdog has fired, then
            # open the gates: the solve observes the cancel event and
            # the job fails with the deadline error, not a hang.
            await asyncio.sleep(0.3)
            gate.release_all()
            with pytest.raises(DeadlineExceededError, match="deadline"):
                await asyncio.wait_for(job.result(), WAIT)
        assert job.state is JobState.FAILED

    async def test_generous_deadline_completes(self, small_instance):
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(
                SolveRequest.build(small_instance, [1, 2], deadline_s=WAIT)
            )
            result = await asyncio.wait_for(job.result(), WAIT)
        assert job.state is JobState.DONE
        assert result.n_runs == 2

    async def test_deadline_spent_in_admission_queue_rejects(
        self, small_instance, monkeypatch
    ):
        from repro.errors import DeadlineExceededError

        gate = Gate(monkeypatch)
        options = serial_options(max_pending_jobs=1)
        async with AnnealingService(options) as service:
            job1 = await service.submit(SolveRequest.build(small_instance, [1]))
            # Capacity 1: the second submit waits in admission while
            # its whole end-to-end budget drains away.
            submit2 = asyncio.create_task(
                service.submit(
                    SolveRequest.build(small_instance, [2], deadline_s=0.1)
                )
            )
            await asyncio.sleep(0.3)
            gate.release_all()
            await asyncio.wait_for(job1.result(), WAIT)
            with pytest.raises(DeadlineExceededError, match="admission"):
                await asyncio.wait_for(submit2, WAIT)

    def test_non_positive_deadline_rejected(self, small_instance):
        with pytest.raises(AnnealerError, match="deadline_s"):
            SolveRequest.build(small_instance, [1], deadline_s=0.0)
        with pytest.raises(AnnealerError, match="deadline_s"):
            SolveRequest.build(small_instance, [1], deadline_s=-1.0)


class TestFailureSurfacing:
    async def test_strict_failure_fails_job(self, instance, monkeypatch):
        def always_fails(backend, plan, seed):
            raise RuntimeError("permanent")

        monkeypatch.setattr(ClusterCIMBackend, "solve", always_fails)
        request = SolveRequest.build(
            instance, [1], options=serial_options(strict=True, max_retries=0)
        )
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(request)
            with pytest.raises(AnnealerError, match="failed after"):
                await asyncio.wait_for(job.result(), WAIT)
        assert job.state is JobState.FAILED

    async def test_all_failed_non_strict_fails_job(
        self, instance, monkeypatch
    ):
        def always_fails(backend, plan, seed):
            raise RuntimeError("permanent")

        monkeypatch.setattr(ClusterCIMBackend, "solve", always_fails)
        request = SolveRequest.build(
            instance, [1, 2], options=serial_options(max_retries=0)
        )
        async with AnnealingService(serial_options()) as service:
            job = await service.submit(request)
            with pytest.raises(AnnealerError, match="all 2 ensemble runs"):
                await asyncio.wait_for(job.result(), WAIT)
        # Failed runs still streamed their telemetry.
        assert [r.ok for r in job.records] == [False, False]

    async def test_solve_ensemble_refuses_to_block_the_loop(self, instance):
        with pytest.raises(AnnealerError, match="event loop"):
            solve_ensemble(instance, [1])

    async def test_breaker_fails_job_without_poisoning_sibling(
        self, instance, monkeypatch
    ):
        # Seeds below 100 fail terminally; the faulting job's breaker
        # trips after 2 consecutive failures and fails fast, while the
        # sibling job on the same service completes untouched.
        real = ClusterCIMBackend.solve

        def low_seeds_fail(backend, plan, seed):
            if seed < 100:
                raise RuntimeError("persistent fault")
            return real(backend, plan, seed)

        monkeypatch.setattr(ClusterCIMBackend, "solve", low_seeds_fail)
        faulty = SolveRequest.build(
            instance,
            [1, 2, 3, 4, 5],
            options=serial_options(
                max_retries=0, breaker_threshold=2, backoff_base_s=0.0
            ),
            tag="faulty",
        )
        healthy = SolveRequest.build(
            instance,
            [101, 102],
            options=serial_options(backoff_base_s=0.0),
            tag="healthy",
        )
        async with AnnealingService(serial_options()) as service:
            job_faulty = await service.submit(faulty)
            job_healthy = await service.submit(healthy)
            with pytest.raises(AnnealerError, match="circuit breaker open"):
                await asyncio.wait_for(job_faulty.result(), WAIT)
            result = await asyncio.wait_for(job_healthy.result(), WAIT)
        assert job_faulty.state is JobState.FAILED
        # Fail-fast: only the first two seeds burned attempts.
        assert [r.seed for r in job_faulty.records] == [1, 2]
        assert job_healthy.state is JobState.DONE
        assert result.n_runs == 2 and all(r.ok for r in job_healthy.records)


class TestSharedPool:
    async def test_two_jobs_one_pool_stream_and_match_serial(self, instance):
        """Acceptance: two concurrent jobs on one shared pool stream
        telemetry incrementally and produce bit-identical results."""
        seeds_a, seeds_b = [31, 32, 33], [41, 42]
        options = EnsembleOptions(max_workers=2)
        # One seed in flight per job: each job's records then arrive a
        # solve apart, so no job can finish inside one loop iteration
        # before the consumers see its first record.
        one_at_a_time = EnsembleOptions(max_inflight_per_job=1)
        async with AnnealingService(options) as service:
            job_a = await service.submit(
                SolveRequest.build(instance, seeds_a, options=one_at_a_time)
            )
            job_b = await service.submit(
                SolveRequest.build(instance, seeds_b, options=one_at_a_time)
            )
            events = []

            async def consume(job: Job):
                async for record in job.stream():
                    events.append(
                        {
                            "job": job.job_id,
                            "record": record,
                            "a_done": job_a.done,
                            "b_done": job_b.done,
                        }
                    )

            await asyncio.wait_for(
                asyncio.gather(consume(job_a), consume(job_b)), WAIT
            )
            result_a = await job_a.result()
            result_b = await job_b.result()

        # Incremental: the first record was observed while both
        # ensembles were still in flight.
        first = events[0]
        assert not first["a_done"] and not first["b_done"]
        # Both pools of records are complete and uncontaminated.
        by_job = {job_a.job_id: [], job_b.job_id: []}
        for ev in events:
            assert ev["record"].job_id == ev["job"]
            by_job[ev["job"]].append(ev["record"].seed)
        assert by_job[job_a.job_id] == seeds_a
        assert by_job[job_b.job_id] == seeds_b

        # Bit-identical to the serial solve_ensemble path.
        for served, seeds in ((result_a, seeds_a), (result_b, seeds_b)):
            serial = await solve_serial(instance, seeds)
            assert [r.length for r in served.results] == [
                r.length for r in serial.results
            ]
            assert all(
                np.array_equal(x.tour, y.tour)
                for x, y in zip(served.results, serial.results)
            )
        assert result_a.telemetry.max_workers == 2


class TestOnePoolOwner:
    """Every job on a service shares its one pool: one build, one heal
    budget and one hung-slot count for the service's lifetime."""

    async def test_spent_budget_sends_later_jobs_serial(
        self, small_instance, monkeypatch
    ):
        built = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", CountingPool
        )
        retry = dict(max_retries=2, backoff_base_s=0.0)
        broken = FaultPlan(seed=4, broken_pool_rate=1.0)
        options = EnsembleOptions(max_workers=2, self_heal_budget=0)
        async with AnnealingService(options) as service:
            first = await service.submit(
                SolveRequest.build(
                    small_instance,
                    [1, 2],
                    config=CHEAP,
                    options=EnsembleOptions(fault_plan=broken, **retry),
                )
            )
            await asyncio.wait_for(first.result(), WAIT)
            later = []
            for seed in (3, 4, 5):
                job = await service.submit(
                    SolveRequest.build(
                        small_instance,
                        [seed],
                        config=CHEAP,
                        options=EnsembleOptions(**retry),
                    )
                )
                later.append(await asyncio.wait_for(job.result(), WAIT))
        # The broken pool spent the budget of 0 and stays down: later
        # jobs run serially instead of each building a private pool.
        assert [r.telemetry.mode for r in later] == ["serial-fallback"] * 3
        assert len(built) == 1
        assert service.pool_rebuilds == 0

    async def test_hung_slots_count_across_jobs(self, small_instance):
        hang = FaultPlan(seed=2, hang_rate=1.0, hang_s=2.0)
        timeouts = dict(timeout_s=0.5, max_retries=1, backoff_base_s=0.0)
        async with AnnealingService(EnsembleOptions(max_workers=2)) as service:
            hung = [
                await service.submit(
                    SolveRequest.build(
                        small_instance,
                        [seed],
                        config=CHEAP,
                        options=EnsembleOptions(fault_plan=hang, **timeouts),
                        tag="hung",
                    )
                )
                for seed in (1, 2)
            ]
            for job in hung:
                await asyncio.wait_for(job.result(), WAIT)
            # Each job left one hung slot; together they starve the
            # 2-worker pool, so the next job heals it before dispatch
            # instead of timing out behind the hung workers.
            clean = await service.submit(
                SolveRequest.build(
                    small_instance,
                    [3, 4, 5, 6],
                    config=CHEAP,
                    options=EnsembleOptions(**timeouts),
                    tag="clean",
                )
            )
            result = await asyncio.wait_for(clean.result(), WAIT)
        runs = result.telemetry.runs
        assert [r.retries for r in runs] == [0, 0, 0, 0]
        assert all(r.worker.startswith("pool@") for r in runs)
