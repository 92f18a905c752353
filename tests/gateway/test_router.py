"""The gateway router: one service, non-blocking admission, metrics."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import GatewayError
from repro.gateway.router import (
    GatewayOverloadedError,
    ShardRouter,
    UnknownJobError,
)
from repro.runtime.options import EnsembleOptions
from repro.runtime.service import Job


class TestRouterLifecycle:
    async def test_service_started_and_ready(self):
        async with ShardRouter() as router:
            assert router.service.started
            assert router.ready

    async def test_shutdown_stops_the_service(self):
        router = ShardRouter()
        await router.start()
        await router.shutdown()
        assert not router.service.started
        assert not router.ready
        with pytest.raises(GatewayError, match="shut down"):
            await router.submit(None)  # rejected before type checks

    async def test_submit_autostarts(self, make_request):
        router = ShardRouter()
        try:
            job = await router.submit(make_request((1,)))
            assert (await job.result()).n_runs == 1
        finally:
            await router.shutdown()


class TestRouting:
    async def test_job_ids_unique(self, make_request):
        async with ShardRouter() as router:
            jobs = [await router.submit(make_request((s,))) for s in range(4)]
            ids = [j.job_id for j in jobs]
            assert len(set(ids)) == 4
            assert ids == ["t-0001", "t-0002", "t-0003", "t-0004"]
            for job in jobs:
                await job.result()

    async def test_worker_records_carry_job_id(self, make_request):
        async with ShardRouter() as router:
            job = await router.submit(make_request((1, 2)))
            await job.result()
            assert len(job.records) == 2
            for record in job.records:
                assert record.job_id == job.job_id
                assert record.worker == f"serial@{job.job_id}"

    async def test_get_returns_routed_job(self, make_request):
        async with ShardRouter() as router:
            job = await router.submit(make_request((1,)))
            assert router.get(job.job_id) is job
            # The handle is the service's own job, not a wrapper.
            assert type(job) is Job
            await job.result()

    async def test_get_unknown_job_raises(self):
        async with ShardRouter() as router:
            with pytest.raises(UnknownJobError, match="nope"):
                router.get("nope")


class TestBackpressure:
    async def test_full_service_rejects(self, make_request):
        # A 1-slot admission holding one job that cannot settle until
        # the loop runs again: the next submit must reject, not queue.
        options = EnsembleOptions(max_pending_jobs=1)
        async with ShardRouter(options) as router:
            first = await router.submit(make_request((1,)))
            if not router.service.at_capacity:
                pytest.skip("job settled before overload could be observed")
            with pytest.raises(GatewayOverloadedError, match="at capacity"):
                await router.submit(make_request((2,)))
            metrics = router.metrics()
            assert metrics["jobs_rejected"] == 1
            await first.result()

    async def test_capacity_frees_after_settle(self, make_request):
        options = EnsembleOptions(max_pending_jobs=1)
        async with ShardRouter(options) as router:
            job = await router.submit(make_request((1,)))
            await job.result()
            # The admission slot is released via the settle callback;
            # yield until the router sees it.
            for _ in range(100):
                if not router.service.at_capacity:
                    break
                await asyncio.sleep(0.01)
            replacement = await router.submit(make_request((2,)))
            assert (await replacement.result()).n_runs == 1


class TestMetrics:
    async def test_metrics_shape_and_counts(self, make_request):
        async with ShardRouter() as router:
            jobs = [
                await router.submit(make_request((30 + i,))) for i in range(3)
            ]
            for job in jobs:
                await job.result()
            metrics = router.metrics()
            assert metrics["schema"] == "repro.gateway_metrics/v1"
            assert metrics["workers"] == 1
            assert metrics["jobs_submitted"] == 3
            assert metrics["jobs_rejected"] == 0
            assert metrics["pool_rebuilds"] == 0
            assert metrics["states"] == {"done": 3}
            assert metrics["faults_by_kind"] == {}
            # Kept for benchmarks/perf, which reads them.
            assert metrics["failovers"] == 0
            assert metrics["per_shard"] == [{"jobs": 3}]

    async def test_metrics_count_jobs_by_backend(self, make_request):
        from repro.ising.simcim import random_ising_model
        from repro.runtime.options import SolveRequest

        async with ShardRouter() as router:
            jobs = [await router.submit(make_request((i,))) for i in range(2)]
            spin_glass = SolveRequest.build(
                random_ising_model(8, seed=1), (5,), backend="simcim"
            )
            jobs.append(await router.submit(spin_glass))
            for job in jobs:
                await job.result()
            metrics = router.metrics()
            assert metrics["jobs_by_backend"] == {
                "cluster-cim": 2,
                "simcim": 1,
            }

    async def test_backend_counter_absent_until_first_submit(self):
        async with ShardRouter() as router:
            assert router.metrics()["jobs_by_backend"] == {}
            assert router.metrics()["jobs_by_problem_kind"] == {}

    async def test_metrics_count_jobs_by_problem_kind(self, make_request):
        from repro.problems import make_problem
        from repro.runtime.options import SolveRequest

        async with ShardRouter() as router:
            jobs = [await router.submit(make_request((i,))) for i in range(2)]
            for family, backend in (
                ("coloring", "cluster-cim"),
                ("maxsat", "simcim"),
            ):
                qubo = make_problem(family, 6, seed=0).to_qubo()
                jobs.append(
                    await router.submit(
                        SolveRequest.build(qubo, (3,), backend=backend)
                    )
                )
            for job in jobs:
                await job.result()
            metrics = router.metrics()
            assert metrics["jobs_by_problem_kind"] == {
                "qubo": 2,
                "tsp": 2,
            }

    async def test_metrics_aggregate_injected_faults(self, make_request):
        from repro.runtime.faults import FaultPlan

        options = EnsembleOptions(
            max_retries=2,
            backoff_base_s=0.0,
            fault_plan=FaultPlan(seed=11, crash_rate=1.0, max_faults_per_run=1),
        )
        async with ShardRouter() as router:
            job = await router.submit(
                make_request((1, 2, 3), options=options)
            )
            await job.result()
            metrics = router.metrics()
            assert metrics["faults_by_kind"].get("crash", 0) == 3
            assert metrics["states"].get("done") == 1
