"""Pool-level chaos through the gateway.

The gateway solves in its service's one worker pool, and the pool is
where faults are absorbed: a worker that dies takes the pool down, the
pool heals within its budget, and the affected seeds are retried.  A
client of the gateway must not see any of it: every seed streams
exactly once and the result is bit-identical to a fault-free
in-process solve.
"""

from __future__ import annotations

import asyncio
from typing import List

import pytest

from repro.annealer.batch import solve_ensemble
from repro.annealer.config import AnnealerConfig
from repro.gateway import AsyncGatewayClient, GatewayServer, ShardRouter
from repro.ising.schedule import VddSchedule
from repro.runtime.faults import FaultPlan
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.runtime.telemetry import RunTelemetry
from repro.tsp.generators import random_clustered

pytestmark = pytest.mark.chaos

#: Generous guard so a bug hangs a test, not the whole suite.
WAIT = 120.0

SEEDS = tuple(range(1, 17))

#: Seed 12's first attempt kills its worker process; seeds 3, 4 and 6
#: crash on their first attempt.  Retries are clean.
PLAN = FaultPlan(seed=8, crash_rate=0.15, broken_pool_rate=0.1)

CHEAP = AnnealerConfig(
    schedule=VddSchedule(total_iterations=40, iterations_per_step=10)
)


def _request(options: EnsembleOptions) -> SolveRequest:
    instance = random_clustered(40, n_clusters=4, seed=5)
    return SolveRequest.build(
        instance, SEEDS, config=CHEAP, options=options, tag="chaos"
    )


async def test_worker_death_mid_stream_is_invisible_to_the_client():
    scheduled = {
        seed: PLAN.faults_for_run(seed, 1)
        for seed in SEEDS
        if PLAN.faults_for_run(seed, 1)
    }
    assert scheduled == {
        3: ("crash",),
        4: ("crash",),
        6: ("crash",),
        12: ("broken-pool",),
    }
    faulty = _request(
        EnsembleOptions(max_retries=2, backoff_base_s=0.0, fault_plan=PLAN)
    )
    local = await asyncio.to_thread(solve_ensemble, _request(EnsembleOptions()))

    router = ShardRouter(EnsembleOptions(max_workers=2))
    async with GatewayServer(router) as server:
        client = AsyncGatewayClient(server.url)
        handle = await client.submit(faulty)
        job_id = str(handle["job_id"])

        async def subscribe() -> List[RunTelemetry]:
            return [record async for record in client.stream(job_id)]

        streamed = await asyncio.wait_for(subscribe(), WAIT)
        result = await asyncio.wait_for(client.result(job_id), WAIT)
        metrics = await client.metrics()

    # Exactly one SSE frame per seed, every one a success.
    assert sorted(r.seed for r in streamed) == list(SEEDS)
    assert all(r.ok for r in streamed)
    # Bit-identical to the fault-free in-process ensemble.
    assert result["state"] == "done"
    assert result["seeds"] == list(SEEDS)
    assert result["lengths"] == [r.length for r in local.results]
    assert result["tours"] == [[int(c) for c in r.tour] for r in local.results]
    # The worker death broke the pool and the pool healed.
    assert metrics["pool_rebuilds"] >= 1
    assert result["telemetry"]["pool_rebuilds"] >= 1
    assert metrics["faults_by_kind"].get("broken-pool") == 1
    assert metrics["faults_by_kind"].get("crash") == 3
