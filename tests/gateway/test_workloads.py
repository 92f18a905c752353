"""End-to-end QUBO workloads through the gateway router.

Every registered problem family travels the full serving path —
``make_problem`` → ``to_qubo`` → :class:`SolveRequest` →
:class:`ShardRouter` → backend kernel → decoded, feasibility-checked
solution — and the whole trip is deterministic per seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import resolve_backend
from repro.errors import AnnealerError
from repro.gateway.router import ShardRouter
from repro.problems import list_families, make_problem
from repro.runtime.options import SolveRequest

FAMILY_BACKENDS = [
    ("coloring", "cluster-cim"),
    ("knapsack", "dense-ising"),
    ("maxsat", "simcim"),
]


def family_request(family, backend, *, seeds=(11,), size=8, tag="wl"):
    problem = make_problem(family, size, seed=3)
    return problem, SolveRequest.build(
        problem.to_qubo(), seeds, tag=tag, backend=backend
    )


async def routed_best(router, request):
    job = await router.submit(request)
    result = await job.result()
    return result.best


class TestFamiliesEndToEnd:
    @pytest.mark.parametrize("family,backend", FAMILY_BACKENDS)
    async def test_solve_decode_validate(self, family, backend):
        problem, request = family_request(family, backend)
        async with ShardRouter() as router:
            best = await routed_best(router, request)
        bits = np.asarray(best.tour, dtype=np.float64)
        assert bits.shape == (problem.to_qubo().n_vars,)
        # The reported objective is the recomputed QUBO energy.
        assert best.length == pytest.approx(
            problem.to_qubo().energy(bits), abs=1e-9
        )
        # Per-step op history survives the worker-pool boundary.
        assert best.ops["macs"] > 0
        assert best.history is not None
        assert best.history.n_records >= 2
        assert best.history.final_totals() == best.ops
        # Family decode of the routed bits is palette/range-valid.
        decoded = problem.decode(bits)
        problem.validate(decoded)
        assert np.isfinite(problem.objective(decoded))

    @pytest.mark.parametrize("family,backend", FAMILY_BACKENDS)
    async def test_same_seed_bit_identical(self, family, backend):
        problem, request = family_request(family, backend)
        async with ShardRouter() as router:
            first = await routed_best(router, request)
            again = await routed_best(router, request)
        np.testing.assert_array_equal(first.tour, again.tour)
        assert first.length == again.length
        assert first.ops == again.ops
        np.testing.assert_array_equal(
            problem.decode(np.asarray(first.tour, dtype=np.float64)),
            problem.decode(np.asarray(again.tour, dtype=np.float64)),
        )

    async def test_ensemble_ratios_use_backend_reference(self):
        problem, request = family_request(
            "coloring", "cluster-cim", seeds=(1, 2, 3)
        )
        backend = resolve_backend("cluster-cim")
        async with ShardRouter() as router:
            job = await router.submit(request)
            result = await job.result()
        assert result.n_runs == 3
        # The service computes the reference from the first seed.
        assert result.reference == pytest.approx(
            backend.reference(problem.to_qubo(), 1)
        )
        assert all(np.isfinite(r) for r in result.ratios)

    async def test_qubo_with_config_rejected_before_routing(self, fast_config):
        problem = make_problem("knapsack", 6, seed=0)
        with pytest.raises(AnnealerError, match="do not take an AnnealerConfig"):
            SolveRequest.build(
                problem.to_qubo(), (1,), config=fast_config, backend="cluster-cim"
            )
