"""Public API stability: everything advertised in __all__ exists."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.tsp",
    "repro.tsp.baselines",
    "repro.ising",
    "repro.clustering",
    "repro.sram",
    "repro.cim",
    "repro.annealer",
    "repro.backends",
    "repro.runtime",
    "repro.gateway",
    "repro.hardware",
    "repro.analysis",
    "repro.maxcut",
    "repro.problems",
    "repro.utils",
]


class TestPublicAPI:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_resolve(self, package):
        mod = importlib.import_module(package)
        assert hasattr(mod, "__all__"), f"{package} lacks __all__"
        for name in mod.__all__:
            assert hasattr(mod, name), f"{package}.{name} missing"

    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.4.0"

    def test_version_single_sourced(self):
        # pyproject.toml reads the version from repro.__version__.
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            meta = tomllib.load(fh)
        assert "version" not in meta["project"]
        assert meta["project"]["dynamic"] == ["version"]
        dynamic = meta["tool"]["setuptools"]["dynamic"]
        assert dynamic["version"] == {"attr": "repro.__version__"}

    def test_headline_workflow_importable_from_root(self):
        # The README quickstart must work from the root namespace alone.
        from repro import (
            AnnealerConfig,
            ClusteredCIMAnnealer,
            evaluate_ppa,
            random_uniform,
        )

        assert callable(evaluate_ppa)
        assert callable(random_uniform)
        assert ClusteredCIMAnnealer(AnnealerConfig(seed=0)) is not None

    def test_runtime_surface_pinned(self):
        # The serving runtime's public surface is exactly this; executor
        # internals (_solve_unit, the dispatch loops) stay private.
        import repro.runtime as runtime

        assert sorted(runtime.__all__) == [
            "AnnealingService",
            "Backoff",
            "CircuitBreaker",
            "CircuitOpenError",
            "EnsembleExecutor",
            "EnsembleOptions",
            "EnsembleTelemetry",
            "FaultInjector",
            "FaultKind",
            "FaultPlan",
            "InjectedFault",
            "Job",
            "JobState",
            "ResultIntegrityError",
            "RunTelemetry",
            "SolveRequest",
            "WorkerPool",
            "solve_async",
            "solve_sync",
        ]
        assert "_solve_unit" not in runtime.__all__

    def test_gateway_surface_pinned(self):
        # The gateway's public surface is exactly this; the HTTP
        # plumbing (_read_request, _send_json, _SSEAssembler) stays
        # private.
        import repro.gateway as gateway

        assert sorted(gateway.__all__) == [
            "AsyncGatewayClient",
            "GatewayClient",
            "GatewayHTTPError",
            "GatewayOverloadedError",
            "GatewayServer",
            "GatewayUnavailableError",
            "ProtocolError",
            "ShardRouter",
            "UnknownJobError",
            "decode_solve_request",
            "encode_solve_request",
            "parse_telemetry_frame",
        ]

    def test_backends_surface_pinned(self):
        # The registry's public surface is exactly this; registrant
        # modules stay private (imported for their side effect only).
        import repro.backends as backends

        assert sorted(backends.__all__) == [
            "BackendCapabilities",
            "BackendPlan",
            "BackendRunResult",
            "DEFAULT_BACKEND",
            "ProblemLike",
            "SolverBackend",
            "list_backends",
            "problem_kind",
            "register_backend",
            "resolve_backend",
        ]
        assert backends.DEFAULT_BACKEND == "cluster-cim"
        assert backends.list_backends() == (
            "cluster-cim",
            "dense-ising",
            "maxcut-sb",
            "simcim",
        )

    def test_backend_registry_importable_from_root(self):
        from repro import DEFAULT_BACKEND, list_backends, resolve_backend

        assert DEFAULT_BACKEND in list_backends()
        impl = resolve_backend(DEFAULT_BACKEND)
        assert impl.capabilities().accepts_config

    def test_serving_types_importable_from_root(self):
        from repro import (
            AnnealingService,
            EnsembleOptions,
            Job,
            JobState,
            SolveRequest,
        )

        assert callable(AnnealingService)
        assert callable(SolveRequest.build)
        assert EnsembleOptions().max_workers == 1
        assert JobState.PENDING.value == "pending"
        assert Job is not None

    def test_error_hierarchy_rooted(self):
        from repro import ReproError
        from repro.errors import (
            AnnealerError,
            CIMError,
            ClusteringError,
            ConfigError,
            GatewayError,
            HardwareModelError,
            IsingError,
            SRAMError,
            TSPError,
        )

        for exc in (
            TSPError,
            ClusteringError,
            IsingError,
            CIMError,
            SRAMError,
            HardwareModelError,
            AnnealerError,
            ConfigError,
            GatewayError,
        ):
            assert issubclass(exc, ReproError)

    def test_gateway_errors_rooted(self):
        # Wire-facing errors stay catchable both as gateway errors and
        # at the library-wide root.
        from repro.errors import GatewayError, ReproError
        from repro.gateway import (
            GatewayHTTPError,
            GatewayOverloadedError,
            GatewayUnavailableError,
            ProtocolError,
            UnknownJobError,
        )

        for exc in (
            ProtocolError,
            GatewayOverloadedError,
            GatewayUnavailableError,
            UnknownJobError,
            GatewayHTTPError,
        ):
            assert issubclass(exc, GatewayError)
            assert issubclass(exc, ReproError)
