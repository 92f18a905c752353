"""End-to-end HTTP/SSE gateway tests.

Two harnesses:

* most tests run server and :class:`AsyncGatewayClient` on the *same*
  event loop (every await lets the server make progress);
* the acceptance test runs the server on a background thread and
  drives it with the blocking :class:`GatewayClient` — the exact
  topology of ``repro serve`` + ``repro submit --url``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Optional

import pytest

from repro.annealer.batch import solve_ensemble
from repro.gateway import (
    AsyncGatewayClient,
    GatewayClient,
    GatewayHTTPError,
    GatewayServer,
    ShardRouter,
)
from repro.runtime.options import EnsembleOptions


class _GatewayThread:
    """A live gateway on a background thread (blocking-client tests)."""

    def __init__(
        self,
        shards: int = 2,
        policy: str = "round-robin",
        options: Optional[EnsembleOptions] = None,
    ) -> None:
        self._router_args = (options, shards, policy)
        self.url = ""
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        options, shards, policy = self._router_args
        router = ShardRouter(options, shards=shards, policy=policy)
        async with GatewayServer(router) as server:
            self.url = server.url
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()

    def __enter__(self) -> "_GatewayThread":
        self._thread.start()
        assert self._ready.wait(timeout=30), "gateway failed to start"
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)


class TestEndToEnd:
    def test_http_result_bit_identical_to_in_process(self, make_request):
        """The acceptance bar: a TSP request submitted over HTTP to a
        2-shard gateway streams its frames and returns the same
        seed-ordered tours as an in-process solve_ensemble."""
        request = make_request((3, 1, 2), tag="e2e")
        local = solve_ensemble(request)
        with _GatewayThread(shards=2) as gateway:
            client = GatewayClient(gateway.url)
            handle = client.submit(request)
            assert handle["schema"] == "repro.job/v1"
            assert handle["shard"] in ("shard0", "shard1")
            job_id = str(handle["job_id"])
            assert job_id.startswith("e2e-")

            streamed = list(client.stream(job_id))
            assert sorted(r.seed for r in streamed) == [1, 2, 3]
            for record in streamed:
                assert record.ok
                assert record.shard == handle["shard"]
                assert record.job_id == job_id

            result = client.result(job_id)
        assert result["schema"] == "repro.job_result/v1"
        assert result["state"] == "done"
        # Seed order on the wire is the request's seed order.
        assert result["seeds"] == [3, 1, 2]
        assert result["lengths"] == [r.length for r in local.results]
        assert result["tours"] == [list(r.tour) for r in local.results]
        assert result["best"]["length"] == local.best.length
        assert result["reference"] == local.reference
        stats = result["ratio_stats"]
        assert stats["mean"] == pytest.approx(local.ratio_stats.mean)

    def test_stream_replays_after_completion(self, make_request):
        with _GatewayThread(shards=2) as gateway:
            client = GatewayClient(gateway.url)
            handle = client.submit(make_request((7, 8)))
            job_id = str(handle["job_id"])
            client.result(job_id)  # wait for completion first
            late = list(client.stream(job_id))  # then subscribe
            assert sorted(r.seed for r in late) == [7, 8]

    def test_solve_convenience_round_trip(self, make_request):
        with _GatewayThread(shards=1) as gateway:
            result = GatewayClient(gateway.url).solve(make_request((5,)))
            assert result["seeds"] == [5]

    def test_metrics_reflect_submissions(self, make_request):
        with _GatewayThread(shards=2) as gateway:
            client = GatewayClient(gateway.url)
            handle = client.submit(make_request((1,)))
            client.result(str(handle["job_id"]))
            metrics = client.metrics()
        assert metrics["schema"] == "repro.gateway_metrics/v1"
        assert metrics["jobs_submitted"] == 1
        assert sum(s["jobs"] for s in metrics["per_shard"]) == 1


class TestBackendsOverHTTP:
    async def test_all_registered_backends_solve_end_to_end(
        self, make_request
    ):
        """The registry acceptance bar on the wire: one job per
        registered backend submitted over HTTP, every one solving to
        ``done`` and showing up in the per-backend metrics counters."""
        from repro.backends import list_backends
        from repro.ising.simcim import random_ising_model
        from repro.maxcut.generators import gset_style
        from repro.runtime.options import SolveRequest
        from repro.tsp.generators import random_uniform

        requests = {
            "cluster-cim": make_request((1,)),
            "dense-ising": SolveRequest.build(
                random_uniform(10, seed=5), (1,), backend="dense-ising"
            ),
            "maxcut-sb": SolveRequest.build(
                gset_style(20, seed=3), (1,), backend="maxcut-sb"
            ),
            "simcim": SolveRequest.build(
                random_ising_model(12, seed=2), (1,), backend="simcim"
            ),
        }
        assert tuple(sorted(requests)) == list_backends()

        async with GatewayServer(ShardRouter(shards=2)) as server:
            client = AsyncGatewayClient(server.url)
            for name, request in requests.items():
                handle = await client.submit(request)
                result = await client.result(str(handle["job_id"]))
                assert result["state"] == "done", name
                assert result["seeds"] == [1]
                assert len(result["lengths"]) == 1
            metrics = await client.metrics()
        assert metrics["jobs_by_backend"] == {
            name: 1 for name in requests
        }

    async def test_async_submit_backend_override(self, instance):
        # A config-free default request rerouted at submit time: the
        # override rewrites the request client-side, so the job runs —
        # and is counted — under the overriding backend.
        from repro.runtime.options import SolveRequest

        request = SolveRequest.build(instance, (1,))
        async with GatewayServer(ShardRouter(shards=1)) as server:
            client = AsyncGatewayClient(server.url)
            handle = await client.submit(request, backend="dense-ising")
            result = await client.result(str(handle["job_id"]))
            assert result["state"] == "done"
            metrics = await client.metrics()
        assert metrics["jobs_by_backend"] == {"dense-ising": 1}

    async def test_backend_override_validates_client_side(
        self, make_request
    ):
        # make_request carries an AnnealerConfig, which dense-ising
        # refuses — the override must fail before any bytes hit the
        # wire, with the same error a direct SolveRequest.build gives.
        from repro.errors import AnnealerError

        async with GatewayServer(ShardRouter(shards=1)) as server:
            client = AsyncGatewayClient(server.url)
            with pytest.raises(
                AnnealerError, match="does not take an AnnealerConfig"
            ):
                await client.submit(
                    make_request((1,)), backend="dense-ising"
                )
            metrics = await client.metrics()
        assert metrics["jobs_submitted"] == 0

    def test_sync_submit_and_solve_backend_override(self, instance):
        from repro.runtime.options import SolveRequest

        request = SolveRequest.build(instance, (2,))
        with _GatewayThread(shards=1) as gateway:
            client = GatewayClient(gateway.url)
            result = client.solve(request, backend="dense-ising")
            assert result["state"] == "done"
            metrics = client.metrics()
        assert metrics["jobs_by_backend"] == {"dense-ising": 1}


class TestAsyncClient:
    async def test_submit_stream_result_in_loop(self, make_request):
        async with GatewayServer(ShardRouter(shards=2)) as server:
            client = AsyncGatewayClient(server.url)
            handle = await client.submit(make_request((4, 5)))
            job_id = str(handle["job_id"])
            seeds = []
            async for record in client.stream(job_id):
                seeds.append(record.seed)
            assert sorted(seeds) == [4, 5]
            result = await client.result(job_id)
            assert result["seeds"] == [4, 5]

    async def test_least_inflight_spreads_over_http(self, make_request):
        router = ShardRouter(
            EnsembleOptions(max_pending_jobs=8),
            shards=2,
            policy="least-inflight",
        )
        async with GatewayServer(router) as server:
            client = AsyncGatewayClient(server.url)
            handles = [
                await client.submit(make_request((40 + i,)))
                for i in range(4)
            ]
            placements = [h["shard"] for h in handles]
            assert placements.count("shard0") == 2
            assert placements.count("shard1") == 2
            for handle in handles:
                await client.result(str(handle["job_id"]))

    async def test_late_join_sse_replays_full_stream(self, make_request):
        """A subscriber attaching *after* the job finished must get the
        complete replay on the wire: one ``run`` SSE frame per seed (in
        monotonically-increasing ``id:`` order) terminated by exactly
        one ``end`` event carrying the final state — not an empty or
        truncated stream."""
        seeds = (11, 12, 13)
        async with GatewayServer(ShardRouter(shards=1)) as server:
            client = AsyncGatewayClient(server.url)
            handle = await client.submit(make_request(seeds))
            job_id = str(handle["job_id"])
            await client.result(job_id)  # job fully done before we join

            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(
                    f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n\r\n".encode()
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=30)
            finally:
                writer.close()

        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"200 OK" in head.split(b"\r\n", 1)[0]
        assert b"text/event-stream" in head

        frames = []
        for chunk in body.decode("utf-8").split("\r\n\r\n"):
            if not chunk.strip():
                continue
            fields = dict(
                line.split(": ", 1) for line in chunk.split("\r\n")
            )
            frames.append(fields)

        # Full replay: every seed's run frame, then the terminal end.
        assert [f["event"] for f in frames] == ["run"] * len(seeds) + ["end"]
        assert [int(f["id"]) for f in frames] == list(range(len(seeds) + 1))
        records = [json.loads(f["data"]) for f in frames[:-1]]
        assert sorted(r["seed"] for r in records) == sorted(seeds)
        assert all(r["ok"] for r in records)
        end = json.loads(frames[-1]["data"])
        assert end["schema"] == "repro.job_end/v1"
        assert end["job_id"] == job_id
        assert end["state"] == "done"
        assert end["records"] == len(seeds)

    async def test_cancel_mid_stream(self, make_request):
        async with GatewayServer(ShardRouter(shards=1)) as server:
            client = AsyncGatewayClient(server.url)
            handle = await client.submit(make_request(tuple(range(10))))
            job_id = str(handle["job_id"])
            seen = 0
            async for _record in client.stream(job_id):
                seen += 1
                if seen == 1:
                    ack = await client.cancel(job_id)
                    assert ack["schema"] == "repro.job/v1"
            assert seen < 10  # cancellation stopped the tail
            with pytest.raises(GatewayHTTPError) as err:
                await client.result(job_id)
            assert err.value.status == 409
            assert err.value.payload["error"] == "cancelled"


class TestHTTPErrors:
    async def test_unknown_job_404(self):
        async with GatewayServer(ShardRouter(shards=1)) as server:
            client = AsyncGatewayClient(server.url)
            with pytest.raises(GatewayHTTPError) as err:
                await client.result("ghost-0001")
            assert err.value.status == 404
            assert err.value.payload["error"] == "unknown_job"
            # The message carries the server's code and text verbatim:
            # no payload spelunking needed to see what went wrong.
            assert str(err.value).startswith(
                "gateway answered 404: unknown_job:"
            )
            assert "ghost-0001" in str(err.value)

    async def test_unknown_route_404(self):
        async with GatewayServer(ShardRouter(shards=1)) as server:
            status, payload = await _raw_request(
                server, "GET /v2/jobs HTTP/1.1\r\n\r\n"
            )
            assert status == 404
            assert payload["error"] == "not_found"

    async def test_wrong_method_405(self):
        async with GatewayServer(ShardRouter(shards=1)) as server:
            status, payload = await _raw_request(
                server, "PUT /v1/jobs HTTP/1.1\r\n\r\n"
            )
            assert status == 405
            assert payload["error"] == "method_not_allowed"

    async def test_non_json_body_400(self):
        async with GatewayServer(ShardRouter(shards=1)) as server:
            body = "not json"
            status, payload = await _raw_request(
                server,
                f"POST /v1/jobs HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n{body}",
            )
            assert status == 400
            assert payload["error"] == "protocol"

    async def test_schema_violation_400(self, make_request):
        from repro.gateway import encode_solve_request

        async with GatewayServer(ShardRouter(shards=1)) as server:
            wire = encode_solve_request(make_request())
            wire["schema"] = "repro.solve_request/v99"
            body = json.dumps(wire)
            status, payload = await _raw_request(
                server,
                f"POST /v1/jobs HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n{body}",
            )
            assert status == 400
            assert "expected schema" in payload["message"]

    async def test_tag_breaking_job_id_400(self, make_request):
        from repro.gateway import encode_solve_request

        async with GatewayServer(ShardRouter(shards=1)) as server:
            wire = encode_solve_request(make_request())
            # "team/a-0001" would be unreachable under /v1/jobs/<id>.
            wire["tag"] = "team/a"
            body = json.dumps(wire)
            status, payload = await _raw_request(
                server,
                f"POST /v1/jobs HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n{body}",
            )
            assert status == 400
            assert payload["schema"] == "repro.error/v1"
            assert payload["error"] == "protocol"
            assert "tag may use only" in payload["message"]

    async def test_oversized_body_413(self):
        async with GatewayServer(ShardRouter(shards=1)) as server:
            status, payload = await _raw_request(
                server,
                "POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
            )
            assert status == 413
            assert payload["error"] == "too_large"

    async def test_malformed_request_line_400(self):
        async with GatewayServer(ShardRouter(shards=1)) as server:
            status, payload = await _raw_request(server, "GARBAGE\r\n\r\n")
            assert status == 400
            assert "malformed request line" in payload["message"]

    async def test_overload_429(self, make_request):
        router = ShardRouter(
            EnsembleOptions(max_pending_jobs=1), shards=1
        )
        async with GatewayServer(router) as server:
            # submit_retries=0: the default retry policy would wait for
            # the queue to drain and defeat the overload observation.
            client = AsyncGatewayClient(server.url, submit_retries=0)
            first = await client.submit(make_request(tuple(range(5))))
            if not router.shards[0].at_capacity:
                pytest.skip("job settled before overload could be observed")
            with pytest.raises(GatewayHTTPError) as err:
                await client.submit(make_request((99,)))
            assert err.value.status == 429
            assert err.value.payload["error"] == "overloaded"
            assert err.value.payload["retry"] is True
            await client.result(str(first["job_id"]))

    def test_sync_client_maps_status(self, make_request):
        with _GatewayThread(shards=1) as gateway:
            client = GatewayClient(gateway.url)
            with pytest.raises(GatewayHTTPError) as err:
                client.result("ghost-0001")
            assert err.value.status == 404

    def test_sync_client_rejects_non_http_url(self):
        from repro.errors import GatewayError

        with pytest.raises(GatewayError, match="http://"):
            GatewayClient("ftp://example.com")


class TestHealthEndpoints:
    async def test_healthz_alive(self):
        async with GatewayServer(ShardRouter(shards=2)) as server:
            status, payload = await _raw_request(
                server, "GET /healthz HTTP/1.1\r\n\r\n"
            )
        assert status == 200
        assert payload["schema"] == "repro.health/v1"
        assert payload["status"] == "alive"
        assert payload["shards"] == 2

    async def test_readyz_ready_with_healthy_shards(self):
        async with GatewayServer(ShardRouter(shards=2)) as server:
            status, payload = await _raw_request(
                server, "GET /readyz HTTP/1.1\r\n\r\n"
            )
        assert status == 200
        assert payload["schema"] == "repro.health/v1"
        assert payload["status"] == "ready"
        assert payload["shards"] == 2
        assert payload["healthy_shards"] == 2

    async def test_readyz_503_when_every_shard_is_down(self):
        async with GatewayServer(ShardRouter(shards=1)) as server:
            await server.router.shards[0].shutdown(drain=False)
            status, payload = await _raw_request(
                server, "GET /readyz HTTP/1.1\r\n\r\n"
            )
            # Liveness and readiness diverge: the process still
            # answers /healthz while /readyz reports not ready.
            alive_status, alive = await _raw_request(
                server, "GET /healthz HTTP/1.1\r\n\r\n"
            )
        assert status == 503
        assert payload["schema"] == "repro.error/v1"
        assert payload["error"] == "not_ready"
        assert payload["retry"] is True
        assert alive_status == 200
        assert alive["status"] == "alive"

    async def test_health_endpoints_reject_post(self):
        async with GatewayServer(ShardRouter(shards=1)) as server:
            for path in ("/healthz", "/readyz"):
                status, payload = await _raw_request(
                    server, f"POST {path} HTTP/1.1\r\n\r\n"
                )
                assert status == 405
                assert payload["error"] == "method_not_allowed"


async def _raw_request(server: GatewayServer, text: str):
    """Send a raw HTTP request and decode the JSON error response."""
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(text.encode("latin-1"))
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)
