"""Client-side resilience: bounded submit retries and SSE reconnect.

The submit retries ride out a full service (429) and a not-ready
gateway (503); ``stream(..., reconnect=N)`` re-attaches a dropped SSE
connection and deduplicates the frames the replay repeats.  The
reconnect tests drive a stub server, so a dropped stream is exact.
"""

from __future__ import annotations

import asyncio
import json
import socketserver
import threading
from typing import List

import pytest

from repro.errors import GatewayError
from repro.gateway import (
    AsyncGatewayClient,
    GatewayClient,
    GatewayHTTPError,
    GatewayServer,
    ShardRouter,
)
from repro.runtime.options import EnsembleOptions
from repro.runtime.telemetry import RunTelemetry

#: Generous guard so a bug hangs a test, not the whole suite.
WAIT = 60.0


class TestSubmitRetries:
    async def test_async_submit_rides_out_backpressure(self, make_request):
        # One admission slot: the second submission's first
        # attempts bounce with 429 until the first job settles, and
        # the client's bounded backoff absorbs the rejections.
        router = ShardRouter(EnsembleOptions(max_pending_jobs=1))
        async with GatewayServer(router) as server:
            client = AsyncGatewayClient(
                server.url, submit_retries=8, backoff_base_s=0.05
            )
            first = await client.submit(make_request(tuple(range(1, 17))))
            second = await client.submit(make_request((99,), tag="late"))
            for handle in (first, second):
                result = await client.result(str(handle["job_id"]))
                assert result["state"] == "done"

    async def test_zero_retries_surfaces_429_immediately(self, make_request):
        router = ShardRouter(EnsembleOptions(max_pending_jobs=1))
        async with GatewayServer(router) as server:
            client = AsyncGatewayClient(server.url, submit_retries=0)
            first = await client.submit(make_request(tuple(range(1, 17))))
            if not router.service.at_capacity:
                pytest.skip("job settled before overload could be observed")
            with pytest.raises(GatewayHTTPError) as err:
                await client.submit(make_request((99,)))
            assert err.value.status == 429
            await client.result(str(first["job_id"]))

    def test_negative_retries_rejected(self):
        with pytest.raises(GatewayError, match="submit_retries"):
            GatewayClient("http://127.0.0.1:1", submit_retries=-1)
        with pytest.raises(GatewayError, match="submit_retries"):
            AsyncGatewayClient("http://127.0.0.1:1", submit_retries=-1)

    def test_sync_submit_retries_transient_503(self, make_request):
        # A stub gateway that answers 503 twice, then accepts: the
        # blocking client must arrive on attempt 3 with the same body.
        handle = json.dumps(
            {"schema": "repro.job/v1", "job_id": "t-0001", "state": "pending"}
        ).encode("utf-8")
        unavailable = json.dumps(
            {"schema": "repro.error/v1", "error": "unavailable",
             "message": "warming up", "retry": True}
        ).encode("utf-8")
        hits: List[int] = []

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                while self.rfile.readline() not in (b"\r\n", b"\n", b""):
                    pass  # drain request head; body is irrelevant
                hits.append(1)
                if len(hits) < 3:
                    status, body = b"503 Service Unavailable", unavailable
                else:
                    status, body = b"200 OK", handle
                self.wfile.write(
                    b"HTTP/1.1 " + status + b"\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"Connection: close\r\n\r\n" + body
                )

        with socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _Handler
        ) as stub:
            thread = threading.Thread(
                target=stub.serve_forever, daemon=True
            )
            thread.start()
            port = stub.server_address[1]
            client = GatewayClient(
                f"http://127.0.0.1:{port}",
                submit_retries=3,
                backoff_base_s=0.0,
            )
            out = client.submit(make_request((1,)))
            stub.shutdown()
            thread.join(timeout=WAIT)
        assert out["job_id"] == "t-0001"
        assert len(hits) == 3


class TestStreamReconnect:
    @staticmethod
    def _frame(index: int, record: RunTelemetry) -> bytes:
        data = record.to_json_line().strip()
        return f"event: run\r\nid: {index}\r\ndata: {data}\r\n\r\n".encode()

    def _stub(self, connections: List[int]):
        """An SSE stub: first attach drops after two frames (no end),
        later attaches replay all three frames plus the end event."""
        records = [RunTelemetry(seed=s) for s in (1, 2, 3)]

        async def handler(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            while await reader.readline() not in (b"\r\n", b"\n", b""):
                pass
            connections.append(1)
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Connection: close\r\n\r\n"
            )
            count = 2 if len(connections) == 1 else 3
            for i, record in enumerate(records[:count]):
                writer.write(self._frame(i, record))
            if count == 3:
                end = json.dumps({"schema": "repro.job_end/v1"})
                writer.write(
                    f"event: end\r\nid: 3\r\ndata: {end}\r\n\r\n".encode()
                )
            await writer.drain()
            writer.close()

        return handler

    async def test_reconnect_resumes_and_dedups(self):
        connections: List[int] = []
        server = await asyncio.start_server(
            self._stub(connections), "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        try:
            client = AsyncGatewayClient(
                f"http://127.0.0.1:{port}", backoff_base_s=0.0
            )
            seeds = [
                r.seed async for r in client.stream("x-0001", reconnect=2)
            ]
        finally:
            server.close()
            await server.wait_closed()
        # The replayed frames 1 and 2 were deduplicated; the stream
        # ends at the second attach's clean end event.
        assert seeds == [1, 2, 3]
        assert len(connections) == 2

    async def test_reconnect_zero_keeps_silent_eof_contract(self):
        connections: List[int] = []
        server = await asyncio.start_server(
            self._stub(connections), "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        try:
            client = AsyncGatewayClient(f"http://127.0.0.1:{port}")
            seeds = [r.seed async for r in client.stream("x-0001")]
        finally:
            server.close()
            await server.wait_closed()
        # Pre-resilience behavior, preserved at reconnect=0: a dropped
        # stream returns what it got, silently.
        assert seeds == [1, 2]
        assert len(connections) == 1

    async def test_negative_reconnect_rejected(self):
        client = AsyncGatewayClient("http://127.0.0.1:1")
        with pytest.raises(GatewayError, match="reconnect"):
            async for _record in client.stream("x", reconnect=-1):
                pass
