"""Stdlib-only HTTP/SSE front of the serving gateway.

:class:`GatewayServer` exposes a :class:`~repro.gateway.router.
ShardRouter`, the admission front of the gateway's one
:class:`~repro.runtime.service.AnnealingService`, over plain HTTP/1.1
on ``asyncio.start_server`` — no web framework, no third-party
dependency — with a deliberately small surface:

* ``POST /v1/jobs`` — submit a ``repro.solve_request/v1`` body;
  answers ``202`` with a ``repro.job/v1`` handle, or ``429`` when the
  service is at capacity;
* ``GET /v1/jobs/{id}/events`` — Server-Sent Events: one ``run``
  event per completed seed whose ``data:`` line is exactly
  :meth:`RunTelemetry.to_json_line`, replayed from the start for late
  subscribers, terminated by an ``end`` event carrying the job's
  final state;
* ``GET /v1/jobs/{id}`` — long-polls the final seed-ordered
  ``repro.job_result/v1`` (bit-identical to an in-process
  :func:`~repro.annealer.batch.solve_ensemble` of the same request);
* ``DELETE /v1/jobs/{id}`` — cooperative cancellation;
* ``GET /metrics`` — gateway counters (``repro.gateway_metrics/v1``);
* ``GET /healthz`` — process liveness (always ``200`` while the
  socket answers);
* ``GET /readyz`` — readiness: ``200`` while the service is started
  and its worker pool is not spent, ``503`` with a ``repro.error/v1``
  body otherwise.

Every non-2xx body is a ``repro.error/v1`` document.  Connections are
one-request (``Connection: close``): the server is a test/benchmark
harness and a reference wire format, not a hardened internet-facing
proxy.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import DeadlineExceededError, GatewayError, ReproError
from repro.gateway.protocol import (
    END_SCHEMA,
    ProtocolError,
    decode_solve_request,
    encode_job_result,
    error_payload,
    health_payload,
    job_payload,
)
from repro.gateway.router import (
    GatewayOverloadedError,
    GatewayUnavailableError,
    ShardRouter,
    UnknownJobError,
)
from repro.runtime.service import Job, JobState

MAX_BODY_BYTES = 16 * 1024 * 1024
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(GatewayError):
    """Internal: carries the status + wire body of a failed request."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(payload.get("message", _REASONS.get(status, "")))
        self.status = status
        self.payload = payload


class GatewayServer:
    """One listening socket in front of a :class:`ShardRouter`.

    ``port=0`` (default) binds an ephemeral port — read the real
    address from :attr:`url` after :meth:`start`; tests and the CLI
    both rely on this to avoid port races.  The server owns the
    router's lifecycle: :meth:`stop` shuts its service down too
    (``drain=True`` finishes admitted jobs first).

    Use as an async context manager::

        async with GatewayServer(ShardRouter()) as server:
            print(server.url)
            await server.serve_forever()
    """

    def __init__(
        self,
        router: ShardRouter,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.router = router
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        """Bound ``(host, port)``; raises before :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise GatewayError("server is not listening; call start() first")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL of the listening socket (``http://host:port``)."""
        host, port = self.address
        return f"http://{host}:{port}"

    async def start(self) -> None:
        """Start the service and bind the listening socket."""
        if self._server is not None:
            return
        await self.router.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self.address[1]

    async def stop(self, drain: bool = True) -> None:
        """Close the socket and shut the router down. Idempotent."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.router.shutdown(drain=drain)

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def __aenter__(self) -> "GatewayServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.stop(drain=exc_type is None)

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One request per connection; never raises into the loop."""
        try:
            method, path, body = await _read_request(reader)
            await self._dispatch(method, path, body, writer)
        except _HttpError as exc:
            await _send_json(writer, exc.status, exc.payload)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request/stream; nothing to answer
        # The connection boundary is the last line of defence: an
        # unexpected fault must answer 500 (best effort) and close the
        # socket, never kill the accept loop.
        except Exception as exc:  # repro-lint: ignore[RL005]
            try:
                await _send_json(
                    writer,
                    500,
                    error_payload("internal", f"unhandled error: {exc!r}"),
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Route one parsed request to its handler."""
        if path == "/v1/jobs":
            if method != "POST":
                raise _method_not_allowed(method, path)
            await self._submit(body, writer)
            return
        if path == "/metrics":
            if method != "GET":
                raise _method_not_allowed(method, path)
            await _send_json(writer, 200, self.router.metrics())
            return
        if path == "/healthz":
            if method != "GET":
                raise _method_not_allowed(method, path)
            # Process liveness: answering at all is the signal.
            await _send_json(writer, 200, health_payload("alive"))
            return
        if path == "/readyz":
            if method != "GET":
                raise _method_not_allowed(method, path)
            if not self.router.ready:
                raise _HttpError(
                    503,
                    error_payload(
                        "not_ready",
                        "the service is not started or its worker pool "
                        "is spent",
                        retry=True,
                    ),
                )
            workers = self.router.options.max_workers
            await _send_json(
                writer, 200, health_payload("ready", workers=workers)
            )
            return
        if path.startswith("/v1/jobs/"):
            tail = path[len("/v1/jobs/") :]
            if tail.endswith("/events"):
                job_id = tail[: -len("/events")]
                if method != "GET":
                    raise _method_not_allowed(method, path)
                await self._stream_events(self._get_job(job_id), writer)
                return
            if "/" not in tail:
                if method == "GET":
                    await self._final_result(self._get_job(tail), writer)
                    return
                if method == "DELETE":
                    await self._cancel(self._get_job(tail), writer)
                    return
                raise _method_not_allowed(method, path)
        raise _HttpError(
            404, error_payload("not_found", f"no route for {path!r}")
        )

    def _get_job(self, job_id: str) -> Job:
        try:
            return self.router.get(job_id)
        except UnknownJobError as exc:
            raise _HttpError(404, error_payload("unknown_job", str(exc))) from exc

    # -- handlers ------------------------------------------------------
    async def _submit(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        """``POST /v1/jobs``: validate, route, answer 202 (or 429)."""
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(
                400, error_payload("protocol", f"body is not JSON: {exc}")
            ) from exc
        try:
            request = decode_solve_request(payload)
        except ProtocolError as exc:
            raise _HttpError(400, error_payload("protocol", str(exc))) from exc
        try:
            job = await self.router.submit(request)
        except GatewayOverloadedError as exc:
            raise _HttpError(
                429, error_payload("overloaded", str(exc), retry=True)
            ) from exc
        except GatewayUnavailableError as exc:
            raise _HttpError(
                503, error_payload("unavailable", str(exc), retry=True)
            ) from exc
        except DeadlineExceededError as exc:
            raise _HttpError(
                504, error_payload("deadline_exceeded", str(exc))
            ) from exc
        await _send_json(
            writer,
            202,
            job_payload(job.job_id, job.state.value, seeds=len(request.seeds)),
        )

    async def _final_result(
        self, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """``GET /v1/jobs/{id}``: long-poll the seed-ordered result."""
        try:
            result = await job.result()
        except DeadlineExceededError as exc:
            raise _HttpError(
                504,
                error_payload(
                    "deadline_exceeded", str(exc), job_id=job.job_id
                ),
            ) from exc
        except ReproError as exc:
            if job.state is JobState.CANCELLED:
                raise _HttpError(
                    409, error_payload("cancelled", str(exc), job_id=job.job_id)
                ) from exc
            raise _HttpError(
                500, error_payload("job_failed", str(exc), job_id=job.job_id)
            ) from exc
        await _send_json(
            writer, 200, encode_job_result(job.job_id, result)
        )

    async def _cancel(self, job: Job, writer: asyncio.StreamWriter) -> None:
        """``DELETE /v1/jobs/{id}``: cooperative cancellation."""
        job.cancel()
        await _send_json(writer, 202, job_payload(job.job_id, job.state.value))

    async def _stream_events(
        self, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """``GET /v1/jobs/{id}/events``: replayable SSE stream."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        index = 0
        async for record in job.stream():
            frame = (
                f"id: {index}\r\n"
                f"event: run\r\n"
                f"data: {record.to_json_line()}\r\n"
                f"\r\n"
            )
            writer.write(frame.encode("utf-8"))
            await writer.drain()
            index += 1
        end = json.dumps(
            {
                "schema": END_SCHEMA,
                "job_id": job.job_id,
                "state": job.state.value,
                "records": index,
            },
            separators=(",", ":"),
        )
        writer.write(
            f"id: {index}\r\nevent: end\r\ndata: {end}\r\n\r\n".encode("utf-8")
        )
        await writer.drain()


# ----------------------------------------------------------------------
def _method_not_allowed(method: str, path: str) -> _HttpError:
    return _HttpError(
        405, error_payload("method_not_allowed", f"{method} {path}")
    )


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, bytes]:
    """Parse one HTTP/1.1 request: ``(method, path, body)``.

    Header size is bounded by the stream reader's limit (64 KiB);
    bodies are bounded by :data:`MAX_BODY_BYTES` (413 beyond that).
    The query string, if any, is discarded — no route uses one.
    """
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(
            400, error_payload("protocol", f"malformed request line: {lines[0]!r}")
        )
    method, target = parts[0].upper(), parts[1]
    path = target.split("?", 1)[0]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _HttpError(
            400,
            error_payload("protocol", f"bad Content-Length: {length_text!r}"),
        ) from None
    if length < 0:
        raise _HttpError(
            400, error_payload("protocol", f"bad Content-Length: {length}")
        )
    if length > MAX_BODY_BYTES:
        raise _HttpError(
            413,
            error_payload(
                "too_large", f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            ),
        )
    body = await reader.readexactly(length) if length else b""
    return method, path, body


async def _send_json(
    writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
) -> None:
    """Write one JSON response and flush (connection closes after)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
