"""Clients for the serving gateway (stdlib only).

Two clients over the same wire protocol (:mod:`repro.gateway.
protocol`):

* :class:`GatewayClient` — blocking, built on :mod:`http.client`;
  what the CLI (``repro submit --url``) and thread-based tests use;
* :class:`AsyncGatewayClient` — coroutine-based, built on
  ``asyncio.open_connection``; usable from the same event loop that
  hosts a :class:`~repro.gateway.server.GatewayServer` under test.

Both raise :class:`GatewayHTTPError` for any non-2xx response; the
server's ``repro.error/v1`` body is preserved on the exception so
callers can branch on ``status`` (429 = retry later) without string
matching.  Streaming methods yield
:class:`~repro.runtime.telemetry.RunTelemetry` records parsed from
the SSE ``run`` events and end when the server sends the terminal
``end`` event.

Resilience: submissions that bounce off backpressure (429), a
not-ready gateway (503), or a refused connection are retried through
the sanctioned :class:`~repro.runtime.faults.Backoff` pacing, bounded
by ``submit_retries``; everything else surfaces immediately.
``stream(..., reconnect=N)`` re-attaches a dropped SSE connection up
to N times, resuming via the server's replay path and deduplicating
frames whose seed was already delivered.
"""

from __future__ import annotations

import asyncio
import http.client
import json
from dataclasses import replace
from typing import Any, AsyncIterator, Dict, Iterator, Optional, Set, Tuple
from urllib.parse import urlsplit

from repro.errors import GatewayError
from repro.gateway.protocol import (
    ProtocolError,
    encode_solve_request,
    parse_telemetry_frame,
)
from repro.runtime.faults import Backoff
from repro.runtime.options import SolveRequest
from repro.runtime.telemetry import RunTelemetry

#: HTTP statuses a submission may retry: backpressure and not-ready
#: are transient by definition; anything else is deterministic.
_RETRYABLE_STATUSES = frozenset({429, 503})


class GatewayHTTPError(GatewayError):
    """A non-2xx gateway response; carries the wire error body.

    ``status`` is the HTTP status (429 = service at capacity, 404 =
    unknown job, 400 = protocol violation — e.g. an unknown backend
    name); ``payload`` is the decoded ``repro.error/v1`` document
    (empty when the body was not JSON).  The exception message carries
    the server's error code *and* message verbatim, so an
    unknown-backend rejection reads ``gateway answered 400: protocol:
    invalid solve request: unknown backend ...`` without any client
    decoding.
    """

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        message = str(payload.get("message", "")) or f"HTTP {status}"
        code = str(payload.get("error", ""))
        detail = f"{code}: {message}" if code else message
        super().__init__(f"gateway answered {status}: {detail}")
        self.status = status
        self.payload = payload


def _split_url(url: str) -> Tuple[str, int]:
    """Host and port of a gateway base URL (http only)."""
    parts = urlsplit(url)
    if parts.scheme != "http" or not parts.hostname:
        raise GatewayError(
            f"gateway URL must be http://host:port, got {url!r}"
        )
    return parts.hostname, parts.port or 80


def _raise_for_status(status: int, body: bytes) -> None:
    if 200 <= status < 300:
        return
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        payload = {}
    if not isinstance(payload, dict):
        payload = {}
    raise GatewayHTTPError(status, payload)


class _SSEAssembler:
    """Incremental Server-Sent-Events parser (shared by both clients).

    Feed decoded lines one at a time; a blank line completes an event
    and :meth:`feed` returns its ``(event, data)`` pair (None while an
    event is still accumulating).
    """

    def __init__(self) -> None:
        self._event = ""
        self._data = ""

    def feed(self, line: str) -> Optional[Tuple[str, str]]:
        line = line.rstrip("\r\n")
        if not line:
            if not self._event and not self._data:
                return None
            out = (self._event or "message", self._data)
            self._event = ""
            self._data = ""
            return out
        name, sep, value = line.partition(":")
        if not sep:
            return None
        value = value.lstrip(" ")
        if name == "event":
            self._event = value
        elif name == "data":
            self._data = f"{self._data}\n{value}" if self._data else value
        return None


def _with_backend(
    request: SolveRequest, backend: Optional[str]
) -> SolveRequest:
    """Re-target a request at another backend before encoding it.

    ``dataclasses.replace`` re-runs ``SolveRequest.__post_init__``, so
    the backend name and problem-kind capability are validated on the
    client before anything crosses the wire; a backend only the server
    knows must be set via the request itself.
    """
    if backend is None or backend == request.backend:
        return request
    return replace(request, backend=backend)


def _frame_from_event(event: str, data: str) -> Optional[RunTelemetry]:
    """Map one SSE event to a telemetry record (None = end of stream).

    Unknown event names are skipped — a newer server may interleave
    new event types; only ``run`` and ``end`` are load-bearing.
    """
    if event == "end":
        return None
    if event != "run":
        raise ProtocolError(f"unexpected SSE event {event!r}")
    return parse_telemetry_frame(data)


class GatewayClient:
    """Blocking gateway client (one HTTP connection per call).

    >>> client = GatewayClient("http://127.0.0.1:8642")
    >>> handle = client.submit(request)             # doctest: +SKIP
    >>> for record in client.stream(handle["job_id"]):  # doctest: +SKIP
    ...     print(record.seed, record.length)
    """

    def __init__(
        self,
        url: str,
        *,
        timeout_s: float = 300.0,
        submit_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 1.0,
    ) -> None:
        if submit_retries < 0:
            raise GatewayError(
                f"submit_retries must be >= 0, got {submit_retries}"
            )
        self.url = url.rstrip("/")
        self.host, self.port = _split_url(self.url)
        self.timeout_s = timeout_s
        self.submit_retries = int(submit_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)

    # -- plumbing ------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            _raise_for_status(response.status, raw)
            decoded = json.loads(raw)
            if not isinstance(decoded, dict):
                raise ProtocolError(
                    f"gateway response is not a JSON object: {decoded!r}"
                )
            return decoded
        finally:
            conn.close()

    # -- API -----------------------------------------------------------
    def submit(
        self, request: SolveRequest, *, backend: Optional[str] = None
    ) -> Dict[str, Any]:
        """Submit a solve; returns the ``repro.job/v1`` handle.

        ``backend`` re-targets the request at another registered
        solver backend without rebuilding it (validated client-side).
        Backpressure (429), not-ready (503), and refused connections
        are retried up to ``submit_retries`` times with deterministic
        jittered backoff; other failures surface immediately.
        """
        body = encode_solve_request(_with_backend(request, backend))
        backoff = Backoff(
            self.backoff_base_s,
            self.backoff_cap_s,
            seed=int(request.seeds[0]),
        )
        for attempt in range(self.submit_retries + 1):
            try:
                return self._request("POST", "/v1/jobs", body=body)
            except GatewayHTTPError as exc:
                if (
                    exc.status not in _RETRYABLE_STATUSES
                    or attempt >= self.submit_retries
                ):
                    raise
            except ConnectionRefusedError:
                if attempt >= self.submit_retries:
                    raise
            backoff.wait(attempt + 1)
        raise GatewayError("unreachable: submit retry loop exhausted")

    def result(self, job_id: str) -> Dict[str, Any]:
        """Long-poll the final ``repro.job_result/v1`` document."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cooperative cancellation of a job."""
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def metrics(self) -> Dict[str, Any]:
        """Fetch the gateway's ``repro.gateway_metrics/v1`` counters."""
        return self._request("GET", "/metrics")

    def _stream_once(self, job_id: str) -> Iterator[Optional[RunTelemetry]]:
        """One SSE attach: yields records, then ``None`` on a clean
        ``end`` event.  A generator that returns *without* yielding
        ``None`` saw the connection drop mid-stream."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                _raise_for_status(response.status, response.read())
            assembler = _SSEAssembler()
            while True:
                line = response.readline()
                if not line:
                    return  # server closed without an end event
                completed = assembler.feed(line.decode("utf-8"))
                if completed is None:
                    continue
                record = _frame_from_event(*completed)
                if record is None:
                    yield None
                    return
                yield record
        finally:
            conn.close()

    def stream(
        self, job_id: str, *, reconnect: int = 0
    ) -> Iterator[RunTelemetry]:
        """Yield each seed's telemetry record as the server streams it.

        Replays from the first record (the server buffers), ends at
        the terminal ``end`` event.  With ``reconnect > 0`` a dropped
        connection (mid-stream EOF or a connection error) is
        re-attached up to that many times; the server replays from the
        start and frames whose seed was already delivered are skipped,
        so consumers see each seed exactly once.
        """
        if reconnect < 0:
            raise GatewayError(f"reconnect must be >= 0, got {reconnect}")
        seen: Set[int] = set()
        backoff = Backoff(self.backoff_base_s, self.backoff_cap_s, seed=0)
        for attempt in range(reconnect + 1):
            ended = False
            try:
                for item in self._stream_once(job_id):
                    if item is None:
                        ended = True
                        break
                    if int(item.seed) in seen:
                        continue  # replayed after a reconnect
                    seen.add(int(item.seed))
                    yield item
            except (ConnectionError, http.client.HTTPException, TimeoutError):
                if attempt >= reconnect:
                    raise
                backoff.wait(attempt + 1)
                continue
            if ended or attempt >= reconnect:
                return  # clean end, or out of reconnect budget
            backoff.wait(attempt + 1)

    def solve(
        self, request: SolveRequest, *, backend: Optional[str] = None
    ) -> Dict[str, Any]:
        """Submit and block for the final result (convenience)."""
        handle = self.submit(request, backend=backend)
        return self.result(str(handle["job_id"]))


class AsyncGatewayClient:
    """Coroutine gateway client (one connection per call).

    Safe to use on the same event loop as the server it talks to —
    every await yields to the loop, so the server's handlers make
    progress between client reads (which is exactly how the e2e tests
    run both sides single-process).
    """

    def __init__(
        self,
        url: str,
        *,
        submit_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 1.0,
    ) -> None:
        if submit_retries < 0:
            raise GatewayError(
                f"submit_retries must be >= 0, got {submit_retries}"
            )
        self.url = url.rstrip("/")
        self.host, self.port = _split_url(self.url)
        self.submit_retries = int(submit_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)

    # -- plumbing ------------------------------------------------------
    async def _connect(
        self, method: str, path: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, int]:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
        status_line = (await reader.readline()).decode("latin-1")
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ProtocolError(f"malformed status line: {status_line!r}")
        status = int(parts[1])
        while True:  # consume response headers up to the blank line
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
        return reader, writer, status

    async def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        reader, writer, status = await self._connect(method, path, body)
        try:
            raw = await reader.read()
            _raise_for_status(status, raw)
            decoded = json.loads(raw)
            if not isinstance(decoded, dict):
                raise ProtocolError(
                    f"gateway response is not a JSON object: {decoded!r}"
                )
            return decoded
        finally:
            writer.close()

    # -- API -----------------------------------------------------------
    async def submit(
        self, request: SolveRequest, *, backend: Optional[str] = None
    ) -> Dict[str, Any]:
        """Submit a solve; returns the ``repro.job/v1`` handle.

        ``backend`` re-targets the request at another registered
        solver backend without rebuilding it (validated client-side).
        Backpressure (429), not-ready (503), and refused connections
        are retried up to ``submit_retries`` times with deterministic
        jittered backoff (non-blocking: ``asyncio.sleep``); other
        failures surface immediately.
        """
        body = encode_solve_request(_with_backend(request, backend))
        backoff = Backoff(
            self.backoff_base_s,
            self.backoff_cap_s,
            seed=int(request.seeds[0]),
        )
        for attempt in range(self.submit_retries + 1):
            try:
                return await self._request("POST", "/v1/jobs", body=body)
            except GatewayHTTPError as exc:
                if (
                    exc.status not in _RETRYABLE_STATUSES
                    or attempt >= self.submit_retries
                ):
                    raise
            except ConnectionRefusedError:
                if attempt >= self.submit_retries:
                    raise
            await asyncio.sleep(backoff.delay_s(attempt + 1))
        raise GatewayError("unreachable: submit retry loop exhausted")

    async def result(self, job_id: str) -> Dict[str, Any]:
        """Long-poll the final ``repro.job_result/v1`` document."""
        return await self._request("GET", f"/v1/jobs/{job_id}")

    async def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cooperative cancellation of a job."""
        return await self._request("DELETE", f"/v1/jobs/{job_id}")

    async def metrics(self) -> Dict[str, Any]:
        """Fetch the gateway's ``repro.gateway_metrics/v1`` counters."""
        return await self._request("GET", "/metrics")

    async def _stream_once(
        self, job_id: str
    ) -> AsyncIterator[Optional[RunTelemetry]]:
        """One SSE attach: yields records, then ``None`` on a clean
        ``end`` event (see the blocking client's ``_stream_once``)."""
        reader, writer, status = await self._connect(
            "GET", f"/v1/jobs/{job_id}/events", None
        )
        try:
            if status != 200:
                _raise_for_status(status, await reader.read())
            assembler = _SSEAssembler()
            while True:
                line = await reader.readline()
                if not line:
                    return  # server closed without an end event
                completed = assembler.feed(line.decode("utf-8"))
                if completed is None:
                    continue
                record = _frame_from_event(*completed)
                if record is None:
                    yield None
                    return
                yield record
        finally:
            writer.close()

    async def stream(
        self, job_id: str, *, reconnect: int = 0
    ) -> AsyncIterator[RunTelemetry]:
        """Yield telemetry records from the SSE stream as they arrive.

        With ``reconnect > 0`` a dropped connection is re-attached up
        to that many times, resuming via the server's replay path and
        skipping frames whose seed was already delivered.
        """
        if reconnect < 0:
            raise GatewayError(f"reconnect must be >= 0, got {reconnect}")
        seen: Set[int] = set()
        backoff = Backoff(self.backoff_base_s, self.backoff_cap_s, seed=0)
        for attempt in range(reconnect + 1):
            ended = False
            try:
                async for item in self._stream_once(job_id):
                    if item is None:
                        ended = True
                        break
                    if int(item.seed) in seen:
                        continue  # replayed after a reconnect
                    seen.add(int(item.seed))
                    yield item
            except (ConnectionError, asyncio.IncompleteReadError):
                if attempt >= reconnect:
                    raise
                await asyncio.sleep(backoff.delay_s(attempt + 1))
                continue
            if ended or attempt >= reconnect:
                return  # clean end, or out of reconnect budget
            await asyncio.sleep(backoff.delay_s(attempt + 1))
