"""HTTP/SSE serving gateway over one annealing service.

The outermost layer of the serving stack (stdlib-only; no web
framework):

* :mod:`repro.gateway.protocol` — versioned JSON wire formats
  (``repro.solve_request/v1`` in, ``repro.run_telemetry/v1`` frames
  and ``repro.job_result/v1`` out);
* :mod:`repro.gateway.router` — :class:`ShardRouter`, the
  non-blocking admission front of one
  :class:`~repro.runtime.AnnealingService`: it answers a full service
  with a 429-style rejection instead of queueing, looks jobs up by id
  and keeps the ``/metrics`` counters.  Solves run in the service's
  worker-process pool;
* :mod:`repro.gateway.server` — :class:`GatewayServer`, the
  ``asyncio.start_server`` HTTP/SSE front (submit, stream, result,
  cancel, metrics, health);
* :mod:`repro.gateway.client` — blocking and async clients speaking
  the same protocol (what ``repro submit --url`` uses).

See ``docs/gateway.md`` for the wire format and an end-to-end tour.
"""

from repro.gateway.client import (
    AsyncGatewayClient,
    GatewayClient,
    GatewayHTTPError,
)
from repro.gateway.protocol import (
    ProtocolError,
    decode_solve_request,
    encode_solve_request,
    parse_telemetry_frame,
)
from repro.gateway.router import (
    GatewayOverloadedError,
    GatewayUnavailableError,
    ShardRouter,
    UnknownJobError,
)
from repro.gateway.server import GatewayServer

__all__ = [
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
