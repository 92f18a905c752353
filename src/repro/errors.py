"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single type at an API boundary.  Sub-types are split
by subsystem to make failures self-describing:

* :class:`TSPError` — malformed instances, tours, or TSPLIB files.
* :class:`ClusteringError` — invalid cluster strategies or hierarchies.
* :class:`IsingError` — inconsistent Ising model definitions.
* :class:`CIMError` — digital compute-in-memory configuration problems
  (window/array geometry, mapping, dataflow).
* :class:`SRAMError` — noisy-SRAM model misuse (voltages out of range,
  bad bit masks).
* :class:`HardwareModelError` — PPA model configuration problems.
* :class:`AnnealerError` — solver configuration or runtime failures.
* :class:`GatewayError` — serving-gateway failures (malformed wire
  payloads, overload rejections, unknown jobs).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class TSPError(ReproError):
    """Raised for malformed TSP instances, tours, or TSPLIB input."""


class TSPLIBFormatError(TSPError):
    """Raised when a TSPLIB file cannot be parsed or is unsupported."""


class TourError(TSPError):
    """Raised when a tour is not a valid permutation of the cities."""


class ClusteringError(ReproError):
    """Raised for invalid clustering strategies or malformed hierarchies."""


class IsingError(ReproError):
    """Raised for inconsistent Ising model definitions or spin states."""


class CIMError(ReproError):
    """Raised for digital CIM geometry, mapping, or dataflow violations."""


class SRAMError(ReproError):
    """Raised when the noisy SRAM model is configured out of range."""


class HardwareModelError(ReproError):
    """Raised for invalid PPA (power/performance/area) model settings."""


class AnnealerError(ReproError):
    """Raised for invalid annealer configuration or runtime failures."""


class DeadlineExceededError(AnnealerError):
    """Raised when a request's end-to-end ``deadline_s`` budget expires.

    Deadlines propagate from the client through the wire codec, are
    checked at admission (a request whose budget is already spent is
    rejected immediately) and enforced during the solve via
    cooperative cancellation.  On the wire this maps to the
    ``deadline_exceeded`` error code (HTTP 504).
    """


class ConfigError(ReproError):
    """Raised when a configuration object contains inconsistent values."""


class GatewayError(ReproError):
    """Raised by the serving gateway (:mod:`repro.gateway`).

    Sub-types map onto the versioned wire error responses: protocol
    violations (HTTP 400), overload rejections (429), unknown job ids
    (404).
    """
