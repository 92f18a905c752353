"""Wire protocol of the serving gateway.

Everything that crosses the HTTP boundary is JSON with an explicit
``schema`` tag, so clients can verify what they are talking to and the
formats can evolve without guessing:

* ``repro.solve_request/v1`` — a complete
  :class:`~repro.runtime.options.SolveRequest` (problem payload,
  seeds, backend name, annealer config, runtime options including the
  chaos :class:`~repro.runtime.faults.FaultPlan`), produced by
  :func:`encode_solve_request` and validated strictly by
  :func:`decode_solve_request`;
* ``repro.run_telemetry/v1`` — the per-seed stream frame; the SSE
  ``data:`` payload is exactly
  :meth:`repro.runtime.telemetry.RunTelemetry.to_json_line`, parsed
  back (unknown-field tolerant, so newer servers can add fields) by
  :func:`parse_telemetry_frame`;
* ``repro.job/v1`` / ``repro.job_result/v1`` — job handles and the
  final seed-ordered result (:func:`encode_job_result`);
* ``repro.error/v1`` — every non-2xx response body
  (:func:`error_payload`).

The request's dataclasses (``SolveRequest``, ``EnsembleOptions``,
``FaultPlan``, ``AnnealerConfig`` and its nested ``VddSchedule`` and
``SRAMCellParams``) have no hand-written codecs: one :func:`encode` /
:func:`decode` pair walks :func:`dataclasses.fields` and the resolved
type hints, so the allowed keys, the type checks and the defaults all
come from the dataclass, and a new field reaches the wire with no codec
edit.  Only fields whose wire form really differs are overridden: the
cluster strategy travels as its Table I label, ``seeds`` is a
non-empty integer list, ``options: null`` means the default options,
and ``instance`` is the problem union.  That union is one
``{kind: (encode, decode)}`` table (:data:`PROBLEM_CODECS`): a TSP
instance (``kind: "tsp"``, and the backward-compatible default when
the tag is absent — pre-registry payloads decode unchanged), a dense
Ising model (``"ising"``), a Max-Cut graph (``"maxcut"``) or a QUBO
term list (``"qubo"``), each dispatchable to any registered backend
that declares the kind.

Decoding is *strict*: unknown keys, wrong types, and out-of-range
values raise :class:`ProtocolError` (mapped to HTTP 400 by the
server), never a silent default.  Only the telemetry stream is
tolerant of unknown fields — readers of a long-lived stream must not
break when the server learns new counters.
"""

from __future__ import annotations

import json
import types
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from repro.errors import GatewayError, ReproError
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.runtime.telemetry import RunTelemetry
from repro.tsp.instance import TSPInstance

if TYPE_CHECKING:  # import cycle: repro.annealer.batch imports runtime
    from _typeshed import DataclassInstance

    from repro.annealer.batch import EnsembleResult
    from repro.backends.base import ProblemLike
    from repro.clustering.strategies import ClusterStrategy
    from repro.ising.model import IsingModel
    from repro.maxcut.problem import MaxCutProblem
    from repro.problems.qubo import QUBOProblem

REQUEST_SCHEMA = "repro.solve_request/v1"
TELEMETRY_SCHEMA = "repro.run_telemetry/v1"
JOB_SCHEMA = "repro.job/v1"
RESULT_SCHEMA = "repro.job_result/v1"
ERROR_SCHEMA = "repro.error/v1"
METRICS_SCHEMA = "repro.gateway_metrics/v1"
END_SCHEMA = "repro.job_end/v1"
HEALTH_SCHEMA = "repro.health/v1"

T = TypeVar("T", bound="DataclassInstance")


class ProtocolError(GatewayError):
    """A wire payload violates the schema (HTTP 400)."""


# ----------------------------------------------------------------------
# Validation helpers — small, strict, and loud.
# ----------------------------------------------------------------------
def _require_mapping(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _reject_unknown(
    payload: Mapping[str, Any], allowed: FrozenSet[str], what: str
) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ProtocolError(f"{what} has unknown fields {unknown}")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Scalar hint → (which JSON values it takes, its name in errors).
#: ``int`` rejects ``bool``; ``float`` takes any non-bool number.
_SCALARS: Dict[Any, Tuple[Callable[[Any], bool], str]] = {
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    int: (_is_int, "an integer"),
    float: (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _checker(hint: Any) -> Callable[[Any, str], Any]:
    """Compile a resolved type hint into a strict decoder of one JSON
    value.  ``Optional[X]`` adds ``null``; a nested dataclass recurses
    through :func:`decode`; a scalar or an ``Enum`` (which travels as
    its ``.value``) is converted by calling the hint (``float(3)``,
    ``NoiseSource("sram")``)."""
    or_null = ""
    if get_origin(hint) in (Union, types.UnionType):
        members = [arg for arg in get_args(hint) if arg is not type(None)]
        if len(members) != 1:
            raise TypeError(f"no wire form for {hint!r}")
        hint, or_null = members[0], " or null"
    if isinstance(hint, type) and is_dataclass(hint):
        nested = hint

        def check(value: Any, what: str) -> Any:
            return _decode(nested, value, what, f"{what}.")

    else:
        if hint in _SCALARS:
            accepts, noun = _SCALARS[hint]
        elif isinstance(hint, type) and issubclass(hint, Enum):
            values = [member.value for member in hint]
            accepts, noun = (
                lambda v: any(type(v) is type(x) and v == x for x in values)
            ), f"one of {values}"
        else:
            raise TypeError(f"no wire form for {hint!r}")

        def check(value: Any, what: str) -> Any:
            if accepts(value):
                return hint(value)
            raise ProtocolError(f"{what} must be {noun}{or_null}")

    if not or_null:
        return check
    return lambda value, what: None if value is None else check(value, what)


_as_str = _checker(str)
_as_int = _checker(int)


# ----------------------------------------------------------------------
# Instance
# ----------------------------------------------------------------------
_INSTANCE_FIELDS = frozenset(
    {"coords", "name", "comment", "edge_weight_type"}
)


def encode_instance(instance: TSPInstance) -> Dict[str, Any]:
    """JSON view of a :class:`TSPInstance` (coordinates inline)."""
    return {
        "name": instance.name,
        "comment": instance.comment,
        "edge_weight_type": instance.edge_weight_type,
        "coords": [[float(x), float(y)] for x, y in instance.coords],
    }


def decode_instance(payload: Any) -> TSPInstance:
    """Rebuild a :class:`TSPInstance`; strict about shape and types."""
    payload = _require_mapping(payload, "instance")
    _reject_unknown(payload, _INSTANCE_FIELDS, "instance")
    coords = payload.get("coords")
    if not isinstance(coords, list) or not coords:
        raise ProtocolError("instance.coords must be a non-empty list")
    try:
        arr = np.asarray(coords, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"instance.coords not numeric: {exc}") from exc
    try:
        return TSPInstance(
            coords=arr,
            name=_as_str(payload.get("name", "unnamed"), "instance.name"),
            comment=_as_str(payload.get("comment", ""), "instance.comment"),
            edge_weight_type=_as_str(
                payload.get("edge_weight_type", "GEOM"),
                "instance.edge_weight_type",
            ),
        )
    except ReproError as exc:
        raise ProtocolError(f"invalid instance: {exc}") from exc


# ----------------------------------------------------------------------
# Problem union — the tagged payload of a solve request
# ----------------------------------------------------------------------
_ISING_FIELDS = frozenset({"kind", "couplings", "field", "convention"})
_MAXCUT_FIELDS = frozenset({"kind", "n_nodes", "edges", "weights", "name"})
_QUBO_FIELDS = frozenset({"kind", "n_vars", "terms", "offset", "name"})


def encode_ising_model(model: "IsingModel") -> Dict[str, Any]:
    """JSON view of an :class:`~repro.ising.model.IsingModel`."""
    return {
        "kind": "ising",
        "couplings": [
            [float(x) for x in row] for row in model.couplings
        ],
        "field": [float(h) for h in model.field],
        "convention": model.convention,
    }


def decode_ising_model(payload: Mapping[str, Any]) -> "IsingModel":
    """Rebuild an :class:`IsingModel`; strict about shape and types."""
    from repro.ising.model import IsingModel

    _reject_unknown(payload, _ISING_FIELDS, "instance")
    couplings = payload.get("couplings")
    if not isinstance(couplings, list) or not couplings:
        raise ProtocolError("instance.couplings must be a non-empty list")
    try:
        j = np.asarray(couplings, dtype=np.float64)
        h = (
            None
            if payload.get("field") is None
            else np.asarray(payload["field"], dtype=np.float64)
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"instance payload not numeric: {exc}") from exc
    convention = _as_str(
        payload.get("convention", "pm1"), "instance.convention"
    )
    try:
        return IsingModel(j, field=h, convention=convention)
    except ReproError as exc:
        raise ProtocolError(f"invalid ising model: {exc}") from exc


def encode_maxcut_problem(problem: "MaxCutProblem") -> Dict[str, Any]:
    """JSON view of a :class:`~repro.maxcut.problem.MaxCutProblem`."""
    return {
        "kind": "maxcut",
        "n_nodes": int(problem.n_nodes),
        "edges": [[int(u), int(v)] for u, v in problem.edges],
        "weights": [float(w) for w in problem.weights],
        "name": problem.name,
    }


def decode_maxcut_problem(payload: Mapping[str, Any]) -> "MaxCutProblem":
    """Rebuild a :class:`MaxCutProblem`; strict about shape and types.

    Endpoints must be JSON integers: ``[0.7, 1.9]`` is rejected, not
    truncated to edge ``(0, 1)``.
    """
    from repro.maxcut.problem import MaxCutProblem

    _reject_unknown(payload, _MAXCUT_FIELDS, "instance")
    edges = payload.get("edges")
    if not isinstance(edges, list) or any(
        not isinstance(e, list) or len(e) != 2 or not all(map(_is_int, e))
        for e in edges
    ):
        raise ProtocolError(
            "instance.edges must be a list of [u, v] integer pairs"
        )
    weights = payload.get("weights")
    try:
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"instance payload not numeric: {exc}") from exc
    n_nodes = _as_int(payload.get("n_nodes", 0), "instance.n_nodes")
    name = _as_str(payload.get("name", "maxcut"), "instance.name")
    try:
        return MaxCutProblem(
            n_nodes, np.asarray(edges, dtype=np.int64), weights=w, name=name
        )
    except ReproError as exc:
        raise ProtocolError(f"invalid maxcut problem: {exc}") from exc


def encode_qubo_problem(problem: "QUBOProblem") -> Dict[str, Any]:
    """JSON view of a :class:`~repro.problems.qubo.QUBOProblem`.

    COO terms over the canonical upper triangle — the same layout as
    the ``repro.qubo/v1`` file interchange, minus the schema tag (the
    ``kind`` discriminator plays that role on the wire).
    """
    from repro.problems.io import qubo_to_dict

    doc = qubo_to_dict(problem)
    return {
        "kind": "qubo",
        "n_vars": doc["n_vars"],
        "terms": doc["terms"],
        "offset": doc["offset"],
        "name": doc["name"],
    }


def decode_qubo_problem(payload: Mapping[str, Any]) -> "QUBOProblem":
    """Rebuild a :class:`QUBOProblem`; strict about shape and types."""
    from repro.problems.io import QUBO_SCHEMA, qubo_from_dict

    _reject_unknown(payload, _QUBO_FIELDS, "instance")
    doc = {
        "schema": QUBO_SCHEMA,
        "n_vars": payload.get("n_vars"),
        "terms": payload.get("terms"),
        "offset": payload.get("offset", 0.0),
        "name": _as_str(payload.get("name", "qubo"), "instance.name"),
    }
    try:
        return qubo_from_dict(doc)
    except ReproError as exc:
        raise ProtocolError(f"invalid qubo problem: {exc}") from exc


def _encode_tsp(instance: TSPInstance) -> Dict[str, Any]:
    return {"kind": "tsp", **encode_instance(instance)}


def _decode_tsp(payload: Mapping[str, Any]) -> TSPInstance:
    return decode_instance(
        {key: value for key, value in payload.items() if key != "kind"}
    )


#: The problem union on the wire: ``kind`` tag → (encode, decode).
#: Keys are :func:`repro.backends.problem_kind` values; a new problem
#: kind needs one entry in the backends' kind table
#: (``repro.backends.base._KINDS``) plus one codec here.
PROBLEM_CODECS: Dict[
    str, Tuple[Callable[[Any], Dict[str, Any]], Callable[[Any], Any]]
] = {
    "tsp": (_encode_tsp, _decode_tsp),
    "ising": (encode_ising_model, decode_ising_model),
    "maxcut": (encode_maxcut_problem, decode_maxcut_problem),
    "qubo": (encode_qubo_problem, decode_qubo_problem),
}


def encode_problem(problem: "ProblemLike") -> Dict[str, Any]:
    """Tagged JSON view of any problem payload.

    The ``kind`` key discriminates the union on the wire; TSP
    instances keep their original field layout (plus the tag), so
    pre-registry clients and recorded payloads stay compatible.
    """
    from repro.backends import problem_kind

    return PROBLEM_CODECS[problem_kind(problem)][0](problem)


def decode_problem(payload: Any) -> "ProblemLike":
    """Rebuild a problem payload; the ``kind`` tag discriminates.

    A payload without ``kind`` is a TSP instance: every
    ``repro.solve_request/v1`` body encoded before the problem union
    existed decodes unchanged (and dispatches to the default
    cluster-CIM backend).
    """
    payload = _require_mapping(payload, "instance")
    kind = _as_str(payload.get("kind", "tsp"), "instance.kind")
    if kind not in PROBLEM_CODECS:
        raise ProtocolError(f"unknown problem kind {kind!r}")
    return PROBLEM_CODECS[kind][1](payload)


# ----------------------------------------------------------------------
# The dataclass codec
# ----------------------------------------------------------------------
def _strategy_label(strategy: Union["ClusterStrategy", str]) -> str:
    """The cluster strategy as its Table I label (``"1/2/3"``, ``"4"``,
    ``"arbitrary"``) — the form the CLI accepts — so the wire never
    carries arbitrary pickled objects."""
    from repro.clustering.strategies import ClusterStrategy

    if isinstance(strategy, ClusterStrategy):
        return strategy.name
    return str(strategy)


def _decode_seeds(value: Any, what: str) -> Tuple[int, ...]:
    if (
        not isinstance(value, list)
        or not value
        or not all(map(_is_int, value))
    ):
        raise ProtocolError(f"{what!r} must be a non-empty list of integers")
    return tuple(value)


def _decode_options(value: Any, what: str) -> EnsembleOptions:
    if value is None:
        return EnsembleOptions()
    return decode(EnsembleOptions, value, what)


#: Fields whose wire form is not the generic walk of their type hint,
#: keyed by (dataclass name, field name).
_FIELD_ENCODERS: Dict[Tuple[str, str], Callable[[Any], Any]] = {
    ("AnnealerConfig", "strategy"): _strategy_label,
    ("SolveRequest", "instance"): encode_problem,
}
_FIELD_DECODERS: Dict[Tuple[str, str], Callable[[Any, str], Any]] = {
    ("AnnealerConfig", "strategy"): _as_str,
    ("SolveRequest", "instance"): lambda value, what: decode_problem(value),
    ("SolveRequest", "seeds"): _decode_seeds,
    ("SolveRequest", "options"): _decode_options,
}


#: One decoded field: name, whether the payload must carry it, and its
#: value decoder (an override or the compiled type hint).
_FieldSpec = Tuple[str, bool, Callable[[Any, str], Any]]


@lru_cache(maxsize=None)
def _wire_fields(
    cls: Type["DataclassInstance"],
) -> Tuple[FrozenSet[str], Tuple[_FieldSpec, ...]]:
    """The allowed keys and field decoders of a wire dataclass, built
    once per class from its fields and resolved type hints.

    ``SolveRequest`` names ``AnnealerConfig`` and ``ProblemLike`` only
    under ``TYPE_CHECKING``, so they are supplied here: the config class
    imported late, the union as a placeholder, since ``instance`` always
    goes through :data:`PROBLEM_CODECS` and never through its hint.
    """
    from repro.annealer.config import AnnealerConfig

    hints = get_type_hints(
        cls, localns={"AnnealerConfig": AnnealerConfig, "ProblemLike": object}
    )
    specs = tuple(
        (
            f.name,
            f.default is MISSING and f.default_factory is MISSING,
            _FIELD_DECODERS.get((cls.__name__, f.name))
            or _checker(hints[f.name]),
        )
        for f in fields(cls)
    )
    return frozenset(name for name, _, _ in specs), specs


def encode(value: Any) -> Any:
    """JSON view of a wire value: a dataclass becomes an object keyed by
    its fields in declaration order, an enum its ``.value``, a tuple a
    list; JSON-native values pass through."""
    if is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        out: Dict[str, Any] = {}
        for f in fields(value):
            encoder = _FIELD_ENCODERS.get((name, f.name), encode)
            out[f.name] = encoder(getattr(value, f.name))
        return out
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [encode(item) for item in value]
    return value


def decode(cls: Type[T], payload: Any, what: str) -> T:
    """Rebuild the dataclass ``cls`` from its wire object.

    Allowed keys, value types and defaults come from the dataclass:
    unknown keys are rejected, missing ones fall back to the field
    defaults, and a validation error raised by the constructor becomes
    ``ProtocolError("invalid <what>: …")``.
    """
    return _decode(cls, payload, what, f"{what}.")


def _decode(cls: Type[T], payload: Any, what: str, prefix: str) -> T:
    payload = _require_mapping(payload, what)
    allowed, specs = _wire_fields(cls)
    _reject_unknown(payload, allowed, what)
    kwargs: Dict[str, Any] = {}
    for name, required, decode_value in specs:
        if name in payload:
            kwargs[name] = decode_value(payload[name], prefix + name)
        elif required:
            raise ProtocolError(f"{what} is missing {name!r}")
    try:
        return cls(**kwargs)
    except (ReproError, ValueError, TypeError) as exc:
        raise ProtocolError(f"invalid {what}: {exc}") from exc


# ----------------------------------------------------------------------
# SolveRequest — the unit of work on the wire
# ----------------------------------------------------------------------
def encode_solve_request(request: SolveRequest) -> Dict[str, Any]:
    """Serialize a :class:`SolveRequest` to its ``repro.solve_request/v1``
    wire form (pure JSON-native values, no pickles)."""
    return {"schema": REQUEST_SCHEMA, **encode(request)}


def decode_solve_request(payload: Any) -> SolveRequest:
    """Parse and validate a ``repro.solve_request/v1`` body.

    Strict: the schema tag must match, unknown fields are rejected,
    and every nested object is validated against its dataclass.  All
    failures raise :class:`ProtocolError` (the server's 400 path).
    """
    payload = _require_mapping(payload, "solve request")
    schema = payload.get("schema")
    if schema != REQUEST_SCHEMA:
        raise ProtocolError(
            f"expected schema {REQUEST_SCHEMA!r}, got {schema!r}"
        )
    body = {key: value for key, value in payload.items() if key != "schema"}
    return _decode(SolveRequest, body, "solve request", "")


# ----------------------------------------------------------------------
# Telemetry frames (the SSE payload)
# ----------------------------------------------------------------------
_TELEMETRY_FIELDS = frozenset(
    RunTelemetry(seed=0).to_dict()
)


def parse_telemetry_frame(line: str) -> RunTelemetry:
    """Parse one ``repro.run_telemetry/v1`` JSON line back to a record.

    Unknown fields are ignored (a newer server may stream counters
    this client predates); a missing/foreign schema tag or a frame
    without a seed is a :class:`ProtocolError`.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"telemetry frame is not JSON: {exc}") from exc
    payload = _require_mapping(payload, "telemetry frame")
    schema = payload.get("schema")
    if not isinstance(schema, str) or not schema.startswith(
        "repro.run_telemetry/"
    ):
        raise ProtocolError(
            f"expected a repro.run_telemetry/* frame, got {schema!r}"
        )
    if "seed" not in payload:
        raise ProtocolError("telemetry frame has no 'seed'")
    known = {
        key: value
        for key, value in payload.items()
        if key in _TELEMETRY_FIELDS
    }
    try:
        return RunTelemetry(**known)
    except TypeError as exc:
        raise ProtocolError(f"malformed telemetry frame: {exc}") from exc


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def error_payload(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The ``repro.error/v1`` body every non-2xx response carries."""
    return {
        "schema": ERROR_SCHEMA,
        "error": code,
        "message": message,
        **extra,
    }


def health_payload(status: str, **extra: Any) -> Dict[str, Any]:
    """The ``repro.health/v1`` body (``/healthz`` and ``/readyz``)."""
    return {
        "schema": HEALTH_SCHEMA,
        "status": status,
        **extra,
    }


def job_payload(job_id: str, state: str, **extra: Any) -> Dict[str, Any]:
    """The ``repro.job/v1`` body (submit/cancel acknowledgements)."""
    return {
        "schema": JOB_SCHEMA,
        "job_id": job_id,
        "state": state,
        **extra,
    }


def encode_job_result(job_id: str, result: "EnsembleResult") -> Dict[str, Any]:
    """The ``repro.job_result/v1`` body: the final seed-ordered result.

    Per-seed tours travel as plain index lists, so a client can verify
    bit-identity against a local :func:`solve_ensemble` run.
    """
    telemetry = result.telemetry
    ok_seeds = (
        [r.seed for r in telemetry.runs if r.ok]
        if telemetry is not None
        else []
    )
    stats = result.ratio_stats
    return {
        "schema": RESULT_SCHEMA,
        "job_id": job_id,
        "state": "done",
        "reference": float(result.reference),
        "seeds": ok_seeds,
        "lengths": [float(r.length) for r in result.results],
        "tours": [[int(c) for c in r.tour] for r in result.results],
        "ratios": [float(x) for x in result.ratios],
        "best": {
            "length": float(result.best.length),
            "tour": [int(c) for c in result.best.tour],
        },
        "ratio_stats": (
            None
            if stats is None
            else {
                "mean": stats.mean,
                "minimum": stats.minimum,
                "maximum": stats.maximum,
            }
        ),
        "telemetry": None if telemetry is None else telemetry.to_dict(),
    }
