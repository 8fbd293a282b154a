"""Request/response protocol of the ``spsta serve`` daemon (schema v1).

One request and one response are each a single JSON object.  Over stdio
the framing is JSON Lines (one object per line); over HTTP the request
is a ``POST /`` body and the response the reply body — the *payloads*
are identical, so a session transcript replays against either transport.

Request envelope::

    {"v": 1, "id": <any JSON scalar, echoed back>, "op": <operation>,
     ...operation fields...}

Operations (see docs/serving.md for the full field tables):

- ``analyze``  — full endpoint report of a circuit under (config,
  algebra, delay model).  Cached by fingerprint key.
- ``query``    — one net/direction report from the same warm state.
- ``edit``     — a delay edit (incremental cone re-timing) or a
  structural edit (``bench`` source: full state rebuild).
- ``invalidate`` — drop a circuit's warm state and cached results.
- ``status``   — daemon counters: sessions, cache, uptime queries.
- ``shutdown`` — stop the serving loop after responding.

Response envelope::

    {"v": 1, "id": ..., "ok": true,  "cached": bool, "seconds": float,
     "result": {...}}
    {"v": 1, "id": ..., "ok": false, "error": {"code": ..., "message":
     ..., ...}}

Error codes: ``bad-request`` (malformed or schema-invalid),
``oversized-request``, ``lint-rejected`` (the ``spsta lint`` preflight
found diagnostics at or above the daemon's ``--fail-on`` severity; the
error carries the structured report), ``unknown-circuit``,
``unknown-gate``, ``internal``.

Validation mirrors :mod:`repro.experiments.bench_schema`: a JSON-Schema
document (:data:`REQUEST_SCHEMA`) is the normative format, `jsonschema`
is used when importable, and an equivalent structural check is the
fallback — the daemon must not depend on optional packages.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.delay import (
    DelayModel,
    MisDelay,
    NormalDelay,
    PerGateDelay,
    UnitDelay,
)
from repro.core.inputs import CONFIG_I, CONFIG_II, InputStats
from repro.core.nldm import FrozenDelays
from repro.hier.model import AlgebraSpec
from repro.stats.grid import TimeGrid

try:                                        # pragma: no cover - optional
    import jsonschema                       # type: ignore[import-untyped]
except ImportError:                         # pragma: no cover
    jsonschema = None

#: Bump on breaking protocol changes (mirrors the lint-report convention).
PROTOCOL_VERSION = 1

#: Hard per-request size cap (bytes of the serialized request); requests
#: past the daemon's limit are refused with ``oversized-request``.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

OPERATIONS = ("analyze", "query", "edit", "invalidate", "status",
              "shutdown")

ALGEBRAS = ("moments", "mixture", "grid")

DELAY_KINDS = ("unit", "normal", "mis", "pergate", "frozen")

#: JSON-Schema (draft 7 subset) of one request envelope.
REQUEST_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["v", "op"],
    "properties": {
        "v": {"const": PROTOCOL_VERSION},
        "id": {"type": ["string", "number", "null"]},
        "op": {"enum": list(OPERATIONS)},
        "circuit": {"type": "string", "minLength": 1},
        "config": {"enum": ["I", "II"]},
        "algebra": {"enum": list(ALGEBRAS)},
        "grid": {"type": "string", "pattern": r"^[^:]+:[^:]+:\d+$"},
        "delay": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(DELAY_KINDS)},
                "value": {"type": "number"},
                "mu": {"type": "number"},
                "sigma": {"type": "number", "minimum": 0},
                "base": {"type": "number"},
                "speedup": {"type": "number"},
                "floor": {"type": "number"},
                "spread": {"type": "number"},
                "relative_sigma": {"type": "number", "minimum": 0},
                "delays": {"type": "object",
                           "additionalProperties": {"type": "number"}},
            },
        },
        # edit fields
        "gate": {"type": "string", "minLength": 1},
        "mu": {"type": "number"},
        "sigma": {"type": "number", "minimum": 0},
        "clear": {"type": "boolean"},
        "bench": {"type": "string", "minLength": 1},
        # query fields
        "net": {"type": "string", "minLength": 1},
        "direction": {"enum": ["rise", "fall"]},
    },
}


class RequestError(ValueError):
    """A request that must be refused, carrying its protocol error code."""

    def __init__(self, message: str, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


def _fail(message: str) -> None:
    raise RequestError(message)


def _validate_fallback(payload: Dict[str, Any]) -> None:
    if payload.get("v") != PROTOCOL_VERSION:
        _fail(f"v must be {PROTOCOL_VERSION}, got {payload.get('v')!r}")
    op = payload.get("op")
    if op not in OPERATIONS:
        _fail(f"op must be one of {OPERATIONS}, got {op!r}")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (str, int,
                                                              float)):
        _fail(f"id must be a JSON scalar, got {type(request_id).__name__}")
    circuit = payload.get("circuit")
    if circuit is not None and (not isinstance(circuit, str)
                                or not circuit):
        _fail(f"circuit must be a non-empty string, got {circuit!r}")
    algebra = payload.get("algebra")
    if algebra is not None and algebra not in ALGEBRAS:
        _fail(f"algebra must be one of {ALGEBRAS}, got {algebra!r}")
    config = payload.get("config")
    if config is not None and config not in ("I", "II"):
        _fail(f"config must be 'I' or 'II', got {config!r}")
    delay = payload.get("delay")
    if delay is not None:
        if not isinstance(delay, dict):
            _fail(f"delay must be an object, got {type(delay).__name__}")
        if delay.get("kind") not in DELAY_KINDS:
            _fail(f"delay.kind must be one of {DELAY_KINDS}, "
                  f"got {delay.get('kind')!r}")
    direction = payload.get("direction")
    if direction is not None and direction not in ("rise", "fall"):
        _fail(f"direction must be 'rise' or 'fall', got {direction!r}")
    for key in ("mu", "sigma"):
        value = payload.get(key)
        if value is not None and (not isinstance(value, (int, float))
                                  or isinstance(value, bool)):
            _fail(f"{key} must be a number, got {value!r}")
    if payload.get("sigma") is not None and payload["sigma"] < 0:
        _fail(f"sigma must be >= 0, got {payload['sigma']!r}")


@functools.lru_cache(maxsize=None)
def _request_validator() -> Any:
    """The jsonschema validator of :data:`REQUEST_SCHEMA`, built on first
    use: resolving the validator class and checking the schema against
    its meta-schema cost more than validating a request, so neither is
    repeated per request (``jsonschema.validate`` would redo both)."""
    cls = jsonschema.validators.validator_for(REQUEST_SCHEMA)
    cls.check_schema(REQUEST_SCHEMA)
    return cls(REQUEST_SCHEMA)


def validate_request(payload: object) -> Dict[str, Any]:
    """Check one request envelope against :data:`REQUEST_SCHEMA`.

    Returns the payload (typed) on success; raises :class:`RequestError`
    with code ``bad-request`` otherwise.  Operation-specific *semantic*
    requirements (an ``analyze`` without ``circuit``, an ``edit``
    without a target) are enforced by the daemon, which knows its
    defaults.
    """
    if not isinstance(payload, dict):
        raise RequestError(
            f"request must be a JSON object, got "
            f"{type(payload).__name__}")
    if jsonschema is not None:              # pragma: no cover - optional
        error = jsonschema.exceptions.best_match(
            _request_validator().iter_errors(payload))
        if error is not None:
            raise RequestError(
                f"schema violation: {error.message}") from error
        return payload
    _validate_fallback(payload)
    return payload


# -- request-field decoding --------------------------------------------------


def config_stats(label: str) -> InputStats:
    """The named input-statistics configuration (paper part I or II)."""
    if label == "I":
        return CONFIG_I
    if label == "II":
        return CONFIG_II
    raise RequestError(f"config must be 'I' or 'II', got {label!r}")


def parse_grid(spec: str) -> TimeGrid:
    """``START:STOP:N`` -> :class:`TimeGrid` (the CLI's --grid syntax)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise RequestError(
            f"grid must be START:STOP:N (e.g. -8:60:2048), got {spec!r}")
    try:
        return TimeGrid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise RequestError(f"bad grid {spec!r}: {exc}") from exc


def parse_algebra(name: str, grid: Optional[str]) -> AlgebraSpec:
    """(algebra name, optional grid spec) -> picklable AlgebraSpec."""
    if name == "moments":
        return AlgebraSpec.moment()
    if name == "mixture":
        return AlgebraSpec.mixture()
    if name == "grid":
        return AlgebraSpec.grid(parse_grid(grid if grid is not None
                                           else "-8:60:2048"))
    raise RequestError(f"algebra must be one of {ALGEBRAS}, got {name!r}")


def parse_delay_model(spec: Optional[Mapping[str, Any]]) -> DelayModel:
    """A delay-model spec object -> the bundled model it names.

    ``None`` means the paper default :class:`UnitDelay`.  Mapping-bearing
    models (``frozen``) are safe cache citizens: the fingerprint layer
    hashes their mappings in sorted-key order
    (:func:`repro.sim.checkpoint.delay_fingerprint`).
    """
    if spec is None:
        return UnitDelay()
    kind = spec.get("kind")
    try:
        if kind == "unit":
            return UnitDelay(float(spec.get("value", 1.0)))
        if kind == "normal":
            return NormalDelay(float(spec.get("mu", 1.0)),
                               float(spec.get("sigma", 0.1)))
        if kind == "mis":
            return MisDelay(float(spec.get("base", 1.0)),
                            float(spec.get("speedup", 0.15)),
                            float(spec.get("floor", 0.3)),
                            float(spec.get("sigma", 0.0)))
        if kind == "pergate":
            return PerGateDelay(float(spec.get("base", 1.0)),
                                float(spec.get("spread", 0.2)))
        if kind == "frozen":
            delays = spec.get("delays")
            if not isinstance(delays, Mapping) or not delays:
                raise RequestError(
                    "delay.kind 'frozen' needs a non-empty "
                    "'delays' mapping of gate -> delay")
            return FrozenDelays(
                {str(gate): float(value)
                 for gate, value in delays.items()},
                float(spec.get("relative_sigma", 0.0)))
    except RequestError:
        raise
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad delay spec {dict(spec)!r}: {exc}") from exc
    raise RequestError(
        f"delay.kind must be one of {DELAY_KINDS}, got {kind!r}")


# -- response envelopes ------------------------------------------------------


def ok_response(request_id: object, result: Mapping[str, Any], *,
                cached: bool, seconds: float) -> Dict[str, Any]:
    """A success envelope; ``result`` is the cache-stable payload."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True,
            "cached": cached, "seconds": seconds, "result": dict(result)}


def error_response(request_id: object, code: str, message: str,
                   detail: Optional[Mapping[str, Any]] = None
                   ) -> Dict[str, Any]:
    """An error envelope with a machine-readable code."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if detail is not None:
        error["detail"] = dict(detail)
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False,
            "error": error}


def response_summary(response: Mapping[str, Any]) -> Tuple[bool, str]:
    """(ok, one-line summary) of a response — session-log convenience."""
    if response.get("ok"):
        cached = "hit" if response.get("cached") else "miss"
        return True, f"ok ({cached}, {response.get('seconds', 0):.4f}s)"
    error = response.get("error", {})
    return False, f"{error.get('code')}: {error.get('message')}"
