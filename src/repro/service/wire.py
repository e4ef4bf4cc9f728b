"""The JSON wire format of the cleaning-recommendation service.

Everything the service says is canonical JSON (key-sorted, no whitespace)
so two byte-equal responses are the same response.  The one piece of
cryptographic bookkeeping lives here too: :func:`plan_signature_hex`, the
SHA-256 stamp over ``{"plan": [...], "version": v}`` that every plan read
and ingest ack carries.  The concurrent-history harness replays the
journal serially and recomputes the same stamp — a served plan that was
torn between versions, or mislabeled with a version it does not belong
to, cannot produce a matching signature.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

__all__ = [
    "MAX_BODY_BYTES",
    "ServiceError",
    "canonical_json",
    "parse_json_body",
    "plan_signature_hex",
]


#: Largest request body the service reads; longer bodies get a 413.
MAX_BODY_BYTES = 1 << 20


class ServiceError(Exception):
    """A request failure with an HTTP status and a machine-readable code.

    Raised anywhere inside request handling; the HTTP layer maps it to a
    JSON error body ``{"error": message, "code": code}`` with the carried
    status.  ``retryable`` marks failures a client may safely re-send with
    the same idempotency key (503-style transient conditions).
    """

    def __init__(
        self,
        status: int,
        message: str,
        code: str = "bad_request",
        retryable: bool = False,
    ):
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.retryable = bool(retryable)

    def body(self) -> Dict[str, object]:
        """The JSON error body the HTTP layer serializes."""
        payload: Dict[str, object] = {"error": str(self), "code": self.code}
        if self.retryable:
            payload["retryable"] = True
        return payload


def canonical_json(payload: object) -> str:
    """Key-sorted, whitespace-free JSON — the service's only wire form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def plan_signature_hex(version: int, plan: Sequence[int]) -> str:
    """The SHA-256 stamp binding ``plan`` to its ``version``.

    Computed over the canonical JSON of ``{"plan": [...], "version": v}``;
    the serial replay recomputes it from the journal, so a response whose
    signature matches was byte-for-byte the serial plan at that version.
    """
    text = canonical_json({"plan": [int(i) for i in plan], "version": int(version)})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_json_body(raw: bytes, max_bytes: int = MAX_BODY_BYTES) -> Dict[str, object]:
    """Parse a request body as a JSON object, mapping failures to 400s."""
    if len(raw) > max_bytes:
        raise ServiceError(413, f"request body exceeds {max_bytes} bytes", "too_large")
    if not raw:
        return {}
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(400, f"malformed JSON body: {error}", "bad_json") from None
    if not isinstance(payload, dict):
        raise ServiceError(400, "request body must be a JSON object", "bad_json")
    return payload


def require_number(
    payload: Dict[str, object],
    field: str,
    minimum: Optional[float] = None,
    default: Optional[float] = None,
) -> float:
    """A numeric field with a lower bound, or a 400 naming the field."""
    value = payload.get(field, default)
    if value is None:
        raise ServiceError(400, f"missing required field {field!r}", "missing_field")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(400, f"field {field!r} must be a number", "bad_field")
    number = float(value)
    if minimum is not None and number < minimum:
        raise ServiceError(
            400, f"field {field!r} must be >= {minimum:g}, got {number:g}", "bad_field"
        )
    return number
