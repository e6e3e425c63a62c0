"""AVS-style application protocol.

A minimal Alexa-Voice-Service-shaped event protocol: the device sends
JSON *events* (``Recognize`` with a transcript, ``Heartbeat``), the cloud
answers with *directives* (``Ack``, ``Response``).  Enough structure for
the cloud service to act as a realistic recorder of what it was sent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.errors import RecordError


@dataclass(frozen=True)
class AvsEvent:
    """One device→cloud event."""

    namespace: str
    name: str
    payload: dict[str, Any]

    def to_bytes(self) -> bytes:
        """JSON wire encoding."""
        return json.dumps(
            {
                "event": {
                    "header": {"namespace": self.namespace, "name": self.name},
                    "payload": self.payload,
                }
            }
        ).encode()

    @classmethod
    def recognize(
        cls,
        transcript: str,
        dialog_id: int,
        attempt: int = 1,
        device_id: str = "",
        trace_id: str = "",
    ) -> "AvsEvent":
        """The speech-recognition event carrying a transcript.

        ``attempt`` counts delivery attempts of the *same* logical event
        (``dialogRequestId`` is stable across retries), letting the cloud
        suppress duplicates when only a reply was lost in transit.  First
        attempts omit the field (the receiver defaults it to 1), keeping
        the clean-path wire bytes identical to a retry-free protocol.

        ``device_id`` names the sending device so a *shared* ingestion
        endpoint can scope duplicate suppression per sender — dialog ids
        are only unique within one device's counter.  Like ``attempt``,
        it is omitted when empty so single-device deployments keep their
        historical wire bytes.

        ``trace_id`` correlates the event with the device-side spans of
        the same utterance (deterministically derived in the TA).  Also
        omitted when empty — trace-off runs keep their wire bytes.
        """
        payload: dict[str, Any] = {
            "transcript": transcript,
            "dialogRequestId": dialog_id,
        }
        if attempt > 1:
            payload["attempt"] = attempt
        if device_id:
            payload["deviceId"] = device_id
        if trace_id:
            payload["traceId"] = trace_id
        return cls(
            namespace="SpeechRecognizer", name="Recognize", payload=payload
        )

    @classmethod
    def heartbeat(cls) -> "AvsEvent":
        """Keep-alive event."""
        return cls(namespace="System", name="SynchronizeState", payload={})

    @classmethod
    def alert(
        cls,
        alert_json: str,
        dialog_id: int,
        attempt: int = 1,
        device_id: str = "",
        trace_id: str = "",
    ) -> "AvsEvent":
        """A device-health alert (SLO violation, flight-recorder dump).

        Same retry/duplicate-suppression contract as :meth:`recognize`:
        ``dialogRequestId`` is stable across re-deliveries, ``attempt``
        counts them, and ``device_id``/``trace_id`` scope and correlate
        the event (each omitted when defaulted so first-attempt
        single-device bytes stay unchanged).
        """
        payload: dict[str, Any] = {
            "alert": alert_json,
            "dialogRequestId": dialog_id,
        }
        if attempt > 1:
            payload["attempt"] = attempt
        if device_id:
            payload["deviceId"] = device_id
        if trace_id:
            payload["traceId"] = trace_id
        return cls(namespace="System", name="Alert", payload=payload)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AvsEvent":
        """Parse the wire encoding; any malformed event is a RecordError."""
        try:
            doc = json.loads(data.decode())
            header = doc["event"]["header"]
            event = cls(
                namespace=header["namespace"],
                name=header["name"],
                payload=doc["event"].get("payload", {}),
            )
        except (KeyError, TypeError, AttributeError, json.JSONDecodeError,
                UnicodeDecodeError, RecursionError) as exc:
            raise RecordError(f"malformed AVS event: {exc}") from exc
        if not isinstance(event.payload, dict):
            raise RecordError("malformed AVS event: payload is not an object")
        return event


class AvsClient:
    """Device-side AVS protocol over an encrypted request function."""

    def __init__(self, request, device_id: str = ""):
        """``request`` is a ``bytes -> bytes`` secure channel call.

        ``device_id``, when non-empty, is stamped into every Recognize and
        Alert event so the cloud can scope duplicate suppression per
        sender.
        """
        self._request = request
        self._device_id = device_id
        self._dialog_id = 0
        self.events_sent = 0

    def allocate_dialog_id(self) -> int:
        """Reserve the id for one logical event (stable across retries)."""
        self._dialog_id += 1
        return self._dialog_id

    @property
    def dialog_cursor(self) -> int:
        """The last allocated dialog id (checkpointed for crash recovery)."""
        return self._dialog_id

    def restore_dialog_cursor(self, value: int) -> None:
        """Advance the id counter after a restart (never moves backwards).

        A restarted instance must not re-allocate an id its predecessor
        already spent — the cloud's duplicate suppression would silently
        eat the *new* event.
        """
        self._dialog_id = max(self._dialog_id, int(value))

    def recognize(
        self,
        transcript: str,
        dialog_id: int | None = None,
        attempt: int = 1,
        trace_id: str = "",
    ) -> dict[str, Any]:
        """Send a transcript; returns the cloud's directive."""
        if dialog_id is None:
            dialog_id = self.allocate_dialog_id()
        reply = self._request(
            AvsEvent.recognize(
                transcript, dialog_id, attempt, self._device_id, trace_id
            ).to_bytes()
        )
        self.events_sent += 1
        return self._parse_directive(reply)

    def heartbeat(self) -> dict[str, Any]:
        """Send a keep-alive."""
        reply = self._request(AvsEvent.heartbeat().to_bytes())
        self.events_sent += 1
        return self._parse_directive(reply)

    def alert(
        self,
        alert_json: str,
        dialog_id: int | None = None,
        attempt: int = 1,
        trace_id: str = "",
    ) -> dict[str, Any]:
        """Send a health alert; returns the cloud's directive."""
        if dialog_id is None:
            dialog_id = self.allocate_dialog_id()
        reply = self._request(
            AvsEvent.alert(
                alert_json, dialog_id, attempt, self._device_id, trace_id
            ).to_bytes()
        )
        self.events_sent += 1
        return self._parse_directive(reply)

    @staticmethod
    def _parse_directive(reply: bytes) -> dict[str, Any]:
        """Decode a cloud directive; any malformed reply is a RecordError.

        A directive is a JSON object.  A ``Throttled`` verdict must carry
        a ``retryAfterCycles`` hint, and any hint must be a positive
        ``int`` — JSON ``true``, floats (``1e400`` decodes to ``inf``) and
        strings are rejected — so the relay can use it as-is.
        """
        try:
            directive = json.loads(reply.decode())
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise RecordError(f"malformed directive: {exc}") from exc
        if not isinstance(directive, dict):
            raise RecordError("malformed directive: not an object")
        throttled = directive.get("directive") == "Throttled"
        if throttled or "retryAfterCycles" in directive:
            hint = directive.get("retryAfterCycles")
            if type(hint) is not int or hint < 1:
                raise RecordError(
                    "malformed directive: retryAfterCycles is not a positive int"
                )
        return directive
