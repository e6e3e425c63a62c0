"""The cloud voice service (honest-but-curious adversary).

Terminates TLS, speaks the AVS-style protocol, answers every Recognize
with a directive — and appends every transcript it ever sees to
:attr:`received_transcripts`.  Registered as a network endpoint with the
supplicant's :class:`~repro.optee.supplicant.NetworkService`.

A ``plaintext_port`` variant accepts unencrypted events, modelling the
baseline device that sends raw data; the wire eavesdropper sees those
bytes in the clear.

Ingestion tier (production shape)
---------------------------------

Passing an :class:`IngestionConfig` turns the handler into a sharded,
multi-tenant ingestion service: every Recognize gets an *admission
verdict* instead of unconditional acceptance.  Tenants (devices) hash to
shards; each tenant owns a token bucket (rate limit) and a bounded
pending queue.  An event that finds tokens and queue space is admitted —
its dedup key registers *at admission*, so a retry of an
admitted-but-uncommitted event is suppressed exactly like a committed one
— and the reply is byte-identical to the legacy accepted reply.  An
event that finds neither is answered ``{"directive": "Throttled",
"retryAfterCycles": N}`` with a deterministic hint derived from the
bucket's refill rate and the tenant's backlog; nothing registers, so the
device's later re-send (same dialog id, higher attempt) is admitted
normally.  Admitted events *commit* (append to :attr:`received`) as the
service's modelled drain loop catches up — driven by the simulation
clock at ``service_cycles_per_record`` — or all at once via
:meth:`flush` at end of run.

With ``ingestion=None`` (the default) the legacy single-queue behaviour
is preserved exactly, byte for byte — the ingestion tier must be
opt-in so the pre-existing wire and decision baselines stay pinned.
"""

from __future__ import annotations

import json
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import RecordError
from repro.relay.avs import AvsEvent
from repro.relay.tls import TlsServer
from repro.sim.rng import SimRng


@dataclass
class CloudRecord:
    """One transcript as the cloud received it.

    ``trace_id`` is the device-derived correlation id carried on the
    event (empty for trace-off senders) — it lets an operator join this
    record with the device-side spans of the same utterance.
    """

    transcript: str
    dialog_id: int
    encrypted_transport: bool
    attempt: int = 1
    device_id: str = ""
    trace_id: str = ""


@dataclass(frozen=True)
class IngestionConfig:
    """Sizing of the sharded multi-tenant admission tier.

    ``shards`` partitions tenants (by a deterministic CRC of the device
    id — never Python's salted ``hash``); each tenant gets a token
    bucket of ``bucket_capacity`` tokens refilling one token per
    ``refill_cycles_per_token`` cycles, plus a pending queue bounded at
    ``tenant_queue_depth``.  The drain loop commits one pending record
    per ``service_cycles_per_record`` cycles per shard.  Admission
    latency is modelled (not charged to the caller) as
    ``admission_base_cycles + admission_cycles_per_pending × backlog``.
    """

    shards: int = 4
    tenant_queue_depth: int = 8
    bucket_capacity: int = 4
    refill_cycles_per_token: int = 2_000_000
    service_cycles_per_record: int = 500_000
    admission_base_cycles: int = 2_000
    admission_cycles_per_pending: int = 150

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.tenant_queue_depth < 1:
            raise ValueError("tenant_queue_depth must be at least 1")
        if self.bucket_capacity < 1:
            raise ValueError("bucket_capacity must be at least 1")
        for name in (
            "refill_cycles_per_token",
            "service_cycles_per_record",
            "admission_base_cycles",
            "admission_cycles_per_pending",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def overload(cls) -> "IngestionConfig":
        """The ``--overload`` profile: capacity far below offered load.

        One token refills per ~2 s of simulated time (4e9 cycles at the
        2 GHz sim clock — much longer than any utterance cadence) and
        tenants queue at most two pending events, so after the first
        admission a device slams into Throttled verdicts — the profile
        the device-side backpressure loop (server-directed backoff,
        sealed queue, bounded-depth shedding) is proven against.
        """
        return cls(
            shards=2,
            tenant_queue_depth=2,
            bucket_capacity=1,
            refill_cycles_per_token=4_000_000_000,
            service_cycles_per_record=2_000_000_000,
        )

    @classmethod
    def unthrottled(cls) -> "IngestionConfig":
        """An ingestion tier so large it never says Throttled.

        Used by the equivalence proofs: the admission machinery runs on
        every event, yet every verdict is "accepted" — so wire bytes and
        decisions must match a legacy (``ingestion=None``) run exactly.
        """
        return cls(
            shards=4,
            tenant_queue_depth=1_000_000,
            bucket_capacity=1_000_000,
            refill_cycles_per_token=1,
            service_cycles_per_record=1,
        )


def tenant_shard(device_id: str, shards: int) -> int:
    """Deterministic tenant→shard mapping (CRC32, never salted hash)."""
    return zlib.crc32(device_id.encode()) % shards


def _dedup_fields(payload: dict[str, Any]) -> tuple[int, int]:
    """An event's ``(dialogRequestId, attempt)``, typed from device input.

    Both must be real ints (JSON ``true`` is not an id) and attempts count
    from 1; anything else is a :class:`RecordError`, answered "bad event".
    """
    dialog_id = payload.get("dialogRequestId", -1)
    attempt = payload.get("attempt", 1)
    if type(dialog_id) is not int or type(attempt) is not int or attempt < 1:
        raise RecordError(
            f"malformed AVS event: dialogRequestId={dialog_id!r}, "
            f"attempt={attempt!r}"
        )
    return dialog_id, attempt


@dataclass
class _TenantState:
    """One tenant's bucket and pending queue inside a shard."""

    tokens: float
    last_refill: int
    pending: deque = field(default_factory=deque)


class _IngestShard:
    """One shard: tenant states plus a round-robin drain cursor."""

    def __init__(self, config: IngestionConfig):
        self.config = config
        self.tenants: dict[str, _TenantState] = {}
        # Tenant ids in first-seen order; the drain loop round-robins
        # over this list so no tenant starves behind a noisy neighbour.
        self.order: list[str] = []
        self.drain_cursor = 0
        self.last_drain_cycle: int | None = None

    def tenant(self, device_id: str, now: int) -> _TenantState:
        state = self.tenants.get(device_id)
        if state is None:
            state = _TenantState(
                tokens=float(self.config.bucket_capacity), last_refill=now
            )
            self.tenants[device_id] = state
            self.order.append(device_id)
        return state

    def refill(self, state: _TenantState, now: int) -> None:
        """Advance the token bucket to ``now`` (integer-exact)."""
        elapsed = max(0, now - state.last_refill)
        if self.config.refill_cycles_per_token <= 0:
            state.tokens = float(self.config.bucket_capacity)
            state.last_refill = now
            return
        earned = elapsed // self.config.refill_cycles_per_token
        if earned:
            state.tokens = min(
                float(self.config.bucket_capacity), state.tokens + earned
            )
            state.last_refill += earned * self.config.refill_cycles_per_token

    def depth(self) -> int:
        """Pending (admitted, uncommitted) records across the shard."""
        return sum(len(t.pending) for t in self.tenants.values())

    def pop_next(self):
        """Round-robin pop of the oldest pending record, or ``None``."""
        if not self.order:
            return None
        for _ in range(len(self.order)):
            tenant = self.order[self.drain_cursor % len(self.order)]
            self.drain_cursor = (self.drain_cursor + 1) % len(self.order)
            pending = self.tenants[tenant].pending
            if pending:
                return pending.popleft()
        return None


class VoiceCloudService:
    """AVS-flavoured endpoint with adversarial logging."""

    HOST = "avs.cloud.example"
    TLS_PORT = 443
    PLAINTEXT_PORT = 80

    def __init__(self, rng: SimRng, clock=None, metrics=None, ingestion=None):
        """``clock``/``metrics``/``ingestion`` enable the admission tier.

        ``ingestion`` (an :class:`IngestionConfig`) requires ``clock`` (a
        :class:`~repro.sim.clock.SimClock`, read-only — the service never
        advances it); ``metrics`` (a
        :class:`~repro.obs.metrics.MetricsRegistry`) is optional and
        feeds the ``cloud.ingest.*`` namespace.  All three default off,
        which preserves the legacy handler byte for byte.
        """
        self.tls = TlsServer(rng.fork("tls-server"))
        self.tls.set_handler(lambda pt: self._handle_event(pt, encrypted=True))
        self.received: list[CloudRecord] = []
        self.events_handled = 0
        # Delivery is at-least-once under an unreliable network: a retry of
        # a dialog id the service already recorded (attempt > 1, same id,
        # same sender) is acknowledged but not recorded again.  The sender
        # identity is part of the key — dialog ids are per-device counters,
        # so two devices legitimately reuse the same id.
        self._seen_dialogs: set[tuple[bool, str, int]] = set()
        self.duplicates_suppressed = 0
        # Device-health alerts (SLO violations, flight-recorder dumps)
        # delivered through the same relay path as transcripts.
        self.alerts: list[dict] = []
        self.ingestion: IngestionConfig | None = ingestion
        self._clock = clock
        self._metrics = metrics
        if ingestion is not None and clock is None:
            raise ValueError("ingestion tier requires a clock")
        self._shards = (
            [_IngestShard(ingestion) for _ in range(ingestion.shards)]
            if ingestion is not None
            else []
        )
        self.accepted = 0
        self.throttled = 0
        self.committed = 0

    # -- endpoints (supplicant NetworkService interface) ------------------------

    def receive(self, payload: bytes) -> bytes:
        """TLS endpoint: handshake messages and records."""
        return self.tls.handle(payload)

    @property
    def plaintext_endpoint(self) -> "PlaintextEndpoint":
        """The port-80 endpoint accepting raw AVS events (baseline path)."""
        return PlaintextEndpoint(self)

    # -- ingestion tier ---------------------------------------------------------

    def _inc(self, name: str, value: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.inc(name, value)

    def pending_depth(self) -> int:
        """Admitted-but-uncommitted records across every shard."""
        return sum(shard.depth() for shard in self._shards)

    def _drain_shards(self, now: int) -> None:
        """Commit pending records the modelled drain loop has caught up to.

        Each shard commits one record per ``service_cycles_per_record``
        elapsed cycles, round-robin across its tenants.  Driven lazily
        from event arrivals — the service owns no thread; the simulation
        clock is read, never advanced.
        """
        assert self.ingestion is not None
        per_record = max(1, self.ingestion.service_cycles_per_record)
        for shard in self._shards:
            if shard.last_drain_cycle is None:
                shard.last_drain_cycle = now
                continue
            budget = (now - shard.last_drain_cycle) // per_record
            shard.last_drain_cycle += budget * per_record
            while budget > 0:
                record = shard.pop_next()
                if record is None:
                    break
                self.received.append(record)
                self.committed += 1
                self._inc("cloud.ingest.committed")
                budget -= 1

    def flush(self) -> int:
        """Commit every pending record immediately (end-of-run settle).

        Returns the number committed.  A no-op without an ingestion tier.
        """
        flushed = 0
        for shard in self._shards:
            while True:
                record = shard.pop_next()
                if record is None:
                    break
                self.received.append(record)
                self.committed += 1
                self._inc("cloud.ingest.committed")
                flushed += 1
        return flushed

    def _admit(
        self, record: CloudRecord, key: tuple[bool, str, int]
    ) -> bytes:
        """Admission verdict for one new (non-duplicate) Recognize."""
        assert self.ingestion is not None and self._clock is not None
        config = self.ingestion
        now = int(self._clock.now)
        self._drain_shards(now)
        shard = self._shards[tenant_shard(record.device_id, config.shards)]
        state = shard.tenant(record.device_id, now)
        shard.refill(state, now)
        backlog = len(state.pending)
        if state.tokens < 1.0 or backlog >= config.tenant_queue_depth:
            # Deterministic retry hint: cycles until the bucket earns a
            # token, plus the time the drain loop needs to clear this
            # tenant's backlog — both pure functions of config + state.
            deficit = max(0.0, 1.0 - state.tokens)
            wait = int(deficit * config.refill_cycles_per_token)
            wait += backlog * config.service_cycles_per_record
            self.throttled += 1
            self._inc("cloud.ingest.throttled")
            self._set_depth_gauge()
            return json.dumps(
                {"directive": "Throttled", "retryAfterCycles": max(1, wait)}
            ).encode()
        state.tokens -= 1.0
        # Register at admission, not at commit: a reconnecting device
        # retrying an admitted-but-uncommitted event must be suppressed,
        # or the commit loop would record the decision twice.
        self._seen_dialogs.add(key)
        state.pending.append(record)
        self.accepted += 1
        self._inc("cloud.ingest.accepted")
        if self._metrics is not None:
            self._metrics.observe(
                "cloud.ingest.admission_cycles",
                config.admission_base_cycles
                + config.admission_cycles_per_pending * shard.depth(),
            )
        self._set_depth_gauge()
        # Byte-identical to the legacy accepted reply: the device-side
        # wire-byte baselines must not move when admission always passes.
        return json.dumps(
            {
                "directive": "Response",
                "speech": f"ok: {len(record.transcript)} chars",
            }
        ).encode()

    def _set_depth_gauge(self) -> None:
        if self._metrics is not None:
            self._metrics.set("cloud.ingest.queue_depth", self.pending_depth())

    # -- application layer ------------------------------------------------------------

    def _handle_event(self, payload: bytes, encrypted: bool) -> bytes:
        try:
            event = AvsEvent.from_bytes(payload)
            if event.name in ("Recognize", "Alert"):
                dialog_id, attempt = _dedup_fields(event.payload)
        except RecordError:
            return json.dumps({"directive": "error", "reason": "bad event"}).encode()
        self.events_handled += 1
        if event.name == "Recognize":
            transcript = str(event.payload.get("transcript", ""))
            device_id = str(event.payload.get("deviceId", ""))
            trace_id = str(event.payload.get("traceId", ""))
            key = (encrypted, device_id, dialog_id)
            if attempt > 1 and key in self._seen_dialogs:
                # Idempotent replay: the sender never saw our first reply.
                self.duplicates_suppressed += 1
                self._inc("cloud.ingest.deduped")
            else:
                record = CloudRecord(
                    transcript=transcript,
                    dialog_id=dialog_id,
                    encrypted_transport=encrypted,
                    attempt=attempt,
                    device_id=device_id,
                    trace_id=trace_id,
                )
                if self.ingestion is not None:
                    return self._admit(record, key)
                self._seen_dialogs.add(key)
                self.received.append(record)
            return json.dumps(
                {"directive": "Response", "speech": f"ok: {len(transcript)} chars"}
            ).encode()
        if event.name == "Alert":
            device_id = str(event.payload.get("deviceId", ""))
            key = (encrypted, device_id, dialog_id)
            if attempt > 1 and key in self._seen_dialogs:
                self.duplicates_suppressed += 1
            else:
                self._seen_dialogs.add(key)
                try:
                    doc = json.loads(str(event.payload.get("alert", "{}")))
                except json.JSONDecodeError:
                    doc = {"malformed": True}
                self.alerts.append(doc)
            return json.dumps({"directive": "AlertAck"}).encode()
        return json.dumps({"directive": "Ack"}).encode()

    # -- adversarial view -----------------------------------------------------------------

    @property
    def received_transcripts(self) -> list[str]:
        """Every transcript the provider has stored."""
        return [r.transcript for r in self.received]


@dataclass
class PlaintextEndpoint:
    """Port-80 face of the service: raw AVS events, no TLS."""

    service: VoiceCloudService

    def receive(self, payload: bytes) -> bytes:
        """Handle one unencrypted AVS event."""
        return self.service._handle_event(payload, encrypted=False)
