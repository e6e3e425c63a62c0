"""Unit tests: TLS-like handshake, record layer, AVS protocol."""

import json

import pytest

from repro.errors import HandshakeError, RecordError
from repro.relay.avs import AvsClient, AvsEvent
from repro.relay.tls import TlsClient, TlsServer
from repro.sim.rng import SimRng


@pytest.fixture
def pair():
    server = TlsServer(SimRng(1, "server"))
    client = TlsClient(server.handle, server.static_public, SimRng(2, "client"))
    return server, client


class TestHandshake:
    def test_handshake_succeeds(self, pair):
        server, client = pair
        client.handshake()
        assert client.connected
        assert client.handshakes == 1

    def test_request_before_handshake_rejected(self, pair):
        _, client = pair
        with pytest.raises(HandshakeError):
            client.request(b"early")

    def test_wrong_pinned_key_detected(self):
        """MITM: client pins key A, talks to server with key B."""
        real = TlsServer(SimRng(1, "server"))
        mitm = TlsServer(SimRng(9, "mitm"))
        client = TlsClient(mitm.handle, real.static_public, SimRng(2, "c"))
        with pytest.raises(HandshakeError, match="MITM|finished"):
            client.handshake()

    def test_rehandshake_resets_sequences(self, pair):
        server, client = pair
        client.handshake()
        client.request(b"one")
        client.handshake()
        assert client.request(b"two") is not None


class TestRecords:
    def test_round_trip(self, pair):
        server, client = pair
        server.set_handler(lambda pt: pt.upper())
        client.handshake()
        assert client.request(b"hello") == b"HELLO"

    def test_multiple_records_in_order(self, pair):
        server, client = pair
        server.set_handler(lambda pt: pt)
        client.handshake()
        for i in range(5):
            assert client.request(f"msg{i}".encode()) == f"msg{i}".encode()

    def test_plaintext_never_on_wire(self, pair):
        server, client = pair
        wire = []
        original = server.handle

        def tapped(request):
            wire.append(request)
            return original(request)

        client._transport = tapped
        client.handshake()
        client.request(b"my social security number")
        joined = b"".join(wire)
        assert b"social security" not in joined

    def test_replayed_record_rejected(self, pair):
        server, client = pair
        client.handshake()
        captured = {}
        original = server.handle

        def capture(request):
            msg = json.loads(request.decode())
            if msg.get("type") == "record":
                captured["wire"] = request
            return original(request)

        client._transport = capture
        client.request(b"first")
        with pytest.raises(RecordError, match="sequence"):
            server.handle(captured["wire"])  # replay

    def test_record_before_handshake_rejected(self):
        server = TlsServer(SimRng(1, "s"))
        wire = json.dumps({"type": "record", "seq": 0, "payload": "00"}).encode()
        with pytest.raises(HandshakeError):
            server.handle(wire)

    def test_malformed_message_rejected(self):
        server = TlsServer(SimRng(1, "s"))
        with pytest.raises(RecordError):
            server.handle(b"\xff\xfe not json")
        with pytest.raises(RecordError):
            server.handle(json.dumps({"type": "martian"}).encode())

    def test_tampered_record_rejected(self, pair):
        from repro.errors import AuthenticationFailure

        server, client = pair
        client.handshake()
        original_transport = client._transport

        def tamper(request):
            msg = json.loads(request.decode())
            if msg.get("type") == "record":
                payload = bytearray.fromhex(msg["payload"])
                payload[0] ^= 0xFF
                msg["payload"] = payload.hex()
                request = json.dumps(msg).encode()
            return original_transport(request)

        client._transport = tamper
        with pytest.raises(AuthenticationFailure):
            client.request(b"data")


def _rewrite_reply(server, edit):
    """A transport that lets ``edit`` mutate each decoded server reply."""

    def transport(request):
        reply = json.loads(server.handle(request).decode())
        edit(reply)
        return json.dumps(reply).encode()

    return transport


class TestMalformedWire:
    """Each missing or mistyped field is a protocol error, never a raw
    KeyError/TypeError/ValueError that would escape the relay's retry path."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda reply: reply.pop("finished"),
            lambda reply: reply.update(nonce=12),
            lambda reply: reply.update(public=12),
            lambda reply: reply.update(public="zz"),
            lambda reply: reply.update(public=""),
            lambda reply: reply.update(finished=None),
        ],
        ids=[
            "no-finished", "int-nonce", "int-public", "non-hex-public",
            "empty-public", "null-finished",
        ],
    )
    def test_client_rejects_malformed_server_hello(self, edit):
        server = TlsServer(SimRng(1, "server"))
        client = TlsClient(
            _rewrite_reply(server, edit), server.static_public, SimRng(2, "c")
        )
        with pytest.raises(HandshakeError, match="malformed server hello"):
            client.handshake()
        assert not client.connected

    @pytest.mark.parametrize(
        "hello",
        [
            {"type": "client_hello"},
            {"type": "client_hello", "public": 12, "nonce": "00"},
            {"type": "client_hello", "public": "not hex!", "nonce": "00"},
            {"type": "client_hello", "public": "0x1f", "nonce": "00"},
            {"type": "client_hello", "public": "1f", "nonce": 7},
            {"type": "client_hello", "public": "1f", "nonce": "0g"},
        ],
        ids=[
            "no-fields", "int-public", "non-hex-public", "prefixed-public",
            "int-nonce", "non-hex-nonce",
        ],
    )
    def test_server_rejects_malformed_client_hello(self, hello):
        server = TlsServer(SimRng(1, "server"))
        with pytest.raises(HandshakeError, match="malformed client hello"):
            server.handle(json.dumps(hello).encode())

    @pytest.mark.parametrize(
        "edit",
        [
            lambda reply: reply.pop("seq"),
            lambda reply: reply.update(seq="0"),
            lambda reply: reply.update(seq=True),
            lambda reply: reply.update(seq=-1),
            lambda reply: reply.update(payload=5),
            lambda reply: reply.update(payload="xyz"),
        ],
        ids=[
            "no-seq", "str-seq", "bool-seq", "negative-seq", "int-payload",
            "non-hex-payload",
        ],
    )
    def test_client_rejects_malformed_record(self, edit):
        server = TlsServer(SimRng(1, "server"))
        client = TlsClient(server.handle, server.static_public, SimRng(2, "c"))
        client.handshake()

        def edit_records(reply):
            if reply.get("type") == "record":
                edit(reply)

        client._transport = _rewrite_reply(server, edit_records)
        with pytest.raises(RecordError, match="malformed record"):
            client.request(b"hello")

    @pytest.mark.parametrize(
        "record",
        [
            {"type": "record"},
            {"type": "record", "seq": "0", "payload": "00"},
            {"type": "record", "seq": False, "payload": "00"},
            {"type": "record", "seq": 0, "payload": None},
        ],
        ids=["no-fields", "str-seq", "bool-seq", "null-payload"],
    )
    def test_server_rejects_malformed_record(self, pair, record):
        server, client = pair
        client.handshake()
        with pytest.raises(RecordError, match="malformed record"):
            server.handle(json.dumps(record).encode())

    def test_deeply_nested_message_rejected(self):
        server = TlsServer(SimRng(1, "server"))
        with pytest.raises(RecordError):
            server.handle(b"[" * 100_000)


class TestAvsProtocol:
    def test_event_round_trip(self):
        event = AvsEvent.recognize("play music", dialog_id=3)
        parsed = AvsEvent.from_bytes(event.to_bytes())
        assert parsed.name == "Recognize"
        assert parsed.payload["transcript"] == "play music"
        assert parsed.payload["dialogRequestId"] == 3

    def test_heartbeat_shape(self):
        event = AvsEvent.heartbeat()
        assert event.namespace == "System"

    def test_malformed_event_rejected(self):
        with pytest.raises(RecordError):
            AvsEvent.from_bytes(b"{}")
        with pytest.raises(RecordError):
            AvsEvent.from_bytes(b"junk")

    def test_client_over_secure_channel(self, pair):
        server, client = pair
        received = []

        def app(plaintext):
            received.append(AvsEvent.from_bytes(plaintext))
            return json.dumps({"directive": "Ack"}).encode()

        server.set_handler(app)
        client.handshake()
        avs = AvsClient(client.request)
        directive = avs.recognize("what time is it")
        assert directive == {"directive": "Ack"}
        assert received[0].payload["transcript"] == "what time is it"
        assert avs.events_sent == 1

    def test_dialog_ids_increment(self, pair):
        server, client = pair
        server.set_handler(lambda pt: b'{"directive":"Ack"}')
        client.handshake()
        avs = AvsClient(client.request)
        avs.recognize("a")
        avs.recognize("b")
        assert avs._dialog_id == 2


class TestDirectiveDecoding:
    @pytest.mark.parametrize(
        "reply",
        [
            b"[]",
            b'"x"',
            b'{"directive":"Throttled","retryAfterCycles":1e400}',
            b'"12"',
            b"true",
            b'{"directive":"Throttled"}',
            b'{"directive":"Throttled","retryAfterCycles":true}',
            b'{"directive":"Throttled","retryAfterCycles":2.5}',
            b'{"directive":"Throttled","retryAfterCycles":"12"}',
            b'{"directive":"Throttled","retryAfterCycles":0}',
            b'{"directive":"Ack","retryAfterCycles":-3}',
            b"[" * 100_000,
        ],
        ids=[
            "list", "string", "inf-hint", "numeric-string", "bool",
            "missing-hint", "bool-hint", "float-hint", "string-hint",
            "zero-hint", "negative-hint-on-ack", "deep-nesting",
        ],
    )
    def test_malformed_directive_is_record_error(self, reply):
        with pytest.raises(RecordError, match="malformed directive"):
            AvsClient._parse_directive(reply)

    def test_valid_directives_pass_through(self):
        throttled = b'{"directive":"Throttled","retryAfterCycles":40}'
        assert AvsClient._parse_directive(throttled) == {
            "directive": "Throttled", "retryAfterCycles": 40,
        }
        assert AvsClient._parse_directive(b'{"directive":"Ack"}') == {
            "directive": "Ack",
        }


def _event_bytes(name, payload):
    namespace = "SpeechRecognizer" if name == "Recognize" else "System"
    return json.dumps({
        "event": {
            "header": {"namespace": namespace, "name": name},
            "payload": payload,
        }
    }).encode()


class TestCloudEventDecoding:
    """Device-supplied event fields are decoded, never int()-coerced: each
    malformed event gets the "bad event" reply and records nothing."""

    BAD_EVENT = {"directive": "error", "reason": "bad event"}

    @pytest.mark.parametrize(
        "event",
        [
            _event_bytes("Recognize", {"transcript": "t", "dialogRequestId": "x"}),
            _event_bytes("Recognize", {"transcript": "t", "dialogRequestId": True}),
            _event_bytes("Recognize", {"transcript": "t", "dialogRequestId": 1.5}),
            _event_bytes("Recognize", {"transcript": "t", "dialogRequestId": None}),
            _event_bytes("Recognize", {"dialogRequestId": 1, "attempt": [1]}),
            _event_bytes("Recognize", {"dialogRequestId": 1, "attempt": "2"}),
            _event_bytes("Recognize", {"dialogRequestId": 1, "attempt": True}),
            _event_bytes("Recognize", {"dialogRequestId": 1, "attempt": 0}),
            _event_bytes("Recognize", {"dialogRequestId": 1, "attempt": -4}),
            _event_bytes("Alert", {"alert": "{}", "dialogRequestId": "x"}),
            _event_bytes("Alert", {"alert": "{}", "dialogRequestId": 1,
                                   "attempt": [1]}),
            _event_bytes("Recognize", ["transcript"]),
            b'{"event": []}',
            b"[]",
            b"[" * 100_000,
        ],
        ids=[
            "string-dialog-id", "bool-dialog-id", "float-dialog-id",
            "null-dialog-id", "list-attempt", "string-attempt", "bool-attempt",
            "zero-attempt", "negative-attempt", "alert-string-dialog-id",
            "alert-list-attempt", "list-payload", "list-event", "list-doc",
            "deep-nesting",
        ],
    )
    def test_malformed_event_gets_bad_event_reply(self, event):
        from repro.cloud.service import VoiceCloudService

        cloud = VoiceCloudService(SimRng(1, "cloud"))
        reply = cloud._handle_event(event, encrypted=True)
        assert json.loads(reply) == self.BAD_EVENT
        assert cloud.received == []
        assert cloud.alerts == []
        assert cloud.events_handled == 0

    def test_well_typed_events_still_recorded(self):
        from repro.cloud.service import VoiceCloudService

        cloud = VoiceCloudService(SimRng(1, "cloud"))
        first = AvsEvent.recognize("hello", dialog_id=7).to_bytes()
        retry = AvsEvent.recognize("hello", dialog_id=7, attempt=2).to_bytes()
        assert json.loads(cloud._handle_event(first, True))["directive"] == (
            "Response"
        )
        cloud._handle_event(retry, True)
        assert cloud.received_transcripts == ["hello"]
        assert cloud.duplicates_suppressed == 1
        alert = AvsEvent.alert('{"rule": "r"}', dialog_id=8).to_bytes()
        assert json.loads(cloud._handle_event(alert, True)) == {
            "directive": "AlertAck"
        }
        assert cloud.alerts == [{"rule": "r"}]
