"""Unit tests: SimConfig and relay module internals not covered elsewhere."""

import pytest

from repro.relay.relay import MAX_RETRY_AFTER_CYCLES
from repro.sim.config import SimConfig
from repro.sim.clock import CycleDomain


class TestSimConfig:
    def test_builders_honor_settings(self):
        config = SimConfig(seed=9, freq_hz=1e9, trace_capacity=100)
        clock = config.build_clock()
        assert clock.freq_hz == 1e9
        rng = config.build_rng()
        assert rng.seed == 9
        trace = config.build_trace()
        assert trace.capacity == 100

    def test_trace_can_start_disabled(self):
        config = SimConfig(trace_enabled=False)
        trace = config.build_trace()
        trace.emit(0, "c", "e")
        assert len(trace) == 0

    def test_default_seed_reproducible(self):
        a = SimConfig().build_rng().bytes(8)
        b = SimConfig().build_rng().bytes(8)
        assert a == b

    def test_machine_uses_config(self):
        from repro.tz.machine import MachineConfig, TrustZoneMachine

        sim = SimConfig(seed=77, freq_hz=1.5e9)
        machine = TrustZoneMachine(MachineConfig(sim=sim))
        assert machine.clock.freq_hz == 1.5e9
        assert machine.rng.seed == 77


class TestRelayModule:
    """Direct RelayModule behaviour (indirectly exercised via pipelines)."""

    @pytest.fixture
    def relay_setup(self, machine):
        from repro.cloud.service import VoiceCloudService
        from repro.optee.os import OpTeeOs
        from repro.optee.supplicant import TeeSupplicant
        from repro.optee.ta import TaContext, TrustedApplication
        from repro.relay.relay import RelayModule
        from repro.sim.rng import SimRng

        tee = OpTeeOs(machine)
        supplicant = TeeSupplicant(machine)
        tee.attach_supplicant(supplicant)
        cloud = VoiceCloudService(SimRng(1, "cloud"))
        supplicant.net.register_endpoint(cloud.HOST, cloud.TLS_PORT, cloud)

        ta = TrustedApplication()
        ta.ctx = TaContext(tee, ta)
        relay = RelayModule(
            ta.ctx, cloud.HOST, cloud.TLS_PORT,
            cloud.tls.static_public, SimRng(2, "relay"),
        )
        return machine, relay, cloud

    def test_connect_is_idempotent(self, relay_setup):
        from repro.tz.worlds import World

        machine, relay, _ = relay_setup
        machine.cpu._set_world(World.SECURE)
        try:
            relay.connect()
            handshakes = relay._tls.handshakes
            relay.connect()
            assert relay._tls.handshakes == handshakes
        finally:
            machine.cpu._set_world(World.NORMAL)

    def test_transcript_reaches_cloud_encrypted(self, relay_setup):
        from repro.tz.worlds import World

        machine, relay, cloud = relay_setup
        machine.cpu._set_world(World.SECURE)
        try:
            directive = relay.send_transcript("hello cloud")
        finally:
            machine.cpu._set_world(World.NORMAL)
        assert directive["directive"] == "Response"
        assert cloud.received_transcripts == ["hello cloud"]
        assert relay.bytes_sent > 0

    def test_heartbeat(self, relay_setup):
        from repro.tz.worlds import World

        machine, relay, cloud = relay_setup
        machine.cpu._set_world(World.SECURE)
        try:
            assert relay.heartbeat()["directive"] == "Ack"
        finally:
            machine.cpu._set_world(World.NORMAL)

    @pytest.mark.parametrize(
        "reply",
        [b"[]", b'{"directive":"Throttled","retryAfterCycles":1e400}'],
        ids=["list", "inf-hint"],
    )
    def test_malformed_directive_takes_retry_path(self, relay_setup, reply):
        """A bad directive burns the retry budget like any record error
        instead of escaping as AttributeError/OverflowError."""
        from repro.errors import RelayExhaustedError
        from repro.tz.worlds import World

        machine, relay, cloud = relay_setup
        cloud.tls.set_handler(lambda plaintext: reply)
        machine.cpu._set_world(World.SECURE)
        try:
            with pytest.raises(RelayExhaustedError, match="malformed directive"):
                relay.heartbeat()
        finally:
            machine.cpu._set_world(World.NORMAL)
        assert relay.stats["retries"] == relay.policy.max_attempts - 1
        assert relay.backpressure_until == 0

    def test_throttle_hint_clamped_to_maximum(self, relay_setup):
        """A cloud hint of 10^15 cycles (~5.8 simulated days) opens a
        backpressure window no longer than MAX_RETRY_AFTER_CYCLES."""
        from repro.errors import RelayThrottledError
        from repro.tz.worlds import World

        machine, relay, cloud = relay_setup
        cloud.tls.set_handler(
            lambda plaintext:
            b'{"directive":"Throttled","retryAfterCycles":1000000000000000}'
        )
        machine.cpu._set_world(World.SECURE)
        try:
            with pytest.raises(RelayThrottledError) as excinfo:
                relay.send_transcript("hello cloud")
            opened = machine.clock.now
            with pytest.raises(RelayThrottledError) as deferred:
                relay.heartbeat()
        finally:
            machine.cpu._set_world(World.NORMAL)
        limit = MAX_RETRY_AFTER_CYCLES
        assert excinfo.value.retry_after_cycles == limit
        assert 0 < relay.backpressure_until - opened <= limit
        assert deferred.value.deferred
        assert deferred.value.retry_after_cycles <= limit

    def test_hint_bound_covers_honest_overload_hints(self):
        """The clamp never shortens a hint the overload profile can issue:
        at most one token refill plus a full tenant backlog drain."""
        from repro.cloud.service import IngestionConfig

        config = IngestionConfig.overload()
        worst = (config.refill_cycles_per_token
                 + config.tenant_queue_depth * config.service_cycles_per_record)
        assert MAX_RETRY_AFTER_CYCLES > worst
