"""The energy meter and ``cycles.<domain>`` counters are views of the clock.

A clock charge calls nothing back; both readings are derived from the
clock's per-domain totals when read.  These tests pin the views to what a
per-charge integration (the listener design they replaced) would report.
"""

import math
import pickle
import random

import pytest

from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.energy.model import EnergyMeter, PowerModel
from repro.obs.context import Observability
from repro.obs.fleet import DeviceSpec, simulate_device_runtime
from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import CycleDomain, SimClock
from tests.test_core_pipeline import MIXED, make_workload


def _clock_counters(clock):
    return {
        f"cycles.{d.value}": clock.cycles_in(d)
        for d in CycleDomain
        if clock.cycles_in(d)
    }


class TestCycleCounters:
    def test_match_clock_over_chaos_and_client_crash_device(self, provisioned):
        spec = DeviceSpec(
            device_id="views", seed=4242, utterances=4,
            sensitive_fraction=0.5, fault_profile="lossy",
            secure_fault_profile="chaos", client_crash_profile="chaos",
        )
        runtime = simulate_device_runtime(spec, provisioned.bundle)
        clock = runtime.machine.clock
        expected = _clock_counters(clock)
        assert expected
        registry = runtime.report.registry
        assert registry.counters("cycles.") == expected
        assert {
            n: v for n, v in registry.to_doc()["counters"].items()
            if n.startswith("cycles.")
        } == expected
        assert {
            n: v for n, v in registry.snapshot()["counters"].items()
            if n.startswith("cycles.")
        } == expected
        # Shard workers pickle reports; the fleet rollup merges them.
        shipped = pickle.loads(pickle.dumps(runtime.report)).registry
        assert shipped.counters("cycles.") == expected
        merged = MetricsRegistry()
        merged.merge(shipped)
        merged.merge(registry)
        assert merged.counters("cycles.") == {
            n: 2 * v for n, v in expected.items()
        }

    def test_absent_when_observability_off(self, provisioned):
        spec = DeviceSpec(device_id="dark", seed=4243, utterances=1,
                          sensitive_fraction=0.5, fault_profile="clean")
        runtime = simulate_device_runtime(
            spec, provisioned.bundle, observability=False
        )
        assert runtime.machine.clock.now > 0
        registry = runtime.report.registry
        assert registry.counters() == {}
        assert registry.to_doc()["counters"] == {}

    def test_count_only_while_enabled(self):
        clock = SimClock()
        obs = Observability(clock)
        rng = random.Random(7)
        reference: dict[str, int] = {}
        for step in range(400):
            if step % 37 == 0 and obs.metrics.enabled:
                obs.disable()
            elif step % 37 == 0:
                obs.enable()
            domain = rng.choice(list(CycleDomain))
            cycles = rng.randrange(0, 5_000)
            clock.advance(cycles, domain)
            if obs.metrics.enabled and cycles:
                name = f"cycles.{domain.value}"
                reference[name] = reference.get(name, 0) + cycles
            if step % 53 == 0:
                # Reads in the middle must not disturb later readings.
                obs.metrics.counters()
        assert obs.metrics.counters("cycles.") == reference
        assert obs.metrics.counters("cycles.") != _clock_counters(clock)

    def test_snapshot_ring_and_reset(self):
        clock = SimClock()
        obs = Observability(clock)
        clock.advance(10, CycleDomain.DMA)
        obs.metrics.record_snapshot(clock.now, prefixes=("cycles.",))
        assert obs.metrics.snapshots[-1].counters == {"cycles.dma": 10}
        obs.metrics.reset()
        assert obs.metrics.counters() == {}
        clock.advance(5, CycleDomain.DMA)
        assert obs.metrics.counters() == {"cycles.dma": 5}

    def test_counter_accessor_is_current(self):
        clock = SimClock()
        obs = Observability(clock)
        clock.advance(7, CycleDomain.SECURE_CPU)
        assert obs.metrics.counter("cycles.secure_cpu").value == 7
        clock.advance(3, CycleDomain.SECURE_CPU)
        assert obs.metrics.counter("cycles.secure_cpu").value == 10

    def test_keep_counting_across_clock_reset(self):
        clock = SimClock()
        obs = Observability(clock)
        clock.advance(100, CycleDomain.NORMAL_CPU)
        assert obs.metrics.counters() == {"cycles.normal_cpu": 100}
        clock.reset()
        assert obs.metrics.counters() == {"cycles.normal_cpu": 100}
        # Grow past the pre-reset total before the next read.
        clock.advance(150, CycleDomain.NORMAL_CPU)
        clock.advance(4, CycleDomain.DMA)
        obs.disable()
        obs.enable()
        assert obs.metrics.counters() == {
            "cycles.dma": 4, "cycles.normal_cpu": 250,
        }
        obs.metrics.record_snapshot(clock.now, prefixes=("cycles.",))
        assert obs.metrics.snapshots[-1].counters["cycles.normal_cpu"] == 250
        assert clock.cycles_in(CycleDomain.NORMAL_CPU) == 150


class TestEnergyView:
    def test_agrees_with_per_charge_integration(self):
        power = PowerModel()
        clock = SimClock()
        meter = EnergyMeter(clock, power)
        rng = random.Random(11)
        terms: dict[CycleDomain, list[float]] = {d: [] for d in CycleDomain}
        for _ in range(20_000):
            domain = rng.choice(list(CycleDomain))
            cycles = rng.randrange(1, 2_000_000)
            clock.advance(cycles, domain)
            terms[domain].append(power.power_mw(domain) * (cycles / clock.freq_hz))
        report = meter.report()
        for domain, charges in terms.items():
            assert report.domain_mj(domain) == pytest.approx(
                math.fsum(charges), rel=1e-12
            )
        reference = math.fsum(math.fsum(t) for t in terms.values())
        assert report.total_mj == pytest.approx(reference, rel=1e-12)

    def test_pipeline_energy_agrees_with_per_charge_integration(
        self, provisioned, monkeypatch
    ):
        platform = IotPlatform.create(seed=431)
        clock = platform.machine.clock
        power = platform.energy.power
        terms: list[float] = []
        advance = SimClock.advance

        def integrating_advance(self, cycles, domain):
            if self is clock and cycles > 0:
                terms.append(power.power_mw(domain) * (cycles / self.freq_hz))
            return advance(self, cycles, domain)

        monkeypatch.setattr(SimClock, "advance", integrating_advance)
        before = platform.energy.report().total_mj
        pipeline = SecurePipeline(platform, provisioned.bundle)
        try:
            pipeline.process(make_workload(provisioned, MIXED[:2]))
        finally:
            pipeline.close()
        spent = platform.energy.report().total_mj - before
        assert len(terms) > 1_000
        assert spent == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_meter_created_mid_run_counts_only_later_charges(self):
        clock = SimClock(freq_hz=1e9)
        clock.advance(1_000_000_000, CycleDomain.NORMAL_CPU)
        meter = EnergyMeter(clock, PowerModel(normal_cpu_mw=1000.0))
        assert meter.report().total_mj == 0.0
        assert meter.report().per_domain_mj == {}
        clock.advance(500_000_000, CycleDomain.NORMAL_CPU)
        assert meter.report().total_mj == pytest.approx(500.0)

    def test_detach_freezes_reading(self):
        clock = SimClock(freq_hz=1e9)
        meter = EnergyMeter(clock, PowerModel(secure_cpu_mw=2000.0))
        clock.advance(250_000_000, CycleDomain.SECURE_CPU)
        meter.detach()
        frozen = meter.report()
        clock.advance(750_000_000, CycleDomain.SECURE_CPU)
        assert meter.report() == frozen
        assert frozen.total_mj == pytest.approx(500.0)
        snap = meter.snapshot()
        clock.advance(1_000, CycleDomain.DMA)
        assert meter.delta_since(snap).total_mj == 0.0

    def test_keeps_metering_across_clock_reset(self):
        clock = SimClock(freq_hz=1e9)
        meter = EnergyMeter(clock, PowerModel(normal_cpu_mw=1000.0))
        clock.advance(100_000_000, CycleDomain.NORMAL_CPU)
        clock.reset()
        snap = meter.snapshot()
        clock.advance(300_000_000, CycleDomain.NORMAL_CPU)
        assert meter.report().total_mj == pytest.approx(400.0)
        assert meter.delta_since(snap).total_mj == pytest.approx(300.0)

    def test_span_energy_prices_its_domain_cycles(self):
        clock = SimClock(freq_hz=1e9)
        obs = Observability(clock)
        meter = EnergyMeter(clock)
        obs.attach_energy(meter)
        with obs.span("work") as sp:
            clock.advance(1_000_000, CycleDomain.SECURE_CPU)
            clock.advance(3_000_000, CycleDomain.DMA)
        assert sp.energy_mj > 0
        assert sp.energy_mj == pytest.approx(meter.report().total_mj, rel=1e-12)
