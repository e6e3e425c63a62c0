"""Per-domain power model and energy meter.

Power figures are representative of a Jetson-class module in a mid DVFS
state (CPU rails a couple of watts, DMA and peripherals far below).  The
secure CPU draws slightly more than the normal CPU for the same cycle
count — TEE exception-level plumbing and cache behaviour — and the
monitor's world-switch work is charged at the higher secure rate too.
As with the cycle cost model, the *relative* structure is what the
reproduction's trends rest on.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.sim.clock import CycleDomain, SimClock


@dataclass(frozen=True)
class PowerModel:
    """Active power per clock domain, in milliwatts."""

    normal_cpu_mw: float = 2000.0
    secure_cpu_mw: float = 2150.0
    monitor_mw: float = 2400.0
    dma_mw: float = 180.0
    peripheral_mw: float = 60.0
    idle_mw: float = 15.0

    def power_mw(self, domain: CycleDomain) -> float:
        """Power drawn while executing in ``domain``."""
        return {
            CycleDomain.NORMAL_CPU: self.normal_cpu_mw,
            CycleDomain.SECURE_CPU: self.secure_cpu_mw,
            CycleDomain.MONITOR: self.monitor_mw,
            CycleDomain.DMA: self.dma_mw,
            CycleDomain.PERIPHERAL: self.peripheral_mw,
            CycleDomain.IDLE: self.idle_mw,
        }[domain]


@dataclass(frozen=True)
class EnergyReport:
    """Energy totals in millijoules, overall and per domain."""

    total_mj: float
    per_domain_mj: dict[CycleDomain, float]

    def domain_mj(self, domain: CycleDomain) -> float:
        """Energy charged to one domain."""
        return self.per_domain_mj.get(domain, 0.0)


@dataclass
class EnergyMeter:
    """Energy as a view of the clock's per-domain cycle totals.

    A domain's energy is ``power_mw[d] × (charged(d) − base[d]) / freq_hz``,
    ``base`` being the clock's :meth:`~SimClock.charged` totals at creation.
    Read with :meth:`report`, or bracket a region with :meth:`snapshot` /
    :meth:`delta_since`.
    """

    clock: SimClock
    power: PowerModel = field(default_factory=PowerModel)
    _base: dict[CycleDomain, int] = field(default_factory=dict, repr=False)
    _totals: Callable[[], dict[CycleDomain, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._totals = self.clock.charged
        self._base = self._totals()

    def energy_mj(self, cycles: dict[CycleDomain, int]) -> dict[CycleDomain, float]:
        """The energy of a per-domain cycle split (zero entries dropped)."""
        seconds = {d: c / self.clock.freq_hz for d, c in cycles.items() if c}
        return {d: self.power.power_mw(d) * s for d, s in seconds.items()}

    def report(self) -> EnergyReport:
        """Cumulative energy since meter creation."""
        return self.delta_since({})

    def snapshot(self) -> dict[CycleDomain, float]:
        """Current per-domain totals, for delta measurement."""
        base, totals = self._base, self._totals()
        return self.energy_mj({d: c - base.get(d, 0) for d, c in totals.items()})

    def delta_since(self, snapshot: dict[CycleDomain, float]) -> EnergyReport:
        """Energy accumulated since a snapshot."""
        per_domain = {}
        for domain, mj in self.snapshot().items():
            diff = mj - snapshot.get(domain, 0.0)
            if diff > 0:
                per_domain[domain] = diff
        return EnergyReport(
            total_mj=sum(per_domain.values()), per_domain_mj=per_domain
        )

    def detach(self) -> None:
        """Stop metering: read the clock's totals as they stand now."""
        self._totals = self._totals().copy
