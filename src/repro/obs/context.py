"""The machine-level observability context.

One :class:`Observability` instance hangs off every
:class:`~repro.tz.machine.TrustZoneMachine` as ``machine.obs``, bundling
the span tracer and the metrics registry so instrumented subsystems reach
both through a single attribute.  Its ``cycles.<domain>`` counters, the
whole-run domain totals ``repro profile`` reads, are filled from the clock's
per-domain totals when read: nothing runs per clock charge.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanTracer, _ActiveSpan
from repro.sim.clock import SimClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.energy.model import EnergyMeter
    from repro.obs.health import FlightRecorder
    from repro.sim.trace import TraceLog
    from repro.tz.worlds import Cpu


class Observability:
    """Span tracer + metrics registry for one machine."""

    def __init__(
        self,
        clock: SimClock,
        trace: "TraceLog | None" = None,
        cpu: "Cpu | None" = None,
    ):
        self.metrics = MetricsRegistry(derived=partial(_cycle_totals, clock))
        self.tracer = SpanTracer(clock, trace=trace, cpu=cpu, metrics=self.metrics)

    # -- convenience -----------------------------------------------------------

    def span(self, name: str, category: str = "span", **attrs: Any) -> _ActiveSpan:
        """Open a span on the machine's tracer."""
        return self.tracer.span(name, category=category, **attrs)

    def attach_energy(self, meter: "EnergyMeter") -> None:
        """Wire the platform energy meter into span attribution."""
        self.tracer.attach_energy(meter)

    def attach_recorder(self, recorder: "FlightRecorder | None") -> None:
        """Feed closed spans into a health flight recorder."""
        self.tracer.attach_recorder(recorder)

    def enable(self) -> None:
        """Resume span retention and metric recording."""
        self.tracer.enabled = True
        self.metrics.enabled = True

    def disable(self) -> None:
        """Stop retaining spans and recording metrics.

        Spans still *measure* (TA stage accounting depends on their
        durations); they just are not kept, counted or mirrored.  Because
        instrumentation is passive either way, a disabled run produces
        byte-identical pipeline outcomes to an enabled one.
        """
        self.tracer.enabled = False
        self.metrics.enabled = False


def _cycle_totals(clock: SimClock) -> dict[str, int]:
    """The clock's per-domain totals as ``cycles.<domain>`` counter values."""
    return {f"cycles.{d.value}": n for d, n in clock.charged().items()}
