"""Host-time layer tracer, installed around the program's public entry points.

The tracer wraps methods and functions from the outside (the program has
no host-time spans of its own yet).  Each wrapped call is one span; spans
nest through a stack, so a layer's *self* time is its own span minus the
spans of wrapped calls made inside it.  Only host time is recorded, never
anything the program reads back, so tracing cannot change a decision.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

#: (layer, module, owner class or ``None`` for a module attribute, attribute)
FLEET_TARGETS = (
    ("core.platform.create", "repro.core.platform", "IotPlatform", "create"),
    ("core.pipeline.open", "repro.core.pipeline", "SecurePipeline", "__init__"),
    ("crypto.dh", "repro.crypto.dh", "DhKeyPair", "generate"),
    ("crypto.dh", "repro.crypto.dh", "DhKeyPair", "shared_secret"),
    ("relay.tls.handshake", "repro.relay.tls", "TlsClient", "handshake"),
    ("core.pta_audio.invoke", "repro.core.pta_audio", "SecureAudioPta", "on_invoke"),
    ("sim.clock.advance", "repro.sim.clock", "SimClock", "advance"),
    ("ml.asr.transcribe", "repro.ml.asr", "MatchedFilterAsr", "transcribe"),
    ("core.filter.apply", "repro.core.filter", "SensitiveFilter", "apply"),
    ("relay.relay.send_transcript", "repro.relay.relay", "RelayModule", "send_transcript"),
    ("cloud.service.receive", "repro.cloud.service", "VoiceCloudService", "receive"),
    ("relay.queue.enqueue", "repro.relay.queue", "StoreForwardQueue", "enqueue"),
    ("relay.queue.drain", "repro.relay.queue", "StoreForwardQueue", "drain"),
    ("optee.storage.put", "repro.optee.storage", "SecureStorage", "put"),
    ("optee.storage.get", "repro.optee.storage", "SecureStorage", "get"),
    ("optee.supervise.invoke", "repro.optee.supervise", "TaSupervisor", "invoke"),
)
FLEET_ROOT = "obs.fleet.simulate_device"

ANALYSIS_TARGETS = (
    ("analysis.load_project", "repro.analysis.runner", None, "load_project"),
)
#: One layer per entry of ``runner._PASSES``, in that order.
ANALYSIS_PASSES = (
    "check_worlds",
    "check_taint",
    "check_determinism",
    "check_secret_hygiene",
    "check_obs_facade",
    "check_dead_tcb",
)
ANALYSIS_ROOT = "analysis.run_analysis"

#: Every layer the traced run reports, in output order.
ALL_LAYERS = (
    *dict.fromkeys(target[0] for target in FLEET_TARGETS),
    FLEET_ROOT,
    *(target[0] for target in ANALYSIS_TARGETS),
    *(f"analysis.{name}" for name in ANALYSIS_PASSES),
    ANALYSIS_ROOT,
)


class LayerTracer:
    """Per-layer calls, inclusive and self nanoseconds, and failures."""

    def __init__(self) -> None:
        # layer -> [calls, inclusive ns, self ns, failures]
        self.stats: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        """Return ``fn`` wrapped in a span named ``layer``."""
        stack = self._stack
        stat = self.stats.setdefault(layer, [0, 0, 0, 0])

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - t0
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def patch(self, layer: str, module: str, owner: str | None, attr: str) -> None:
        """Replace ``module.owner.attr`` with its traced form until restore."""
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        raw = vars(target)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(layer, raw.__func__))
        else:
            new = self.wrap(layer, raw)
        setattr(target, attr, new)
        self._patches.append((target, attr, raw))

    def patch_analysis_passes(self) -> None:
        """Trace each pass in ``runner._PASSES`` under its own layer."""
        runner = importlib.import_module("repro.analysis.runner")
        passes = runner._PASSES
        if tuple(p.__name__ for p in passes) != ANALYSIS_PASSES:
            raise RuntimeError(
                f"runner._PASSES changed: {[p.__name__ for p in passes]}"
            )
        runner._PASSES = tuple(
            self.wrap(f"analysis.{p.__name__}", p) for p in passes
        )
        self._patches.append((runner, "_PASSES", passes))

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            target, attr, raw = self._patches.pop()
            setattr(target, attr, raw)
