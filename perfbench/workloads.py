"""The benchmark's workloads: rosters built from a seed, one pass each.

A *pass* is one closed-loop sweep over the workload's fixed input: every
device of the roster simulated once, in roster order, each device
issuing its next utterance only after the previous decision returned
(or one full ``run_analysis`` over ``src/repro``).  The timed loop
repeats passes; every pass of one run must produce the same document.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import Counter
from pathlib import Path
from time import perf_counter

from layers import (
    ANALYSIS_ROOT,
    ANALYSIS_TARGETS,
    FLEET_ROOT,
    FLEET_TARGETS,
    LayerTracer,
)

# Roster shapes.  Each fleet pass holds >= 100 utterances so the
# simulated p90 has at least ten samples beyond it.
FLEET_SHAPES = {
    # 1-3 utterances per device, all four network fault profiles in
    # rotation: platform setup and the TLS handshake dominate.
    "fleet-handshake": dict(devices=54, utterances=1),
    # 14-16 utterances per device on a clean link: one handshake per
    # device, capture / ASR / clock fan-out dominate.
    "fleet-capture": dict(devices=8, utterances=14, clean=True),
    # 4-6 utterances per device under TEE chaos, cloud overload and client
    # crashes: sealed checkpoints, queue spills, drains and restarts.  The
    # share of devices lost to TeeTargetDead varies by seed; 64 devices
    # average it enough to keep throughput steady across seeds.
    "fleet-recovery": dict(
        devices=64, utterances=4, chaos=True, overload=True, client_crashes=True
    ),
}
WORKLOADS = (*FLEET_SHAPES, "static-analysis")

#: Simulated metrics and exact program counts of a fleet pass, with units.
SIM_UNITS = {
    "utterances": "count",
    "utterances_attempted": "count",
    "sim_latency_ms_p50": "sim_ms",
    "sim_latency_ms_p90": "sim_ms",
    "sim_energy_mj_per_utt": "sim_mJ",
    "leak_rate": "share",
    "over_block_rate": "share",
    "relay_delivery_rate": "share",
    "utterance_success_rate": "share",
    "device_success_rate": "share",
    "relay.retries": "count",
    "relay.rehandshakes": "count",
    "optee.restarts": "count",
    "core.client_restarts": "count",
    "cloud.throttled": "count",
    "relay.queue.shed": "count",
    "tz.world_switches_per_utt": "count/utt",
}

REF_LOOPS = 3000
REF_SAMPLES = 5

_FORWARDED = {"sent", "queued", "throttled", "shed"}
_WITHHELD = {"dropped", "suppressed"}


def reference_slot(samples: int = REF_SAMPLES) -> list[float]:
    """Host seconds of ``samples`` runs of a fixed pure-Python loop.

    Taken between items, these samples track how fast the shared host is
    running right now, so item times can be expressed in reference units
    that cancel machine-speed drift.
    """
    out = []
    for _ in range(samples):
        t0 = perf_counter()
        x, table = 0, {}
        for i in range(REF_LOOPS):
            x = (x * 31 + i) % 1_000_003
            table[i & 63] = x
        out.append(perf_counter() - t0)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class OutputError(Exception):
    """The program produced an output the benchmark's checks reject."""


class FleetWorkload:
    """Closed-loop fleet sweep through ``repro.obs.fleet.simulate_device``."""

    ITEMS = "devices"

    def __init__(self, name: str, seed: int):
        from repro.obs.fleet import device_specs

        shape = dict(FLEET_SHAPES[name])
        clean = shape.pop("clean", False)
        specs = device_specs(shape.pop("devices"), seed=seed, **shape)
        if clean:
            specs = [dataclasses.replace(s, fault_profile="clean") for s in specs]
        self.specs = specs
        self.bundle = None
        self._decisions: list = []

    def setup(self, mark) -> str:
        """Provision the CNN bundle and run one untimed warm-up device.

        ``mark()`` is called between the two steps.  Returns the warm-up
        device's decision digest, which must match across processes.
        """
        from repro.core.pipeline import SecurePipeline
        from repro.obs.fleet import simulate_device
        from repro.provision import provision_bundle

        self.bundle = provision_bundle(seed=42, architecture="cnn").bundle
        mark()
        # Decisions are read where the program hands them back to the
        # client application; the wrapper only keeps a reference.
        process_item = SecurePipeline.process_item
        decisions = self._decisions

        def logged(pipeline, item):
            result = process_item(pipeline, item)
            decisions.append(result)
            return result

        SecurePipeline.process_item = logged
        self._simulate = simulate_device
        warm = self.specs[0]
        report, decided = self._simulate_one(simulate_device, warm)
        raised = report if isinstance(report, Exception) else None
        return _digest(self._lines(warm, decided, raised))

    def _simulate_one(self, simulate, spec):
        """``(report or the exception raised, decisions made)`` of one device."""
        self._decisions.clear()
        try:
            report = simulate(spec, self.bundle)
        except Exception as exc:  # one lost device must not end the run
            report = exc
        return report, list(self._decisions)

    @staticmethod
    def install_layers(tracer: LayerTracer) -> None:
        for target in FLEET_TARGETS:
            tracer.patch(*target)

    def run_pass(self, tracer: LayerTracer | None) -> dict:
        """Simulate every device once, timing each device.

        A device that raises is counted by exception type and the pass
        goes on.
        """
        simulate = self._simulate
        if tracer is not None:
            simulate = tracer.wrap(FLEET_ROOT, simulate)
        reports, failures, lines, item_s = [], Counter(), [], []
        ref_slots = [reference_slot()]
        for spec in self.specs:
            t0 = perf_counter()
            report, decided = self._simulate_one(simulate, spec)
            item_s.append(perf_counter() - t0)
            ref_slots.append(reference_slot())
            if isinstance(report, Exception):
                failures[type(report).__name__] += 1
                lines += self._lines(spec, decided, report)
                continue
            if len(decided) != report.summary["utterances"] or [
                r.latency_cycles for r in decided
            ] != report.latencies:
                raise OutputError(f"{spec.device_id}: report disagrees with decisions")
            for r in decided:
                if r.relay_status not in (_FORWARDED if r.forwarded else _WITHHELD):
                    raise OutputError(
                        f"{spec.device_id}: forwarded={r.forwarded} "
                        f"with relay status {r.relay_status!r}"
                    )
            reports.append((report, decided))
            lines += self._lines(spec, decided, None)
        failed = sum(failures.values())
        return {
            "completed": len(self.specs) - failed,
            "attempted": len(self.specs),
            "failed": failed,
            "item_s": item_s,
            "ref_slots": ref_slots,
            "doc": self._document(reports, failures, _digest(lines)),
        }

    @staticmethod
    def _lines(spec, decided, exc) -> list[str]:
        out = [
            f"{spec.device_id}|{seq}|{int(r.sensitive_predicted)}|"
            f"{int(r.forwarded)}|{r.relay_status}|{r.latency_cycles}"
            for seq, r in enumerate(decided)
        ]
        if exc is not None:
            out.append(f"{spec.device_id}|raised|{type(exc).__name__}")
        return out

    def _document(self, reports, failures: Counter, digest: str) -> dict:
        """Every simulated metric and exact count of one pass."""
        from repro.sim.clock import cycles_to_ms

        latencies_ms = [
            cycles_to_ms(c, report.freq_hz)
            for report, _ in reports
            for c in report.latencies
        ]
        decided = [r for _, rs in reports for r in rs]
        sensitive = [r for r in decided if r.utterance.sensitive]
        benign = [r for r in decided if not r.utterance.sensitive]
        forwarded = sum(rep.summary["forwarded"] for rep, _ in reports)
        delivered = sum(
            rep.summary["sent"] + rep.relay.get("drained", 0) for rep, _ in reports
        )
        attempted_utt = sum(s.utterances for s in self.specs)
        n = len(decided)
        return {
            "digest": digest,
            "failures": dict(sorted(failures.items())),
            "utterances": n,
            "utterances_attempted": attempted_utt,
            "sim_latency_ms_p50": percentile(latencies_ms, 0.50),
            "sim_latency_ms_p90": percentile(latencies_ms, 0.90),
            "sim_energy_mj_per_utt": sum(rep.energy_mj for rep, _ in reports) / n,
            "leak_rate": sum(r.forwarded for r in sensitive) / len(sensitive),
            "over_block_rate": sum(not r.forwarded for r in benign) / len(benign),
            "relay_delivery_rate": delivered / forwarded,
            "utterance_success_rate": sum(not r.degraded for r in decided)
            / attempted_utt,
            "device_success_rate": len(reports) / len(self.specs),
            "relay.retries": sum(rep.relay.get("retries", 0) for rep, _ in reports),
            "relay.rehandshakes": sum(
                rep.relay.get("rehandshakes", 0) for rep, _ in reports
            ),
            "optee.restarts": sum(rep.restarts for rep, _ in reports),
            "core.client_restarts": sum(rep.client_restarts for rep, _ in reports),
            "cloud.throttled": sum(
                rep.summary.get("throttled", 0) for rep, _ in reports
            ),
            "relay.queue.shed": sum(rep.summary.get("shed", 0) for rep, _ in reports),
            "tz.world_switches_per_utt": sum(rep.world_switches for rep, _ in reports)
            / n,
        }


class AnalysisWorkload:
    """Repeated in-process ``run_analysis`` passes over ``src/repro``.

    The input is the repository's own source, so the seed does not
    change it.
    """

    ITEMS = "analysis passes"

    def __init__(self, package_root: Path):
        self.root = package_root

    def setup(self, mark) -> str:
        """Run one untimed warm-up pass; returns its findings digest.

        ``mark()`` is called after each check of the pass.
        """
        from repro.analysis.runner import run_analysis

        self._run = run_analysis
        undo = self._after_each_check(mark)
        try:
            return self._check(run_analysis(self.root))
        finally:
            undo()

    @staticmethod
    def _after_each_check(callback):
        """Call ``callback()`` after each check in ``runner._PASSES``.

        A pass is one ~2 s call, longer than the host's fast and slow
        spells, so reference samples at its ends alone do not track the
        state it ran in.  Returns the function that undoes the patch.
        """
        from repro.analysis import runner

        checks = runner._PASSES

        def then_call(check):
            def run_check(*args, **kwargs):
                try:
                    return check(*args, **kwargs)
                finally:
                    callback()

            return run_check

        runner._PASSES = tuple(then_call(c) for c in checks)
        return lambda: setattr(runner, "_PASSES", checks)

    @staticmethod
    def install_layers(tracer: LayerTracer) -> None:
        for target in ANALYSIS_TARGETS:
            tracer.patch(*target)
        tracer.patch_analysis_passes()

    def run_pass(self, tracer: LayerTracer | None) -> dict:
        run = self._run
        # Sample the reference longer at the ends of the pass and, untraced,
        # after each check too: each check is then an item of its own, so
        # it is timed against the samples beside it.  Sampling time is not
        # counted.
        ref_slots = [reference_slot(5 * REF_SAMPLES)]
        edges: list[float] = []  # start and end of each mid-pass sample

        def sample() -> None:
            edges.append(perf_counter())
            ref_slots.append(reference_slot())
            edges.append(perf_counter())

        if tracer is not None:
            run = tracer.wrap(ANALYSIS_ROOT, run)
            undo = None
        else:
            undo = self._after_each_check(sample)
        t0 = perf_counter()
        try:
            report = run(self.root)
        finally:
            if undo is not None:
                undo()
        bounds = [t0, *edges, perf_counter()]
        item_s = [b - a for a, b in zip(bounds[::2], bounds[1::2])]
        ref_slots.append(reference_slot(5 * REF_SAMPLES))
        return {
            "completed": 1,
            "attempted": 1,
            "failed": 0,
            "item_s": item_s,
            "ref_slots": ref_slots,
            "doc": {"digest": self._check(report)},
        }

    @staticmethod
    def _check(report) -> str:
        """Fail on new or stale findings against the committed baseline."""
        if report.new_findings or report.stale:
            raise OutputError(
                f"analysis baseline mismatch: new="
                f"{[f.fingerprint for f in report.new_findings]} "
                f"stale={report.stale}"
            )
        return _digest(sorted(f.fingerprint for f in report.findings))


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def make_workload(name: str, seed: int, package_root: Path):
    if name == "static-analysis":
        return AnalysisWorkload(package_root)
    return FleetWorkload(name, seed)
