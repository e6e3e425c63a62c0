"""Two-clock fleet benchmark: host throughput and per-layer host time.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-handshake --seed 1 --seconds 10 --trace 0

Each workload runs in this one process (no worker pool).  ``--trace 0``
times closed-loop passes over a seed-built input with tracing off and
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics plus the tracing
overhead.  Every pass must produce the same decisions and simulated
metrics, traced or not; the last stdout line is the JSON result.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads: on a small shared box a second
# OpenBLAS thread only spins against the simulator's own thread.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import ALL_LAYERS, LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    SIM_UNITS, WORKLOADS, OutputError, make_workload, reference_slot,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median of 3
SETUP_REF_SAMPLES = 60  # reference samples at each set-up phase boundary
KREF_S = 0.4  # seconds per kref: the fixed speed set-up time is expressed at
MIN_PASSES = 2  # per pass kind, so every run checks a repeat


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'repro'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def pass_rate(p: dict) -> float:
    """Items completed per kref in one pass.

    A kref is the host time of 1000 runs of the reference loop.  Each
    item's host time is converted at the mean of the reference samples
    taken just before and just after it.  The shared machine switches
    between faster and slower states for spells from under a second to
    minutes; an item and the samples beside it run in the same state, so
    the ratio cancels most of that drift.
    """
    kref = [1000.0 * statistics.median(slot) for slot in p["ref_slots"]]
    krefs = sum(t / ((kref[i] + kref[i + 1]) / 2) for i, t in enumerate(p["item_s"]))
    return p["completed"] / krefs


def status_kib(*keys: str) -> list[int]:
    """Fields of ``/proc/self/status``, in KiB."""
    with open("/proc/self/status") as f:
        status = dict(line.split(":", 1) for line in f)
    return [int(status[k].split()[0]) for k in keys]


def peak_rss_mib() -> float:
    """Peak resident memory (VmHWM) less the file-backed pages resident now.

    File-backed pages are mostly shared libraries; how many of them a
    fault maps in depends on the host's page cache.
    """
    hwm, file_kib, shmem_kib = status_kib("VmHWM", "RssFile", "RssShmem")
    return (hwm - file_kib - shmem_kib) / 1024.0


class SetupClock:
    """Set-up time, phase by phase, in seconds at a fixed reference speed.

    ``mark()`` ends a phase: it samples the reference loop and scales the
    phase's host time by ``KREF_S`` over the mean kref of the samples on
    either side (the first phase has only the one after it).  The shared
    host switches between fast and slow states lasting from under a
    second to minutes, which moved raw set-up time of the same code by
    1.6x between two sets of runs; samples at the phase boundaries track
    the state the phase ran in.  Sampling time is not counted.
    """

    def __init__(self, t0: float):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._start = t0
        self._kref = None

    def mark(self) -> None:
        phase = time.perf_counter() - self._start
        kref = 1000.0 * statistics.median(reference_slot(SETUP_REF_SAMPLES))
        before = kref if self._kref is None else self._kref
        self.raw_s += phase
        self.scaled_s += phase * KREF_S / ((before + kref) / 2)
        self._kref = kref
        self._start = time.perf_counter()


def probe_setups(args) -> list[tuple[float, float, str]]:
    """Set up the workload again in fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((doc["setup_s"], doc["setup_raw_s"], doc["warmup_digest"]))
    return out


def timed_loop(workload, seconds: float, trace: bool) -> list[dict]:
    """Repeat passes for ``seconds``; with ``trace``, alternate traced ones."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = None
        if traced:
            tracer = LayerTracer()
            workload.install_layers(tracer)
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = workload.run_pass(tracer)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        result.update(traced=traced, wall_s=wall,
                      stats=tracer.stats if tracer is not None else None)
        passes.append(result)
        enough = len(passes) >= MIN_PASSES * (2 if trace else 1)
        if enough and time.perf_counter() - start >= seconds:
            return passes


def layer_metrics(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer medians over the traced passes, plus tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)

    def med(layer: str, field: int) -> float:
        return statistics.median(
            p["stats"].get(layer, [0, 0, 0, 0])[field] for p in traced
        )

    out: dict[str, tuple[float, str]] = {}
    self_total = 0.0
    for layer in ALL_LAYERS:
        self_s = med(layer, 2) / 1e9
        self_total += self_s
        out[f"{layer}.calls"] = (med(layer, 0), "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (self_s / traced_wall, "share")
    out["relay.tls.handshake.incl_s"] = (med("relay.tls.handshake", 1) / 1e9, "s")
    out["relay.tls.handshake.failures"] = (med("relay.tls.handshake", 3), "count")
    out["relay.relay.send_transcript.failures"] = (
        med("relay.relay.send_transcript", 3), "count",
    )
    doc = passes[0]["doc"]
    attempted_utt = doc.get("utterances_attempted", 0)
    out["sim.clock.advance.calls_per_utt"] = (
        med("sim.clock.advance", 0) / attempted_utt if attempted_utt else 0.0,
        "count/utt",
    )
    out["trace.untraced_pass_s"] = (plain_wall, "s")
    out["trace.traced_pass_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    out["trace.overhead_share"] = ((traced_wall - plain_wall) / plain_wall, "share")
    out["trace.named_self_share"] = (self_total / traced_wall, "share")
    return out


def sim_metrics(doc: dict) -> dict[str, tuple[float, str]]:
    """The pass document's simulated metrics and exact counts, with units."""
    return {name: (doc.get(name, 0), unit) for name, unit in SIM_UNITS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    clock = SetupClock(_T0)
    clock.mark()
    load_program()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {WORKLOADS}")
    workload = make_workload(args.workload, args.seed, SRC / "repro")
    clock.mark()
    warmup_digest = workload.setup(clock.mark)
    clock.mark()
    if args.setup_probe:
        print(json.dumps({"setup_s": clock.scaled_s, "setup_raw_s": clock.raw_s,
                          "warmup_digest": warmup_digest}))
        return 0

    problems: list[str] = []
    setups = [clock.scaled_s]
    setups_raw = [clock.raw_s]
    if not args.trace:
        for probe_s, probe_raw_s, probe_digest in probe_setups(args):
            setups.append(probe_s)
            setups_raw.append(probe_raw_s)
            if probe_digest != warmup_digest:
                problems.append("warm-up decisions differ between processes")
    try:
        passes = timed_loop(workload, args.seconds, bool(args.trace))
    except OutputError as exc:
        problems.append(str(exc))
        passes = []

    print(f"workload {args.workload}  seed {args.seed}  "
          f"blas_threads {','.join(f'{v}={os.environ[v]}' for v in BLAS_ENV)}")
    # attempted/failed count one pass: the seed's roster.  Repeat passes
    # must reproduce it exactly, so summing them would only scale the
    # counts by however many passes fit into --seconds on this machine.
    counts = {(p["attempted"], p["failed"]) for p in passes}
    if len(counts) > 1:
        problems.append(f"passes attempted/failed differ: {sorted(counts)}")
    attempted, failed = min(counts) if counts else (0, 0)
    metrics: dict[str, tuple[float, str]] = {}
    if passes:
        docs = [p["doc"] for p in passes]
        if any(d != docs[0] for d in docs):
            problems.append("pass documents differ (decisions or simulated metrics)")
        plain = [p for p in passes if not p["traced"]]
        rates = [pass_rate(p) for p in plain]
        q1, q2, q3 = statistics.quantiles(rates, n=4)
        raw = statistics.median(p["completed"] / sum(p["item_s"]) for p in plain)
        print(f"passes {len(plain)} untraced, {len(passes) - len(plain)} traced; "
              f"{plain[0]['attempted']} {workload.ITEMS} per pass")
        print("pass_wall_s " + " ".join(
            f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}" for p in passes))
        print(f"throughput_per_kref quartiles {q1:.4f} {q2:.4f} {q3:.4f} 1/kref")
        if workload.ITEMS == "devices":
            print(f"devices_per_s {raw:.4f} 1/s (raw host wall, median pass)")
        else:
            print(f"analyze_s {1.0 / raw:.4f} s (raw host wall, median pass)")
        print(f"setup_s samples {' '.join(f'{s:.4f}' for s in setups)} s "
              f"(raw host {' '.join(f'{s:.4f}' for s in setups_raw)} s)")
        ref_ms = 1000 * statistics.median(
            x for p in plain for slot in p["ref_slots"] for x in slot)
        print(f"reference loop {ref_ms:.4f} ms (median sample, untraced passes)")
        print("memory VmHWM {} KiB, RssFile {} KiB, RssShmem {} KiB".format(
            *status_kib("VmHWM", "RssFile", "RssShmem")))
        print(f"decisions_digest {docs[0]['digest']}")
        print(f"failures {json.dumps(docs[0].get('failures', {}))}")
        if args.trace:
            metrics = layer_metrics(passes)
            metrics.update(sim_metrics(docs[0]))
        else:
            for name, (value, unit) in sim_metrics(docs[0]).items():
                print(f"{name} {value} {unit}")
            metrics = {
                "throughput_per_kref": (q2, "1/kref"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mib": (peak_rss_mib(), "MiB"),
            }
        for name, (value, unit) in metrics.items():
            print(f"{name} {value} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems and bool(passes),
        "attempted": max(attempted, 1),  # 0 only when a check stopped the loop
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
