"""End-to-end and per-layer benchmark of the CrowdWiFi system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload uci_loop --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper on the
program; ``--trace 1`` is a separate run that patches timing wrappers
onto every layer and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--write-golden`` records the reference
campaign's quality and work counts into ``golden.json`` (done once, when
the program's behaviour changes on purpose).

See README.md in this directory for why each workload exists and which
end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

#: Open-loop ladders of total offered rates (requests/s, half lookups,
#: half journaled uploads), climbed until the first rung that misses the
#: limit, and the rate the latency figures are read at.  A rung near the
#: system's capacity passes on one run and fails on the next (rush_hour
#: at 4000 rps: p90 1.4 ms on one run, 13.9 ms on another), so each
#: ladder tops out at a rate the workload sustains with a wide margin:
#: ``sustained_rps`` is a floor check on a 2-vCPU host, and the latency
#: figures at the fixed rate are where a slower server shows first.
#: ``uci_loop``'s traffic goes to two segments (one per shard) where
#: rush_hour's spreads over 48, so its ladder keeps a wider margin.
LADDERS_RPS = {
    "uci_loop": (250.0, 500.0, 1000.0),
    "rush_hour": (500.0, 1000.0, 2000.0),
}
#: Well below what each workload sustains, so that a spell of hypervisor
#: steal slows the requests without tipping them into queueing: at 1000
#: rps, rush_hour's p90 read 0.86–0.97 ms on quiet runs and 1.8–6.6 ms on
#: runs with 3–9% of CPU time stolen.
FIXED_RPS = {"uci_loop": 500.0, "rush_hour": 500.0}
#: On the p90 of every request sent in a rung; a failure counts as a miss.
P90_LIMIT_MS = 5.0
#: One traffic slice runs after every campaign (a quarter to a third of
#: the run); two windows of the fixed rate fit in it.
SLICE_S = 1.0
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3
MIN_CAMPAIGNS = 3
#: Extra crowdsourcing rounds timed after each ``uci_loop`` campaign.
ROUND_REPEATS = 9

END_TO_END_UNITS = {
    "campaign_s": "s",
    "round_s": "s",
    "lookup_p50_ms": "ms",
    "lookup_p90_ms": "ms",
    "upload_p50_ms": "ms",
    "upload_p90_ms": "ms",
    "sustained_rps": "1/s",
    "detected_aps": "count",
    "matched_error_m": "m",
    "map_precision": "ratio",
    "success_rate": "ratio",
    "setup_s": "s",
}


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def host_ref() -> float:
    """Seconds for a fixed benchmark-owned kernel (host-speed diagnostic).

    Interpreter work plus a numpy pass, like the program's own mix.  It
    does not depend on the program, so when it slows down with the
    program's figures the host was slow, not the program.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += (i * i) % 7
    values = np.arange(40_000, dtype=float)
    for _ in range(20):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - start


@contextlib.contextmanager
def on_cpu(index: Optional[int]) -> Iterator[None]:
    """Run the block on allowed CPU ``index`` (modulo), then restore.

    The calling thread and the threads and processes it starts inside
    the block (a campaign's shard processes) stay on that one CPU; the
    shards keep it until their cluster closes.  ``None`` pins nothing.
    Used for ``uci_loop`` campaigns only, for two reasons measured on a
    shared 2-vCPU virtual machine:

    * a client and a shard that pass requests back and forth across two
      vCPUs wait for the hypervisor to wake the idle one on every hop:
      with 0.2–6% of CPU time stolen, five-seed sets of unpinned
      campaigns spread 0.21 and 0.48 of their median on ``round_s``,
      against 0.08 over ten seeds with each campaign on one vCPU;
    * one vCPU can run 30–50% slower than the other for a minute (the
      same city-scale engine campaign took 3.2–3.5 s on one and 2.3–2.6
      s on the other), so alternating ``index`` samples both.

    Nothing the program could overlap is lost: a ``uci_loop`` campaign
    maps the campus as one segment, so one shard does all its serving
    work, and the scheduler's steps run one after another, so the engine
    never overlaps a shard.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if index is None or len(allowed) < 2:
        yield
        return
    os.sched_setaffinity(0, {allowed[index % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def cpu_times() -> Tuple[float, float]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat`` (0s elsewhere).

    Steal is time the hypervisor ran someone else on the machine's
    virtual CPUs; its share over a run is the second host diagnostic
    next to ``host.ref_s``.
    """
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()[1:]
    except OSError:
        return 0.0, 0.0
    values = [float(v) for v in fields]
    return (values[7] if len(values) > 7 else 0.0), sum(values[:8])


def steal_share(before: Tuple[float, float]) -> float:
    """Share of CPU time stolen since ``before`` (a :func:`cpu_times`)."""
    steal, total = cpu_times()
    elapsed = total - before[1]
    return (steal - before[0]) / elapsed if elapsed > 0 else 0.0


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.add(1, 0 if ok else 1, reason)

    def add(self, attempted: int, failed: int, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 10:
            self.reasons.append(reason)


# -- set-up ---------------------------------------------------------------


def measure_setup(workload: str, work: Path, ledger: Ledger) -> List[float]:
    """Seconds from a fresh interpreter to a system ready for work."""
    samples: List[float] = []
    for probe in range(SETUP_PROBES):
        start = time.perf_counter()
        process = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "setup_probe.py"),
                workload,
                str(work / f"setup-{probe}"),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert process.stdout is not None
            line = process.stdout.readline()
            elapsed = time.perf_counter() - start
            process.stdout.read()
            code = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        ok = code == 0 and line.strip() == "ready"
        ledger.record(ok, f"setup probe exited {code} after {line!r}")
        if ok:
            samples.append(elapsed)
    return samples


# -- reference campaign ---------------------------------------------------


def reference_campaign(
    wl: Any, ledger: Ledger, *, write_golden: bool
) -> Tuple[Any, Dict[str, float]]:
    """Run the fixed-seed campaign under counting wrappers; check it.

    Returns the campaign and its quality and work counts.  Every cluster
    it starts is closed before the wrappers come off.
    """
    import numpy as np

    import layers
    from tracer import Tracer
    from workloads import REFERENCE_SEED, rush_inputs

    tracer = Tracer(layers.LAYERS)
    with tracer.installed(layers.install), tracer.recording():
        if wl.name == "rush_hour":
            wl.start("reference", REFERENCE_SEED)
            try:
                rng = np.random.default_rng(REFERENCE_SEED)
                run = wl.campaign(rush_inputs(rng, 0), rng)
                stats = tracer.snapshot()
            finally:
                wl.stop()
        else:
            run = wl.campaign(np.random.default_rng(REFERENCE_SEED), "reference")
            stats = tracer.snapshot()
    observed: Dict[str, float] = {
        key: value
        for key, value in layers.work_counts(stats).items()
        if value != 0
    }
    observed["quality.detected_aps"] = run.quality.detected_aps
    observed["quality.matched_error_m"] = run.quality.matched_error_m
    observed["quality.map_precision"] = run.quality.map_precision
    observed["quality.entries"] = run.quality.entries
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if write_golden:
        golden[wl.name] = observed
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        _log(f"wrote {len(observed)} golden values for {wl.name}")
    expected = golden.get(wl.name)
    mismatches: List[str] = []
    if expected is None:
        mismatches.append("no golden values recorded")
    else:
        for key in sorted(set(expected) | set(observed)):
            if expected.get(key, 0) != observed.get(key, 0):
                mismatches.append(
                    f"{key}: expected {expected.get(key, 0)!r}, "
                    f"got {observed.get(key, 0)!r}"
                )
    ledger.record(run.ok, f"reference campaign: {run.problems}")
    ledger.record(not mismatches, f"work counts differ: {mismatches[:4]}")
    if mismatches:
        _log("reference work counts differ: " + "; ".join(mismatches[:6]))
    return run, observed


# -- traffic ----------------------------------------------------------------


def traffic_metrics(traffic: Any) -> Dict[str, float]:
    """Fixed-rate latencies and the highest sustained rung."""
    from stats import sustained_rate

    out: Dict[str, float] = {}
    for kind in ("lookup", "upload"):
        p50, p90 = traffic.latency(kind)
        if p50 is None or p90 is None:
            raise RuntimeError(
                f"too few {kind} samples at {traffic.fixed_rps} rps"
            )
        out[f"{kind}_p50_ms"] = p50
        out[f"{kind}_p90_ms"] = p90
    rungs = []
    for rate in traffic.ladder:
        result = traffic.rung(rate)
        rungs.append(result)
        _log(
            f"rung {rate:.0f} rps: sent {result.sent}, failed {result.failed}, "
            f"windowed p90 {result.p90_ms:.3f} ms, lateness "
            f"{result.lateness_ms:.3f} ms"
        )
    out["sustained_rps"] = sustained_rate(rungs, p90_limit_ms=P90_LIMIT_MS)
    return out


# -- campaigns --------------------------------------------------------------


def campaign_loop(
    seconds: float,
    run_one: Callable[[int], Any],
    ledger: Ledger,
    host: List[float],
    *,
    alternate_cpus: bool,
    between: Callable[[int], None],
) -> List[Any]:
    """Run campaigns, ``between(index)`` after each, until the next pair
    would overrun ``seconds``."""
    runs: List[Any] = []
    end = time.perf_counter() + seconds
    index = 0
    while True:
        started = time.perf_counter()
        host.append(host_ref())
        with on_cpu(index if alternate_cpus else None):
            run = run_one(index)
        between(index)
        took = time.perf_counter() - started
        runs.append(run)
        ledger.record(run.ok, f"campaign {index}: {run.problems}")
        index += 1
        if len(runs) >= MIN_CAMPAIGNS and time.perf_counter() + took > end:
            break
    host.append(host_ref())
    return runs


def end_to_end(args: argparse.Namespace, wl: Any, work: Path) -> Tuple[Ledger, Dict[str, float]]:
    """Set-up probes, the reference campaign, then timed campaigns and
    traffic for ``--seconds`` with no wrapper on the program."""
    from stats import median
    from traffic import SlicedTraffic
    from workloads import campaign_rng, rush_inputs

    ledger = Ledger()
    host: List[float] = []
    setup = measure_setup(args.workload, work, ledger)
    if not setup:
        raise RuntimeError("every set-up probe failed")
    _, observed = reference_campaign(
        wl, ledger, write_golden=args.write_golden
    )
    traffic = SlicedTraffic(
        LADDERS_RPS[wl.name], FIXED_RPS[wl.name], SLICE_S, ledger.add
    )
    cpu_before = cpu_times()
    if wl.name == "rush_hour":
        wl.start("main", args.seed)

        def after_campaign(index: int) -> None:
            # Lookups need published maps: the lanes open after the
            # first campaign has published its segments.
            if not traffic.is_open:
                traffic.open(*wl.lanes())
            traffic.slice(index)

        try:
            runs = campaign_loop(
                args.seconds,
                lambda k: wl.campaign(
                    rush_inputs(campaign_rng(args.seed, wl.name, k), k),
                    campaign_rng(args.seed, wl.name, 1000 + k),
                ),
                ledger,
                host,
                alternate_cpus=False,
                between=after_campaign,
            )
        finally:
            traffic.close()
            wl.stop()
    else:
        # The lanes' cluster is started here, after the reference
        # campaign's wrappers are gone, so no request passes one.
        traffic.open(*wl.lanes())
        try:
            runs = campaign_loop(
                args.seconds,
                lambda k: wl.campaign(
                    campaign_rng(args.seed, wl.name, k),
                    k,
                    repeat_rounds=ROUND_REPEATS,
                ),
                ledger,
                host,
                alternate_cpus=True,
                between=traffic.slice,
            )
        finally:
            traffic.close()
    metrics = {
        "campaign_s": median([run.seconds for run in runs]),
        "round_s": median([r for run in runs for r in run.round_s]),
        **traffic_metrics(traffic),
        "detected_aps": float(observed["quality.detected_aps"]),
        "matched_error_m": float(observed["quality.matched_error_m"]),
        "map_precision": float(observed["quality.map_precision"]),
        "success_rate": (ledger.attempted - ledger.failed) / ledger.attempted,
        "setup_s": median(setup),
    }
    _log(
        f"{wl.name}: {len(runs)} campaigns "
        f"{[round(run.seconds, 3) for run in runs]}; host.ref_s "
        f"{[round(h, 4) for h in host]} (median {median(host):.4f}); "
        f"host.steal_share {steal_share(cpu_before):.4f}; "
        f"setup {[round(s, 3) for s in setup]}"
    )
    return ledger, metrics


def per_layer(args: argparse.Namespace, wl: Any, work: Path) -> Tuple[Ledger, Dict[str, float]]:
    """Traced campaigns, each next to an untraced twin on the same inputs."""
    import layers
    from repro.obs.recorder import InMemoryRecorder
    from stats import median
    from tracer import Tracer
    from workloads import campaign_rng, rush_inputs

    ledger = Ledger()
    host: List[float] = []
    reference_campaign(wl, ledger, write_golden=False)
    times = {"traced": 0.0, "untraced": 0.0}
    hits = lookups = 0.0
    wal_bytes = 0.0
    campaigns = 0
    tracer = Tracer(layers.LAYERS)

    def one(k: int, traced: bool) -> Tuple[Any, Optional[InMemoryRecorder]]:
        """Campaign ``k`` (traced, or its untraced twin on the same inputs)."""
        recording = tracer.recording() if traced else contextlib.nullcontext()
        if wl.name == "rush_hour":
            inputs = rush_inputs(
                campaign_rng(args.seed, wl.name, k), 2 * k + traced
            )
            labels_rng = campaign_rng(args.seed, wl.name, 1000 + k)
            with recording:
                run = wl.campaign(inputs, labels_rng, tracer if traced else None)
            return run, None
        recorder = InMemoryRecorder() if traced else None
        with recording:
            run = wl.campaign(
                campaign_rng(args.seed, wl.name, k), k, recorder=recorder
            )
        return run, recorder

    end = time.perf_counter() + args.seconds
    cpu_before = cpu_times()
    with tracer.installed(layers.install):
        if wl.name == "rush_hour":
            wl.start("traced", args.seed)
        try:
            k = 0
            while True:
                started = time.perf_counter()
                host.append(host_ref())
                for traced in (False, True):
                    with on_cpu(k if wl.name != "rush_hour" else None):
                        run, recorder = one(k, traced)
                    ledger.record(run.ok, f"campaign {k}: {run.problems}")
                    times["traced" if traced else "untraced"] += run.seconds
                    if not traced:
                        continue
                    wal_bytes += run.wal_bytes
                    if recorder is not None:
                        counters = recorder.counters
                        h = counters.get("stream.context.hits", 0.0)
                        hits += h
                        lookups += h + counters.get(
                            "stream.context.misses", 0.0
                        )
                took = time.perf_counter() - started
                campaigns += 1
                k += 1
                if campaigns >= MIN_CAMPAIGNS and time.perf_counter() + took > end:
                    break
            host.append(host_ref())
            stats = tracer.snapshot()
        finally:
            if wl.name == "rush_hour":
                wl.stop()
    fixture = _fixture_unique_ratio()
    metrics = layers.layer_metrics(
        stats,
        campaigns=campaigns,
        traced_s=times["traced"],
        untraced_s=times["untraced"],
        context_hits=hits,
        context_lookups=lookups,
        wal_bytes=wal_bytes,
        host_ref_s=median(host),
        host_steal_share=steal_share(cpu_before),
        fixture_unique_ratio=fixture,
    )
    _log(
        f"{wl.name}: {campaigns} traced campaigns, traced/untraced "
        f"{times['traced']:.3f}/{times['untraced']:.3f} s"
    )
    return ledger, metrics


def _fixture_unique_ratio() -> float:
    """Unique/instance blocks of the ``BENCH_hotpath`` engine-round fixture."""
    path = ROOT / "BENCH_hotpath.json"
    if not path.exists():
        return 0.0
    data = json.loads(path.read_text())
    engine_round = data.get("engine_round", {})
    instances = engine_round.get("block_instances", 0)
    return engine_round.get("unique_blocks", 0) / instances if instances else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("uci_loop", "rush_hour")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        _log(f"cannot import the program from {ROOT / 'src'}: {error}")
        return 2
    import workloads

    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make_workload(args.workload, work)
        if args.trace:
            ledger, metrics = per_layer(args, wl, work)
            import layers

            units = {name: unit for name, unit, _ in layers.PER_LAYER_METRICS}
        else:
            ledger, metrics = end_to_end(args, wl, work)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for reason in ledger.reasons:
        _log(f"failed: {reason}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
