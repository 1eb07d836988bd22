"""Which public functions make up each layer, and the per-layer metrics.

``install`` patches the tracer's wrappers onto the program; the module
names of the layers follow the repository's packages (``sim``,
``core``, ``runtime``, ``middleware``, ``crowd``).  ``layer_metrics``
turns the accumulated figures into per-campaign metrics whose self
times, plus the residual, add up to the traced campaign time.
"""

from __future__ import annotations

import os
import typing
from typing import Any, Dict, List, Mapping

from repro.core import bic, combinations, consolidate, cs_problem, l1, refine
from repro.core.engine import OnlineCsEngine
from repro.crowd import fine_grained, streaming
from repro.middleware import database, durable, protocol, server
from repro.runtime import router, scheduler, serving, transport
from repro.runtime import net
from repro.sim import collector

from tracer import LayerStat, Tracer

__all__ = [
    "LAYERS",
    "MESSAGE_KINDS",
    "PER_LAYER_METRICS",
    "install",
    "layer_metrics",
    "work_counts",
]

STEPS = ("sense", "upload", "open_round", "label", "aggregate", "publish")

#: Every message class that can cross the wire, by name.
MESSAGE_KINDS = tuple(
    cls.__name__ for cls in typing.get_args(protocol.ProtocolMessage)
)

#: Layers whose self time is part of the campaign-time accounting.
TIMED_LAYERS = (
    "sim.collect",
    "core.trace",
    "core.enumerate",
    "core.context",
    "core.recover",
    "core.l1",
    "core.bic",
    "core.refine",
    "core.consolidate",
    "runtime.scheduler",
    "runtime.cluster.start",
    "runtime.cluster.close",
    "runtime.cluster.control",
    "runtime.cluster.overlap",
    "runtime.request",
    "middleware.codec",
    "middleware.server.handle",
    "middleware.download",
    "middleware.wal",
    "crowd.plan",
    "crowd.kos",
    "crowd.kos.finalize",
    "crowd.fusion",
    "crowd.aggregate",
    "bench.client",
)

#: Codec time is split by message kind so frames and bytes by kind
#: fall out of the same wrappers.
CODEC_LAYERS = tuple(f"codec.encode.{kind}" for kind in MESSAGE_KINDS) + (
    "codec.decode",
)
STEP_LAYERS = tuple(f"runtime.step.{step}" for step in STEPS)
#: Accounted layers computed from others rather than patched.
DERIVED_LAYERS = ("middleware.codec", "runtime.cluster.overlap")
LAYERS = tuple(
    name for name in TIMED_LAYERS if name not in DERIVED_LAYERS
) + CODEC_LAYERS + STEP_LAYERS


def _count_len(args: tuple, kwargs: dict, result: Any) -> tuple:
    return (float(len(result)), 0.0)


def _one(args: tuple, kwargs: dict, result: Any) -> tuple:
    return (1.0, 0.0)


def _trace_units(args: tuple, kwargs: dict, result: Any) -> tuple:
    # process_trace(self, trace) -> OnlineCsResult
    return (float(len(result.rounds)), float(len(args[1])))


def _recover_units(args: tuple, kwargs: dict, result: Any) -> tuple:
    # recover_blocks(self, rss, blocks, ...) -> {unique block: result}
    blocks = args[2] if len(args) > 2 else kwargs["blocks"]
    return (float(len(blocks)), float(len(result)))


def _l1_units(args: tuple, kwargs: dict, result: Any) -> tuple:
    # l1_solve_batch(A, Y, ...): one right-hand side per column of Y
    rhs = args[1] if len(args) > 1 else kwargs["Y"]
    shape = getattr(rhs, "shape", ())
    return (float(shape[1]) if len(shape) > 1 else 1.0, 0.0)


def _bic_units(args: tuple, kwargs: dict, result: Any) -> tuple:
    # score_hypothesis(rss, positions, locations, channel, ...)
    return (float(len(args[0])), 0.0)


def _plan_units(args: tuple, kwargs: dict, result: Any) -> tuple:
    # open_rounds -> {segment: {vehicle: TaskAssignmentMessage}}
    edges = sum(
        len(message.tasks)
        for assignments in result.values()
        for message in assignments.values()
    )
    return (float(edges), 0.0)


def _ingest_units(args: tuple, kwargs: dict, result: Any) -> tuple:
    # ingest(self, worker_index, task_indices, labels)
    tasks = args[2] if len(args) > 2 else kwargs["task_indices"]
    return (float(len(tasks)), 0.0)


def _sweep_units(args: tuple, kwargs: dict, result: Any) -> tuple:
    return (0.0, 1.0)


def _fsync_units(args: tuple, kwargs: dict, result: Any) -> tuple:
    return (0.0, 1.0)


def _encode_units(args: tuple, kwargs: dict, result: Any) -> tuple:
    return (1.0, float(len(result)))


def _decode_units(args: tuple, kwargs: dict, result: Any) -> tuple:
    return (1.0, float(len(args[0])))


def _encode_layer(args: tuple, kwargs: dict) -> str:
    return f"codec.encode.{type(args[0]).__name__}"


def _step_layer(args: tuple, kwargs: dict) -> str:
    name = args[2] if len(args) > 2 else kwargs["name"]
    return f"runtime.step.{name}"


class _SnapshotHits:
    """Counts memoized download snapshots by the identity of the reply.

    ``SegmentStore.snapshot`` returns the same object until the next
    publish; a call whose result is the object the store returned last
    time was served from the memo.  Counted as ``units_b`` of
    ``middleware.download`` (``units_a`` counts calls).
    """

    def __init__(self) -> None:
        self._last: Dict[int, int] = {}

    def __call__(self, args: tuple, kwargs: dict, result: Any) -> tuple:
        store = id(args[0])
        hit = self._last.get(store) == id(result)
        self._last[store] = id(result)
        return (1.0, 1.0 if hit else 0.0)


def install(tracer: Tracer) -> None:
    """Patch every layer's public entry points."""
    p = tracer.patch
    p(collector.RssCollector, "collect_along", "sim.collect", units=_count_len)
    p(OnlineCsEngine, "process_trace", "core.trace", units=_trace_units)
    p(
        combinations.CombinationEnumerator,
        "candidate_partitions",
        "core.enumerate",
        units=_count_len,
    )
    tracer.patch_everywhere(combinations.unique_blocks, "core.enumerate")
    p(cs_problem.CsProblem, "round_context", "core.context")
    p(cs_problem.CsProblem, "measurement_rows", "core.context")
    p(
        cs_problem.RoundRecoveryContext,
        "recover_blocks",
        "core.recover",
        units=_recover_units,
    )
    tracer.patch_everywhere(l1.l1_solve_batch, "core.l1", units=_l1_units)
    tracer.patch_everywhere(l1.l1_solve, "core.l1", units=_l1_units)
    tracer.patch_everywhere(bic.score_hypothesis, "core.bic", units=_bic_units)
    tracer.patch_everywhere(
        refine.refine_hypothesis, "core.refine", units=_count_len
    )
    p(consolidate.CreditConsolidator, "ingest_round", "core.consolidate")
    p(consolidate.CreditConsolidator, "filtered_estimates", "core.consolidate")
    p(
        scheduler.CampaignScheduler,
        "run_step",
        "runtime.scheduler",
        layer_of=_step_layer,
    )
    p(serving.ServingCluster, "__init__", "runtime.cluster.start")
    p(serving.ServingCluster, "close", "runtime.cluster.close")
    for name in (
        "register_segment",
        "open_rounds",
        "aggregate_rounds",
        "reliability_of",
    ):
        p(serving.ServingCluster, name, "runtime.cluster.control")
    p(transport.InProcessTransport, "request", "runtime.request")
    p(net.RetryingTransport, "request", "runtime.request")
    p(serving.PlacementRouterTransport, "request", "runtime.request")
    p(net.TcpTransport, "request", "runtime.request")
    tracer.patch_everywhere(
        protocol.encode_message,
        CODEC_LAYERS[0],
        units=_encode_units,
        layer_of=_encode_layer,
    )
    tracer.patch_everywhere(
        protocol.decode_message, "codec.decode", units=_decode_units
    )
    p(server.CrowdServer, "handle_wire_message", "middleware.server.handle")
    p(router.ServerRouter, "handle_wire_message", "middleware.server.handle")
    p(
        database.SegmentStore,
        "snapshot",
        "middleware.download",
        units=_SnapshotHits(),
    )
    p(durable.DurableLog, "append", "middleware.wal", units=_one)
    p(os, "fsync", "middleware.wal", units=_fsync_units)
    p(server.CrowdServer, "open_rounds", "crowd.plan", units=_plan_units)
    p(streaming.StreamingKos, "ingest", "crowd.kos", units=_ingest_units)
    p(streaming.StreamingKos, "sweep", "crowd.kos", units=_sweep_units)
    p(streaming.StreamingKos, "finalize", "crowd.kos.finalize")
    tracer.patch_everywhere(
        fine_grained.weighted_centroid_fusion, "crowd.fusion", units=_count_len
    )
    p(server.CrowdServer, "aggregate_rounds", "crowd.aggregate")


def _codec(stats: Mapping[str, LayerStat]) -> LayerStat:
    total = LayerStat()
    for name in CODEC_LAYERS:
        stat = stats[name]
        total = LayerStat(
            calls=total.calls + stat.calls,
            incl_s=total.incl_s + stat.incl_s,
            self_s=total.self_s + stat.self_s,
            units_a=total.units_a + stat.units_a,
            units_b=total.units_b + stat.units_b,
            remote_ctrl_s=total.remote_ctrl_s + stat.remote_ctrl_s,
            remote_wire_s=total.remote_wire_s + stat.remote_wire_s,
        )
    return total


def self_times(stats: Mapping[str, LayerStat]) -> Dict[str, float]:
    """Self time per accounted layer, with shard time carved out.

    A call that was outermost in a shard process ran while a client
    layer in this process waited for it: wire requests wait in
    ``runtime.request``, control-plane commands in
    ``runtime.cluster.control``.  The shard's time is moved off the
    waiting layer.  When both shards worked at once, their summed time
    exceeds the wait; the waiting layer stops at zero and the excess is
    ``runtime.cluster.overlap``, a *negative* self time, so that the
    self times still add up to the campaign.
    """
    out: Dict[str, float] = {}
    for name in TIMED_LAYERS:
        if name == "middleware.codec":
            out[name] = _codec(stats).self_s
        elif name == "runtime.scheduler":
            out[name] = sum(stats[layer].self_s for layer in STEP_LAYERS)
        elif name in DERIVED_LAYERS:
            out[name] = 0.0
        else:
            out[name] = stats[name].self_s
    overlap = 0.0
    for waiting, remote in (
        ("runtime.request", sum(s.remote_wire_s for s in stats.values())),
        (
            "runtime.cluster.control",
            sum(s.remote_ctrl_s for s in stats.values()),
        ),
    ):
        overlap += max(0.0, remote - out[waiting])
        out[waiting] = max(0.0, out[waiting] - remote)
    out["runtime.cluster.overlap"] = -overlap
    return out


def work_counts(stats: Mapping[str, LayerStat]) -> Dict[str, float]:
    """The work counts that must repeat exactly on a fixed seed."""
    counts = {
        "sim.collect.readings": stats["sim.collect"].units_a,
        "core.trace.rounds": stats["core.trace"].units_a,
        "core.trace.readings": stats["core.trace"].units_b,
        "core.enumerate.partitions": stats["core.enumerate"].units_a,
        "core.recover.blocks_instances": stats["core.recover"].units_a,
        "core.recover.blocks_unique": stats["core.recover"].units_b,
        "core.bic.calls": stats["core.bic"].calls,
        "core.refine.aps": stats["core.refine"].units_a,
        "crowd.assignment.edges": stats["crowd.plan"].units_a,
        "crowd.kos.labels": stats["crowd.kos"].units_a,
        "crowd.kos.sweeps": stats["crowd.kos"].units_b,
        "crowd.fusion.aps": stats["crowd.fusion"].units_a,
        "middleware.wal.records": stats["middleware.wal"].units_a,
        "middleware.wal.fsyncs": stats["middleware.wal"].units_b,
    }
    for kind in MESSAGE_KINDS:
        stat = stats[f"codec.encode.{kind}"]
        counts[f"frames.{kind}"] = stat.units_a
        counts[f"bytes.{kind}"] = stat.units_b
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _metric_name(layer: str) -> str:
    """``<layer>.self_s``, or ``<layer>_s`` for the four layers named so."""
    if layer in (
        "runtime.cluster.start",
        "runtime.cluster.close",
        "middleware.server.handle",
        "crowd.kos.finalize",
    ):
        return f"{layer}_s"
    return f"{layer}.self_s"


#: Every per-layer metric, in print order: (name, unit, better).
PER_LAYER_METRICS: List[tuple] = [
    metric
    for layer in TIMED_LAYERS
    for metric in (
        (_metric_name(layer), "s", "lower"),
        (f"{layer}.share", "ratio", "lower"),
    )
] + [(f"runtime.step.{step}_s", "s", "lower") for step in STEPS] + [
    ("sim.collect.readings", "count", "lower"),
    ("core.trace.rounds", "count", "lower"),
    ("core.trace.readings", "count", "lower"),
    ("core.enumerate.partitions", "count", "lower"),
    ("core.context.hit_ratio", "ratio", "higher"),
    ("core.recover.blocks_unique", "count", "lower"),
    ("core.recover.blocks_instances", "count", "lower"),
    ("core.recover.unique_ratio", "ratio", "lower"),
    ("fixture.hotpath.unique_ratio", "ratio", "lower"),
    ("core.l1.rhs", "count", "lower"),
    ("core.bic.calls", "count", "lower"),
    ("core.bic.readings_per_call", "count", "lower"),
    ("core.refine.aps", "count", "lower"),
    ("runtime.request.wait_s", "s", "lower"),
    ("runtime.busy_retries", "count", "lower"),
    ("middleware.codec.bytes", "bytes", "lower"),
    ("middleware.download.hit_ratio", "ratio", "higher"),
    ("middleware.rejected", "count", "lower"),
    ("middleware.wal.records", "count", "lower"),
    ("middleware.wal.bytes", "bytes", "lower"),
    ("middleware.wal.fsyncs", "count", "lower"),
    ("crowd.assignment.edges", "count", "lower"),
    ("crowd.kos.labels", "count", "lower"),
    ("crowd.kos.sweeps", "count", "lower"),
    ("crowd.fusion.aps", "count", "lower"),
    ("traced.campaign_s", "s", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("residual.share", "ratio", "lower"),
    ("host.ref_s", "s", "lower"),
    ("host.steal_share", "ratio", "lower"),
]


def layer_metrics(
    stats: Mapping[str, LayerStat],
    *,
    campaigns: int,
    traced_s: float,
    untraced_s: float,
    context_hits: float,
    context_lookups: float,
    wal_bytes: float,
    host_ref_s: float,
    host_steal_share: float,
    fixture_unique_ratio: float,
) -> Dict[str, float]:
    """Per-campaign per-layer metrics of ``campaigns`` traced campaigns.

    ``traced_s`` / ``untraced_s`` are the summed wall times of the
    traced campaigns and of their untraced twins (same inputs).
    """
    if campaigns < 1 or traced_s <= 0:
        raise ValueError("need at least one traced campaign")
    per = 1.0 / campaigns
    selfs = self_times(stats)
    out: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        out[_metric_name(layer)] = selfs[layer] * per
        out[f"{layer}.share"] = selfs[layer] / traced_s
    for step in STEPS:
        out[f"runtime.step.{step}_s"] = (
            stats[f"runtime.step.{step}"].incl_s * per
        )
    counts = work_counts(stats)
    for name in (
        "sim.collect.readings",
        "core.trace.rounds",
        "core.trace.readings",
        "core.enumerate.partitions",
        "core.recover.blocks_unique",
        "core.recover.blocks_instances",
        "core.refine.aps",
        "middleware.wal.records",
        "middleware.wal.fsyncs",
        "crowd.assignment.edges",
        "crowd.kos.labels",
        "crowd.kos.sweeps",
        "crowd.fusion.aps",
    ):
        out[name] = counts[name] * per
    out["core.context.hit_ratio"] = _ratio(context_hits, context_lookups)
    out["core.recover.unique_ratio"] = _ratio(
        counts["core.recover.blocks_unique"],
        counts["core.recover.blocks_instances"],
    )
    out["fixture.hotpath.unique_ratio"] = fixture_unique_ratio
    out["core.l1.rhs"] = stats["core.l1"].units_a * per
    out["core.bic.calls"] = stats["core.bic"].calls * per
    out["core.bic.readings_per_call"] = _ratio(
        stats["core.bic"].units_a, stats["core.bic"].calls
    )
    remote_wire = sum(stat.remote_wire_s for stat in stats.values())
    out["runtime.request.wait_s"] = (
        stats["runtime.request"].incl_s
        - _outer_handle_time(stats, remote_wire)
    ) * per
    # Every shed request is answered with an encoded BusyResponse and
    # every rejected one with an encoded ErrorResponse.
    out["runtime.busy_retries"] = counts["frames.BusyResponse"] * per
    out["middleware.codec.bytes"] = _codec(stats).units_b * per
    download = stats["middleware.download"]
    out["middleware.download.hit_ratio"] = _ratio(
        download.units_b, download.units_a
    )
    out["middleware.rejected"] = counts["frames.ErrorResponse"] * per
    out["middleware.wal.bytes"] = wal_bytes * per
    out["traced.campaign_s"] = traced_s * per
    out["obs.trace_overhead"] = _ratio(traced_s, untraced_s)
    out["residual.share"] = 1.0 - sum(selfs.values()) / traced_s
    out["host.ref_s"] = host_ref_s
    out["host.steal_share"] = host_steal_share
    return out


def _outer_handle_time(
    stats: Mapping[str, LayerStat], remote_wire: float
) -> float:
    """Server handling time that a client request waited for.

    In a shard process that is every outermost call on a connection
    thread; in process (the in-process transport) it is the handler's
    inclusive time.
    """
    handle = stats["middleware.server.handle"]
    if remote_wire > 0:
        return remote_wire
    return handle.incl_s
