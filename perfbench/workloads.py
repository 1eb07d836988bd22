"""The workloads: their inputs, their campaigns and their checks.

* ``uci_loop`` — the paper's §6.1 UCI campus with its engine settings;
  two buses loop the campus and each campaign runs over the
  multi-process serving tier (2 shards, default WAL).  Engine-bound
  (BIC most of all), and it pays cluster start and close every time.
* ``rush_hour`` — the serving tier with the engine bypassed: generated
  ground-truth APs, noisy mapper uploads, crowdsourcing rounds over the
  wire, then open-loop lookups beside journaled uploads.

Everything is driven through the program's public API.  Inputs come
from sub-seeds of the run seed; map quality and the work counts are
taken from a *reference* campaign with a fixed seed, so they repeat
exactly from run to run.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.city_scale import DETECTION_RADIUS_M
from repro.experiments.fig5_trajectory import paper_engine_config
from repro.geo.grid import Grid
from repro.geo.points import BoundingBox, Point
from repro.metrics.errors import match_estimates, mean_distance_error
from repro.middleware import protocol
from repro.middleware.fleet import CampaignOutcome, FleetCampaign
from repro.middleware.protocol import (
    ApRecord,
    DownloadResponse,
    LabelSubmission,
    LookupRequest,
    TaskAssignmentMessage,
    UploadReport,
)
from repro.middleware.segments import SegmentPlanner
from repro.middleware.server import ServerConfig
from repro.obs.recorder import InMemoryRecorder, Recorder
from repro.runtime.net import RetryingTransport
from repro.runtime.scheduler import CampaignScheduler
from repro.runtime.serving import PlacementRouterTransport, ServingCluster
from repro.sim.scenarios import uci_campus

from traffic import Lane

__all__ = [
    "CampaignRun",
    "Quality",
    "campaign_rng",
    "dir_bytes",
    "make_workload",
    "score_map",
]

#: Seed of the reference campaign whose quality and work counts must
#: repeat exactly (``golden.json``).
REFERENCE_SEED = 20141208

_TAGS = {"uci_loop": 2, "rush_hour": 3}


def campaign_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    """Generator for campaign ``index`` of a run: a sub-seed of ``seed``."""
    return np.random.default_rng([int(seed), _TAGS[workload], int(index)])


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path`` (0 if absent)."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                continue  # a file removed while walking adds nothing
    return total


@dataclass(frozen=True)
class Quality:
    """A map scored against ground truth."""

    detected_aps: int
    matched_error_m: float
    map_precision: float
    entries: int


def score_map(truth: Sequence[Point], city: Sequence[Point]) -> Quality:
    """Detected APs, matched error and precision at ``DETECTION_RADIUS_M``.

    A true AP is detected when its optimal (Hungarian) match lies within
    the radius; precision is detected over map entries.
    """
    matches = match_estimates(list(truth), list(city))
    detected = sum(1 for _, _, d in matches if d <= DETECTION_RADIUS_M)
    error = mean_distance_error(
        list(truth), list(city), max_match_distance_m=DETECTION_RADIUS_M
    )
    return Quality(
        detected_aps=detected,
        matched_error_m=float(error) if matches else float("nan"),
        map_precision=detected / len(city) if city else 0.0,
        entries=len(city),
    )


@dataclass
class CampaignRun:
    """One campaign's timings, outcome and checks."""

    seconds: float
    round_s: List[float]
    quality: Quality
    ok: bool
    problems: List[str] = field(default_factory=list)
    wal_bytes: int = 0


def traffic_lanes(
    endpoint: Any,
    segments: Dict[str, int],
    *,
    lattice_m: float,
    recorder: Optional[Recorder] = None,
) -> Tuple[List[Lane], Callable[[], None]]:
    """A lookup lane and an upload lane against a published cluster.

    Each lane has its own client connections.  ``segments`` maps each
    published segment to the generation a lookup must return.  Returns
    the lanes and a function closing their transports.
    """
    ids = sorted(segments)
    transports: List[Any] = []

    def make_request() -> Callable[[str], Optional[str]]:
        inner = PlacementRouterTransport(endpoint)
        transports.append(inner)
        return RetryingTransport(inner, recorder=recorder).request

    def lookup(i: int) -> Tuple[str, str, Callable[[Optional[str]], bool]]:
        segment_id = ids[i % len(ids)]
        expected = segments[segment_id]

        def check(reply: Optional[str]) -> bool:
            if reply is None:
                return False
            message = protocol.decode_message(reply)
            return (
                isinstance(message, DownloadResponse)
                and message.segment_id == segment_id
                and message.generation == expected
                and len(message.aps) > 0
            )

        text = protocol.encode_message(
            LookupRequest(vehicle_id=f"user-{i % 97}", segment_id=segment_id)
        )
        return "lookup", text, check

    def upload(i: int) -> Tuple[str, str, Callable[[Optional[str]], bool]]:
        segment_id = ids[i % len(ids)]
        text = protocol.encode_message(
            UploadReport(
                vehicle_id=f"probe-{i}",
                segment_id=segment_id,
                timestamp=float(i),
                aps=(ApRecord(x=10.0 + (i % 7), y=20.0 + (i % 5)),),
                lattice_length_m=lattice_m,
            )
        )
        return "upload", text, lambda reply: reply is None

    lanes = [Lane(make_request(), lookup), Lane(make_request(), upload)]

    def close() -> None:
        for transport in transports:
            transport.close()

    return lanes, close


# -- uci loop -----------------------------------------------------------------


class UciLoop:
    """The UCI campus lapped by two buses, a :class:`FleetCampaign` each time.

    Campaigns are driven through :class:`CampaignScheduler`'s step API —
    the code :meth:`FleetCampaign.run` delegates to — so the round time
    can be read from timestamps between steps with tracing off.
    """

    name = "uci_loop"

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        scenario = uci_campus()
        assert scenario.route is not None
        self.scenario = scenario
        self.truth = scenario.true_ap_positions
        self.engine_config = paper_engine_config()
        # One 180-reading lap each (Fig. 5); the second bus drives a
        # little slower so the two traces sample different spots.
        self.vehicles = [
            ("bus-0", scenario.route, 180, 25.0),
            ("bus-1", scenario.route, 180, 21.0),
        ]

    @property
    def lattice_m(self) -> float:
        return self.engine_config.lattice_length_m

    def build(self, n_segments: int = 1) -> FleetCampaign:
        """Enroll the fleet (cheap; done before every campaign).

        The campaigns map the campus as one segment; the traffic cluster
        splits it into ``n_segments`` side by side.
        """
        campaign = FleetCampaign(
            self.scenario.world,
            SegmentPlanner(self.scenario.area, n_rows=1, n_cols=n_segments),
            self.engine_config,
            collector_config=self.scenario.collector_config,
        )
        for vehicle_id, route, n_samples, speed in self.vehicles:
            campaign.add_vehicle(
                vehicle_id, route, n_samples=n_samples, speed_mph=speed
            )
        return campaign

    def campaign(
        self,
        rng: Any,
        index: Any,
        *,
        recorder: Optional[Recorder] = None,
        repeat_rounds: int = 0,
    ) -> CampaignRun:
        """Run one campaign; time it and check its map.

        A campaign has one crowdsourcing round of ≈ 8 ms, too short to
        time steadily once per campaign.  ``repeat_rounds`` runs that
        many more rounds over the same reports after the campaign has
        published (each publishes a new generation) and times each; they
        are not part of the campaign's own time.
        """
        durable = self.work_dir / f"{self.name}-{index}"
        shutil.rmtree(durable, ignore_errors=True)
        scheduler = CampaignScheduler(
            self.build(), n_shards=2, transport="serving", durable_dir=durable
        )
        start = time.perf_counter()
        state = scheduler.start(rng=rng, recorder=recorder)
        rounds: List[float] = []
        try:
            scheduler.run_step(state, "sense")
            scheduler.run_step(state, "upload")
            opened = time.perf_counter()
            if state.segments_mapped:
                scheduler.run_step(state, "open_round")
                scheduler.run_step(state, "label")
                scheduler.run_step(state, "aggregate")
            scheduler.run_step(state, "publish")
            published = time.perf_counter()
            rounds.append(published - opened)
            for _ in range(repeat_rounds if state.segments_mapped else 0):
                opened = time.perf_counter()
                for step in ("open_round", "label", "aggregate", "publish"):
                    scheduler.run_step(state, step)
                rounds.append(time.perf_counter() - opened)
        except BaseException:
            scheduler.shutdown(state)
            raise
        closing = time.perf_counter()
        scheduler.shutdown(state)
        seconds = published - start + time.perf_counter() - closing
        outcome = state.outcome
        assert outcome is not None
        run = self._check(outcome, seconds, rounds)
        run.wal_bytes = dir_bytes(durable)
        shutil.rmtree(durable, ignore_errors=True)
        return run

    def _check(
        self, outcome: CampaignOutcome, seconds: float, rounds: List[float]
    ) -> CampaignRun:
        city = outcome.city_map()
        quality = score_map(self.truth, city)
        problems: List[str] = []
        if not outcome.segments_mapped:
            problems.append("no segment was mapped")
        for segment_id in outcome.segments_mapped:
            snapshot = outcome.server.download(segment_id)
            if not isinstance(snapshot, DownloadResponse):
                problems.append(f"{segment_id}: download is not a map")
            elif snapshot.generation < 1:
                problems.append(f"{segment_id}: map never published")
        floor = _QUALITY_FLOORS[self.name]
        if quality.detected_aps < floor["detected_share"] * len(self.truth):
            problems.append(
                f"detected {quality.detected_aps} of {len(self.truth)} APs"
            )
        if not quality.matched_error_m <= floor["matched_error_m"]:
            problems.append(f"matched error {quality.matched_error_m:.2f} m")
        return CampaignRun(
            seconds=seconds,
            round_s=rounds,
            quality=quality,
            ok=not problems,
            problems=problems,
        )

    def lanes(self) -> Tuple[List[Lane], Callable[[], None]]:
        """Lanes served by a cluster of its own, untimed and untraced.

        The reference inputs are run once more with the campus split into
        two segments, so each shard serves one, as on ``rush_hour``.  A
        shard serves every request under one lock and fsyncs each
        journaled upload inside it, so with the whole campus on one
        shard every lookup would queue behind every upload's fsync on a
        single WAL lane.  The cluster is kept open; the lanes look up and
        upload to its published segments.  Returns the lanes and a
        function closing them and the cluster.
        """
        durable = self.work_dir / f"{self.name}-traffic"
        shutil.rmtree(durable, ignore_errors=True)
        scheduler = CampaignScheduler(
            self.build(n_segments=2),
            n_shards=2,
            transport="serving",
            durable_dir=durable,
        )
        state = scheduler.start(rng=np.random.default_rng(REFERENCE_SEED))
        try:
            for step in ("sense", "upload", "open_round", "label",
                         "aggregate", "publish"):
                scheduler.run_step(state, step)
            lanes, close_lanes = traffic_lanes(
                state.endpoint,
                {
                    segment_id: state.endpoint.download(segment_id).generation
                    for segment_id in state.segments_mapped
                },
                lattice_m=self.lattice_m,
            )
        except BaseException:
            scheduler.shutdown(state)
            raise

        def close() -> None:
            close_lanes()
            scheduler.shutdown(state)
            shutil.rmtree(durable, ignore_errors=True)

        return lanes, close


#: Per-campaign map checks, set below the worst of many seeds (see
#: README.md): a campaign that misses them produced a broken map.
_QUALITY_FLOORS: Dict[str, Dict[str, float]] = {
    "uci_loop": {"detected_share": 0.75, "matched_error_m": 12.0},
    "rush_hour": {"detected_share": 0.9, "matched_error_m": 5.0},
}


# -- rush hour ----------------------------------------------------------------

#: Sized so one round (open → labels → aggregate) takes about a second
#: on a 2-vCPU host: 16 segments × 24 mappers took only 0.2–0.4 s,
#: close to the host's own noise.
RUSH_SEGMENTS = 48
RUSH_MAPPERS = 24
RUSH_ROUNDS = 2
RUSH_SPAMMERS = 4  # per segment
RUSH_LATTICE_M = 10.0
_SEGMENT_W, _SEGMENT_H = 100.0, 80.0


@dataclass(frozen=True)
class MapperReport:
    vehicle_id: str
    aps: Tuple[ApRecord, ...]
    spammer: bool


@dataclass(frozen=True)
class SegmentInput:
    segment_id: str
    grid: Grid
    truth: Tuple[Point, ...]
    reports: Tuple[MapperReport, ...]


def rush_inputs(rng: np.random.Generator, campaign: int) -> List[SegmentInput]:
    """Ground-truth APs and noisy mapper reports for one campaign.

    Each segment is a fresh 100 m × 80 m box with 2–4 APs at least 30 m
    apart.  Honest mappers see each AP with probability 0.9 and report
    it with 3 m Gaussian error; spammers report random spots.
    """
    segments: List[SegmentInput] = []
    for i in range(RUSH_SEGMENTS):
        x0 = (campaign * RUSH_SEGMENTS + i) * _SEGMENT_W
        grid = Grid(
            box=BoundingBox(x0, 0.0, x0 + _SEGMENT_W, _SEGMENT_H),
            lattice_length=RUSH_LATTICE_M,
        )
        n_aps = int(rng.integers(2, 5))
        # Drawn in segment-local coordinates, so twin campaigns (traced
        # and untraced) make the same draws on segments at other offsets.
        local: List[Tuple[float, float]] = []
        while len(local) < n_aps:
            x = 12.0 + float(rng.random()) * (_SEGMENT_W - 24.0)
            y = 12.0 + float(rng.random()) * (_SEGMENT_H - 24.0)
            if all(math.hypot(x - u, y - v) >= 30.0 for u, v in local):
                local.append((x, y))
        truth = [Point(x0 + x, y) for x, y in local]
        reports: List[MapperReport] = []
        spammers = set(
            int(v) for v in rng.choice(RUSH_MAPPERS, RUSH_SPAMMERS, replace=False)
        )
        for m in range(RUSH_MAPPERS):
            if m in spammers:
                aps = tuple(
                    ApRecord(
                        x=x0 + float(rng.random()) * _SEGMENT_W,
                        y=float(rng.random()) * _SEGMENT_H,
                    )
                    for _ in range(n_aps)
                )
            else:
                aps = tuple(
                    ApRecord(
                        x=x0 + x + float(rng.normal(0.0, 3.0)),
                        y=y + float(rng.normal(0.0, 3.0)),
                    )
                    for x, y in local
                    if rng.random() < 0.9
                )
                if not aps:
                    aps = (ApRecord(x=truth[0].x, y=truth[0].y),)
            reports.append(MapperReport(f"mapper-{m}", aps, m in spammers))
        segments.append(
            SegmentInput(f"c{campaign}-s{i}", grid, tuple(truth), tuple(reports))
        )
    return segments


def _honest_label(
    pattern: Sequence[int], grid: Grid, own: Sequence[ApRecord]
) -> int:
    """+1 iff every pattern cell lies within 1.5 cells of an own report."""
    tolerance = 1.5 * grid.lattice_length
    for cell in pattern:
        point = grid.point_at(int(cell))
        if not any(
            math.hypot(point.x - a.x, point.y - a.y) <= tolerance for a in own
        ):
            return -1
    return 1


class RushHour:
    """Crowdsourcing campaigns and open-loop traffic on one 2-shard cluster."""

    name = "rush_hour"
    lattice_m = RUSH_LATTICE_M

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.cluster: Optional[ServingCluster] = None
        self.client: Optional[RetryingTransport] = None
        self.client_recorder = InMemoryRecorder()
        self.published_maps: Dict[str, int] = {}
        self._cluster_dir: Optional[Path] = None

    def start(self, label: str, seed: int) -> None:
        """Start the 2-shard cluster and its campaign client."""
        self._cluster_dir = self.work_dir / f"rush-{label}"
        shutil.rmtree(self._cluster_dir, ignore_errors=True)
        self.cluster = ServingCluster(
            self._cluster_dir, ServerConfig(), n_shards=2, rng=seed
        )
        self.client = RetryingTransport(
            PlacementRouterTransport(self.cluster),
            recorder=self.client_recorder,
        )

    def stop(self) -> None:
        if self.client is not None:
            inner = self.client.inner
            assert isinstance(inner, PlacementRouterTransport)
            inner.close()
            self.client = None
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None
        if self._cluster_dir is not None:
            shutil.rmtree(self._cluster_dir, ignore_errors=True)

    def wal_bytes(self) -> int:
        assert self._cluster_dir is not None
        return dir_bytes(self._cluster_dir)

    def _request(self, message: Any) -> Optional[Any]:
        assert self.client is not None
        reply = self.client.request(protocol.encode_message(message))
        if reply is None:
            return None
        return protocol.decode_message(reply)

    def campaign(
        self,
        inputs: List[SegmentInput],
        rng: np.random.Generator,
        tracer: Any = None,
    ) -> CampaignRun:
        """Register → upload → rounds → publish for one batch of segments.

        ``tracer`` (traced runs only) times the benchmark's own client
        work as ``bench.client``.
        """
        cluster = self.cluster
        assert cluster is not None
        span = (
            tracer.span
            if tracer is not None
            else lambda layer: contextlib.nullcontext()
        )
        problems: List[str] = []
        wal_before = self.wal_bytes()
        start = time.perf_counter()
        for segment in inputs:
            cluster.register_segment(segment.segment_id, segment.grid)
        with span("runtime.step.upload"):
            for segment in inputs:
                for report in segment.reports:
                    with span("bench.client"):
                        message = UploadReport(
                            vehicle_id=report.vehicle_id,
                            segment_id=segment.segment_id,
                            timestamp=1.0,
                            aps=report.aps,
                            lattice_length_m=RUSH_LATTICE_M,
                        )
                    reply = self._request(message)
                    if reply is not None:
                        problems.append(
                            f"upload answered {type(reply).__name__}"
                        )
        ids = [segment.segment_id for segment in inputs]
        by_id = {segment.segment_id: segment for segment in inputs}
        rounds: List[float] = []
        for _ in range(RUSH_ROUNDS):
            opened = time.perf_counter()
            with span("runtime.step.open_round"):
                assignments = cluster.open_rounds(ids)
            with span("runtime.step.label"):
                self._label(ids, by_id, assignments, rng, span, problems)
            with span("runtime.step.aggregate"):
                cluster.aggregate_rounds(ids)
            rounds.append(time.perf_counter() - opened)
        fused: List[Point] = []
        truth: List[Point] = []
        with span("runtime.step.publish"):
            for segment_id in ids:
                reply = self._request(
                    LookupRequest(vehicle_id="publisher", segment_id=segment_id)
                )
                if not isinstance(reply, DownloadResponse):
                    problems.append(f"lookup answered {type(reply).__name__}")
                    continue
                if reply.generation != RUSH_ROUNDS or not reply.aps:
                    problems.append(
                        f"{segment_id}: generation {reply.generation}, "
                        f"{len(reply.aps)} APs"
                    )
                self.published_maps[segment_id] = reply.generation
                fused.extend(record.to_point() for record in reply.aps)
                truth.extend(by_id[segment_id].truth)
        seconds = time.perf_counter() - start
        quality = score_map(truth, fused)
        floor = _QUALITY_FLOORS["rush_hour"]
        if quality.detected_aps < floor["detected_share"] * len(truth):
            problems.append(
                f"detected {quality.detected_aps} of {len(truth)} APs"
            )
        if not quality.matched_error_m <= floor["matched_error_m"]:
            problems.append(f"matched error {quality.matched_error_m:.2f} m")
        run = CampaignRun(
            seconds=seconds,
            round_s=rounds,
            quality=quality,
            ok=not problems,
            problems=problems[:5],
        )
        run.wal_bytes = self.wal_bytes() - wal_before
        return run

    def _label(
        self,
        ids: List[str],
        by_id: Dict[str, SegmentInput],
        assignments: Dict[str, Dict[str, TaskAssignmentMessage]],
        rng: np.random.Generator,
        span: Callable[[str], Any],
        problems: List[str],
    ) -> None:
        """Every mapper polls its tasks and submits labels over the wire."""
        for segment_id in ids:
            segment = by_id[segment_id]
            own = {r.vehicle_id: r for r in segment.reports}
            for vehicle_id in assignments[segment_id]:
                reply = self._request(
                    protocol.TaskRequest(
                        vehicle_id=vehicle_id, segment_id=segment_id
                    )
                )
                if not isinstance(reply, TaskAssignmentMessage):
                    problems.append(
                        f"task poll answered {type(reply).__name__}"
                    )
                    continue
                with span("bench.client"):
                    report = own[vehicle_id]
                    labels = tuple(
                        (
                            task_id,
                            int(rng.choice((-1, 1)))
                            if report.spammer
                            else _honest_label(
                                cells, segment.grid, report.aps
                            ),
                        )
                        for task_id, _, cells in reply.tasks
                    )
                    submission = LabelSubmission(
                        vehicle_id=vehicle_id,
                        labels=labels,
                        segment_id=segment_id,
                    )
                if self._request(submission) is not None:
                    problems.append("label submission was answered")

    def lanes(self) -> Tuple[List[Lane], Callable[[], None]]:
        assert self.cluster is not None
        return traffic_lanes(
            self.cluster,
            dict(self.published_maps),
            lattice_m=RUSH_LATTICE_M,
            recorder=self.client_recorder,
        )


def make_workload(name: str, work_dir: Path) -> Any:
    if name == "rush_hour":
        return RushHour(work_dir)
    if name == "uci_loop":
        return UciLoop(work_dir)
    raise ValueError(f"unknown workload {name!r}")
