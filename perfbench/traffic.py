"""Open-loop request traffic: lookups beside uploads at fixed rates.

Independent vehicles send requests on their own schedule whether or not
earlier ones were answered, so the generator is open-loop: request ``i``
of a lane is *due* at ``start + i / rate`` and its latency is timed from
that due time, so a stall also charges the wait it imposes on the
requests queued behind it.  Each lane is one thread with its own client
transport (at most two lanes: the host has two CPUs and the shards need
them too).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import RungResult, split_windows, windowed_percentile

__all__ = ["Lane", "LaneLog", "SlicedTraffic", "run_rung", "window_for"]

#: ``request(text) -> reply text or None`` — a transport's request.
Request = Callable[[str], Optional[str]]
#: ``make(i) -> (kind, frame text, check)``; ``check(reply) -> bool``.
Maker = Callable[[int], Tuple[str, str, Callable[[Optional[str]], bool]]]


@dataclass
class Lane:
    """One client thread: its transport and the requests it sends."""

    request: Request
    make: Maker


@dataclass
class LaneLog:
    """What one lane measured on one rung."""

    latency_ms: Dict[str, List[float]] = field(default_factory=dict)
    stamps: Dict[str, List[float]] = field(default_factory=dict)
    lateness_ms_by_kind: Dict[str, List[float]] = field(default_factory=dict)
    failed: int = 0
    sent: int = 0
    errors: List[str] = field(default_factory=list)


def _drive(
    lane: Lane, rate: float, start: float, duration: float, log: LaneLog
) -> None:
    clock = time.perf_counter
    i = 0
    while True:
        due = start + i / rate
        if due - start >= duration:
            return
        now = clock()
        if due > now:
            time.sleep(due - now)
        kind, text, check = lane.make(i)
        sent_at = clock()
        try:
            reply = lane.request(text)
            ok = check(reply)
        except Exception as error:  # noqa: BLE001 - every failure counts
            ok = False
            if len(log.errors) < 5:
                log.errors.append(f"{type(error).__name__}: {error}")
        done = clock()
        log.sent += 1
        log.lateness_ms_by_kind.setdefault(kind, []).append(
            (sent_at - due) * 1e3
        )
        # A failed request misses any latency limit.
        latency = (done - due) * 1e3 if ok else float("inf")
        if not ok:
            log.failed += 1
        log.latency_ms.setdefault(kind, []).append(latency)
        log.stamps.setdefault(kind, []).append(due - start)
        i += 1


def run_rung(
    lanes: Sequence[Lane], total_rate: float, duration: float
) -> List[LaneLog]:
    """Drive every lane at ``total_rate / len(lanes)`` for ``duration`` s."""
    if total_rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be > 0")
    per_lane = total_rate / len(lanes)
    logs = [LaneLog() for _ in lanes]
    start = time.perf_counter() + 0.01
    threads = [
        threading.Thread(
            target=_drive, args=(lane, per_lane, start, duration, log),
            name=f"perfbench-lane-{index}",
        )
        for index, (lane, log) in enumerate(zip(lanes, logs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return logs


def _windows(
    slices: Sequence[Sequence[LaneLog]], kind: Optional[str], width_s: float
) -> Tuple[List[List[float]], List[List[float]]]:
    """Latency and lateness samples of ``kind`` (or all) by time window.

    Each slice is windowed on its own clock, then the windows are pooled.
    """
    latency_windows: List[List[float]] = []
    lateness_windows: List[List[float]] = []
    for logs in slices:
        stamps: List[float] = []
        latency: List[float] = []
        lateness: List[float] = []
        for log in logs:
            for k, values in log.latency_ms.items():
                if kind is None or k == kind:
                    stamps.extend(log.stamps[k])
                    latency.extend(values)
                    lateness.extend(log.lateness_ms_by_kind[k])
        latency_windows.extend(split_windows(stamps, latency, width_s))
        lateness_windows.extend(split_windows(stamps, lateness, width_s))
    return latency_windows, lateness_windows


def window_for(rate_rps: float) -> float:
    """Window width holding about 120 samples at ``rate_rps``.

    A window's p90 then has at least ten samples beyond it even when
    the window boundary cuts a few off.
    """
    return 120.0 / rate_rps


#: Unrecorded traffic at the slice's rate before each recorded slice.
#: The figures stand for steady traffic, which has no cold start; the
#: slices are only how the run interleaves it with campaigns.  Without
#: it, the first quarter-second after a campaign read a p90 above the
#: slice's median quarter in 7 of 8 slices timed on both workloads.
WARMUP_S = 0.25


class SlicedTraffic:
    """The fixed-rate figures and the rate ladder, measured in slices.

    A slice is a short open-loop rung run between two campaigns, after a
    :data:`WARMUP_S` warm-up at the same rate.  Slices rotate through the
    ladder with every other one at the fixed rate, so each rate's windows
    are spread over the whole run: a stall of the host for a few seconds
    spoils a minority of any rate's windows, and the medians over windows
    step past it.  ``record(sent, failed, reason)`` is called for every
    slice and warm-up.
    """

    def __init__(
        self,
        ladder: Sequence[float],
        fixed_rps: float,
        slice_s: float,
        record: Callable[[int, int, str], None],
    ) -> None:
        if fixed_rps not in ladder:
            raise ValueError("the fixed rate must be a rung of the ladder")
        others = [rate for rate in ladder if rate != fixed_rps]
        self.ladder = tuple(sorted(ladder))
        self.fixed_rps = fixed_rps
        self.rotation = [
            rate for other in others for rate in (fixed_rps, other)
        ] or [fixed_rps]
        self.slice_s = slice_s
        self.record = record
        self.slices: Dict[float, List[List[LaneLog]]] = {r: [] for r in ladder}
        self._lanes: Optional[Sequence[Lane]] = None
        self._close: Optional[Callable[[], None]] = None

    @property
    def is_open(self) -> bool:
        return self._lanes is not None

    def open(self, lanes: Sequence[Lane], close: Callable[[], None]) -> None:
        """Take the lanes (and how to close them); warm them up."""
        self._lanes, self._close = lanes, close
        self._run(self.rotation[0], WARMUP_S)  # connections open, caches fill

    def slice(self, index: int) -> None:
        """Run slice ``index`` of the rotation."""
        rate = self.rotation[index % len(self.rotation)]
        self._run(rate, WARMUP_S)
        self.slices[rate].append(self._run(rate, self.slice_s))

    def close(self) -> None:
        if self._close is not None:
            self._close()
        self._lanes = self._close = None

    def _run(self, rate: float, duration: float) -> List[LaneLog]:
        assert self._lanes is not None, "open the traffic first"
        logs = run_rung(self._lanes, rate, duration)
        for log in logs:
            self.record(log.sent, log.failed, f"at {rate} rps: {log.errors[:2]}")
        return logs

    def rung(self, rate: float) -> RungResult:
        """Windowed p90 and lateness of every request sent at ``rate``."""
        slices = self.slices[rate]
        latency, lateness = _windows(slices, None, window_for(rate))
        p90 = windowed_percentile(latency, 90)
        late = windowed_percentile(lateness, 50, min_beyond=1)
        return RungResult(
            rate_rps=rate,
            sent=sum(log.sent for logs in slices for log in logs),
            failed=sum(log.failed for logs in slices for log in logs),
            p90_ms=p90 if p90 is not None else float("inf"),
            lateness_ms=late if late is not None else float("inf"),
        )

    def latency(self, kind: str) -> Tuple[Optional[float], Optional[float]]:
        """Windowed p50 and p90 (ms) of one request kind at the fixed rate.

        Lookups and uploads are half the offered rate each.
        """
        latency, _ = _windows(
            self.slices[self.fixed_rps], kind, window_for(self.fixed_rps / 2)
        )
        return (
            windowed_percentile(latency, 50),
            windowed_percentile(latency, 90),
        )
