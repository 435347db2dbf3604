"""Live serve telemetry: sliding-window quantiles and a terminal dashboard.

The serving front door (:mod:`repro.serve.server`) answers ``stats``
wire frames; this module supplies the two pieces that turn that frame
from a handful of totals into an operator's view of a running service:

* :class:`SlidingWindow` — a pruned deque of (timestamp, value) samples
  over the last W wall seconds.  Unlike the cumulative
  ``serve.latency_ms`` histogram, its quantiles are *exact over the
  window* and forget old load, so a p99 regression shows up within
  seconds instead of being averaged away by an hour of history.
* :func:`render_dashboard` + :func:`watch` — the ``repro watch``
  subcommand: poll a running server's ``stats`` frame on one connection
  and redraw a terminal dashboard (admission funnel, window latency,
  pipeline occupancy, epoch close reasons).

Everything here is wall-clock-side instrumentation: nothing touches the
virtual clock or any RNG stream, so a watched server schedules exactly
what an unwatched one does.
"""

from __future__ import annotations

import asyncio
import sys
import time
from collections import deque
from typing import Callable, Optional

from ..common.stats import percentile

#: Default sliding-window width, wall seconds.
LIVE_WINDOW_S = 30.0


class SlidingWindow:
    """Timestamped samples over the last ``window_s`` wall seconds."""

    def __init__(self, window_s: float = LIVE_WINDOW_S,
                 clock: Callable[[], float] = time.monotonic):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.window_s = window_s
        self._clock = clock
        self._samples: deque[tuple[float, float]] = deque()

    def observe(self, value: float, now: Optional[float] = None) -> None:
        now = self._clock() if now is None else now
        self._samples.append((now, value))
        self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        samples = self._samples
        while samples and samples[0][0] < horizon:
            samples.popleft()

    def values(self, now: Optional[float] = None) -> list[float]:
        self._prune(self._clock() if now is None else now)
        return [v for _, v in self._samples]

    def snapshot(self, now: Optional[float] = None) -> dict:
        """Window quantiles and rate: the ``stats`` frame's live section."""
        now = self._clock() if now is None else now
        self._prune(now)
        values = sorted(v for _, v in self._samples)
        return {
            "window_s": self.window_s,
            "n": len(values),
            "rate_per_s": round(len(values) / self.window_s, 3),
            "p50": round(float(percentile(values, 0.50)), 3),
            "p95": round(float(percentile(values, 0.95)), 3),
            "p99": round(float(percentile(values, 0.99)), 3),
        }


# ---------------------------------------------------------------------------
# terminal dashboard (repro watch)
# ---------------------------------------------------------------------------
def render_dashboard(stats: dict) -> str:
    """One refresh of the watch dashboard from an enriched stats frame.

    Tolerates a bare pre-enrichment frame (older server): sections whose
    keys are absent are simply omitted.
    """
    lines = [f"== repro watch   uptime {stats.get('uptime_s', 0.0):.1f}s"]
    lines.append(
        f"submitted {stats.get('submitted', 0):,}   "
        f"admitted {stats.get('admitted', 0):,}   "
        f"rejected {stats.get('rejected', 0):,}   "
        f"committed {stats.get('committed', 0):,}   "
        f"pending {stats.get('pending', 0):,}"
    )
    win = stats.get("window")
    if win is not None:
        lines.append(
            f"last {win['window_s']:.0f}s: {win['n']:,} responses "
            f"({win['rate_per_s']:,.1f}/s)   latency p50/p95/p99 = "
            f"{win['p50']}/{win['p95']}/{win['p99']} ms"
        )
    pipe = stats.get("pipeline")
    if pipe is not None:
        lines.append(
            f"pipeline: {pipe['in_flight']} in flight, "
            f"{pipe['staged']} staged   open epoch "
            f"{stats.get('epoch_open', 0)} txns   executed "
            f"{stats.get('epochs_executed', 0)} epochs   virtual clock "
            f"{stats.get('end_cycles', 0):,} cy"
        )
    adm = stats.get("admission")
    if adm is not None:
        depth = adm["pending"]
        limit = adm["queue_limit"]
        fill = round(depth / limit * 20) if limit else 0
        lines.append(
            f"admission: {depth:,}/{limit:,} "
            f"[{'#' * fill}{'.' * (20 - fill)}]"
            + ("  BACKPRESSURE" if depth >= limit else "")
        )
    reasons = stats.get("epochs_by_reason")
    if reasons:
        lines.append("epochs closed: " + "  ".join(
            f"{reason}={n}" for reason, n in sorted(reasons.items())))
    predict = stats.get("predict")
    if predict is not None:
        lines.append(
            f"predict: epoch {predict.get('epoch', 0)}   "
            f"hot keys {predict.get('hot_keys', 0)}   "
            f"heat {predict.get('heat_total', 0.0):,.1f}   "
            f"boosts {predict.get('defer_boosts', 0):,}   "
            f"shed {predict.get('admission_rejected_hot', 0):,}   "
            f"drift events {predict.get('drift_events', 0)}"
        )
        top = predict.get("top_k") or []
        if top:
            lines.append("  hottest: " + "  ".join(
                f"{key}≈{est:g}" for key, est in top[:5]))
        knobs = predict.get("knobs")
        retunes = predict.get("retunes") or []
        if knobs:
            line = (f"  knobs: #lookups={knobs['num_lookups']} "
                    f"deferp={knobs['defer_prob']}")
            if retunes:
                last = retunes[-1]
                line += (f"   last retune: {last['action']} -> "
                         f"({last['num_lookups']}, {last['defer_prob']}) "
                         f"@ epoch {last['epoch']}")
            lines.append(line)
    metrics = stats.get("metrics")
    if metrics:
        counters = metrics.get("counters", {})
        if counters:
            lines.append("counters:")
            for name, v in sorted(counters.items()):
                lines.append(f"  {name:<34s} {v:,}")
        for name, hist in sorted(metrics.get("histograms", {}).items()):
            q = hist.get("quantiles")
            if q:
                lines.append(
                    f"  {name:<34s} n={hist['count']:,} "
                    + " ".join(f"{k}≈{v:,.3g}" for k, v in sorted(q.items()))
                )
    return "\n".join(lines)


async def watch(
    host: str,
    port: int,
    interval_s: float = 1.0,
    iterations: Optional[int] = None,
    clear: bool = True,
    out=None,
) -> dict:
    """Poll a running server's stats frame and redraw the dashboard.

    Runs until ``iterations`` polls complete (forever when None, until
    the connection drops or Ctrl-C).  Returns the last stats payload.
    """
    from ..serve.protocol import SERVER_FRAMES, decode_frame, encode_frame

    out = sys.stdout if out is None else out
    reader, writer = await asyncio.open_connection(host, port)
    last: dict = {}
    try:
        polls = 0
        while iterations is None or polls < iterations:
            writer.write(encode_frame({"type": "stats"}))
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            frame = decode_frame(line, SERVER_FRAMES)
            if frame["type"] != "stats":
                continue
            last = frame["data"]
            if clear:
                out.write("\x1b[2J\x1b[H")
            out.write(render_dashboard(last) + "\n")
            out.flush()
            polls += 1
            if iterations is None or polls < iterations:
                await asyncio.sleep(interval_s)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    return last
