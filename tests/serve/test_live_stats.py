"""Live telemetry: sliding window math, enriched stats frame, dashboard."""

import asyncio
import io
import json

from repro.bench.workloads import YcsbGenerator
from repro.common.config import (
    ExperimentConfig,
    ServeConfig,
    SimConfig,
    YcsbConfig,
)
from repro.obs.live import SlidingWindow, render_dashboard, watch
from repro.serve import ServeServer, run_loadgen
from repro.serve.protocol import SERVER_FRAMES, decode_frame, encode_frame

EXP = ExperimentConfig(sim=SimConfig(num_threads=4), seed=0)


def make_txns(n, seed=0):
    gen = YcsbGenerator(YcsbConfig(num_records=20_000, theta=0.8,
                                   ops_per_txn=4), seed=seed)
    return list(gen.make_workload(n))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestSlidingWindow:
    def test_quantiles_exact_over_window(self):
        clock = FakeClock()
        w = SlidingWindow(window_s=10.0, clock=clock)
        for i in range(1, 101):  # 1..100 at t=0
            w.observe(float(i))
        snap = w.snapshot()
        assert snap["n"] == 100
        assert 50.0 <= snap["p50"] <= 51.0
        assert 98.0 <= snap["p99"] <= 100.0
        assert snap["rate_per_s"] == 10.0  # 100 obs / 10 s window

    def test_old_observations_pruned(self):
        clock = FakeClock()
        w = SlidingWindow(window_s=5.0, clock=clock)
        w.observe(1.0)
        clock.t = 3.0
        w.observe(2.0)
        clock.t = 6.0  # first obs now outside the window
        assert w.values() == [2.0]
        assert w.snapshot()["n"] == 1

    def test_empty_snapshot(self):
        snap = SlidingWindow(clock=FakeClock()).snapshot()
        assert snap["n"] == 0
        assert snap["p50"] == 0.0


class TestEnrichedStatsFrame:
    def test_stats_frame_has_telemetry_blocks(self):
        async def run():
            serve = ServeConfig(port=0, system="tskd-cc",
                                epoch_max_txns=16, epoch_max_ms=10.0)
            server = ServeServer(serve, EXP)
            await server.start()
            try:
                await run_loadgen("127.0.0.1", server.port, make_txns(60),
                                  clients=4)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(encode_frame({"type": "stats"}))
                await writer.drain()
                frame = decode_frame(await reader.readline(), SERVER_FRAMES)
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
            return frame

        frame = asyncio.run(run())
        assert frame["type"] == "stats"
        stats = frame["data"]
        # Flat legacy keys stay put for old clients.
        assert stats["committed"] == 60
        assert stats["submitted"] == 60
        # New telemetry blocks.
        assert stats["window"]["n"] > 0
        assert stats["window"]["p99"] >= stats["window"]["p50"] > 0
        assert set(stats["pipeline"]) == {"in_flight", "staged"}
        assert stats["shards"]["count"] == 1
        assert stats["admission"]["queue_limit"] == serve_queue_limit()
        assert stats["admission"]["pending"] == 0
        assert sum(stats["epochs_by_reason"].values()) \
            == stats["epochs_closed"]
        assert "counters" in stats["metrics"]

    def test_watch_renders_frames(self):
        async def run():
            serve = ServeConfig(port=0, system="tskd-cc",
                                epoch_max_txns=16, epoch_max_ms=10.0)
            server = ServeServer(serve, EXP)
            await server.start()
            out = io.StringIO()
            try:
                await run_loadgen("127.0.0.1", server.port, make_txns(40),
                                  clients=4)
                stats = await watch("127.0.0.1", server.port,
                                    interval_s=0.05, iterations=2,
                                    clear=False, out=out)
            finally:
                await server.stop()
            return stats, out.getvalue()

        stats, text = asyncio.run(run())
        assert stats["committed"] == 40
        assert "repro watch" in text
        assert "pipeline:" in text
        assert "admission:" in text


def serve_queue_limit():
    return ServeConfig().queue_limit


class TestRenderDashboard:
    def test_renders_enriched_stats(self):
        stats = {
            "uptime_s": 12.5, "submitted": 100, "admitted": 90,
            "rejected": 10, "committed": 85, "pending": 5,
            "epoch_open": 3, "epochs_closed": 7, "epochs_executed": 7,
            "end_cycles": 123_456,
            "window": {"window_s": 30.0, "n": 85, "rate_per_s": 6.8,
                       "p50": 12.0, "p95": 30.0, "p99": 41.5},
            "pipeline": {"in_flight": 1, "staged": 1},
            "admission": {"pending": 5, "queue_limit": 10, "rejected": 10},
            "epochs_by_reason": {"size": 4, "deadline": 3},
            "metrics": {"counters": {"serve.committed": 85}},
        }
        text = render_dashboard(stats)
        assert "p50/p95/p99 = 12.0/30.0/41.5 ms" in text
        assert "1 in flight, 1 staged" in text
        assert "size=4" in text and "deadline=3" in text
        assert "serve.committed" in text

    def test_backpressure_flagged_when_queue_full(self):
        stats = {
            "uptime_s": 1.0, "submitted": 20, "admitted": 10,
            "rejected": 10, "committed": 0, "pending": 10,
            "admission": {"pending": 10, "queue_limit": 10, "rejected": 10},
        }
        assert "BACKPRESSURE" in render_dashboard(stats)

    def test_tolerates_bare_legacy_frame(self):
        stats = {"uptime_s": 0.0, "submitted": 0, "admitted": 0,
                 "rejected": 0, "committed": 0, "pending": 0}
        text = render_dashboard(stats)
        assert "submitted 0" in text
        assert "predict" not in text

    def test_renders_predict_section(self):
        stats = {
            "uptime_s": 5.0, "submitted": 50, "admitted": 50,
            "rejected": 0, "committed": 40, "pending": 10,
            "predict": {
                "epoch": 6, "commits_observed": 40, "hot_keys": 3,
                "heat_total": 128.5,
                "top_k": [["('x', 7)", 9.5], ["('x', 2)", 4.0]],
                "steer_reorders": 12, "defer_boosts": 30,
                "admission_checked": 8, "admission_rejected_hot": 5,
                "drift_events": 1,
                "knobs": {"num_lookups": 5, "defer_prob": 0.8},
                "retunes": [{"epoch": 4, "action": "probe", "rate": 0.25,
                             "num_lookups": 5, "defer_prob": 0.8}],
            },
        }
        text = render_dashboard(stats)
        assert "predict: epoch 6" in text
        assert "hot keys 3" in text
        assert "('x', 7)≈9.5" in text
        assert "#lookups=5 deferp=0.8" in text
        assert "last retune: probe -> (5, 0.8) @ epoch 4" in text
        assert "drift events 1" in text


class TestTracePathsThroughServer:
    def test_serve_trace_includes_epoch_events(self, tmp_path):
        trace = tmp_path / "serve.trace.jsonl"

        async def run():
            serve = ServeConfig(port=0, system="tskd-cc",
                                epoch_max_txns=16, epoch_max_ms=10.0)
            server = ServeServer(serve, EXP, trace_path=str(trace))
            await server.start()
            try:
                await run_loadgen("127.0.0.1", server.port, make_txns(40),
                                  clients=4, drain=True)
            finally:
                await server.stop()

        asyncio.run(run())
        kinds = {json.loads(line)["kind"]
                 for line in trace.read_text().splitlines()}
        assert "epoch" in kinds
        assert "finish" in kinds

    def test_loadgen_trace_one_record_per_txn(self, tmp_path):
        trace = tmp_path / "lg.trace.jsonl"

        async def run():
            serve = ServeConfig(port=0, system="tskd-cc",
                                epoch_max_txns=16, epoch_max_ms=10.0)
            server = ServeServer(serve, EXP)
            await server.start()
            try:
                await run_loadgen("127.0.0.1", server.port, make_txns(30),
                                  clients=3, trace_path=str(trace))
            finally:
                await server.stop()

        asyncio.run(run())
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert len(records) == 30
        assert [r["req_id"] for r in records] == list(range(30))
        assert all(r["status"] == "committed" for r in records)
        assert all(r["latency_s"] > 0 for r in records)
