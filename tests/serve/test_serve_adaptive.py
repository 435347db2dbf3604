"""Adaptive serving end to end: policy in the shard, artifact, stats."""

import asyncio

from repro.bench.workloads import YcsbGenerator
from repro.common.config import (
    ExperimentConfig,
    PredictConfig,
    ServeConfig,
    SimConfig,
    YcsbConfig,
)
from repro.obs import load_artifact, validate_serve_artifact
from repro.serve import (
    ServeServer,
    replay_epochs,
    run_loadgen,
    txn_from_wire,
    txn_to_wire,
)
from repro.serve.protocol import SERVER_FRAMES, decode_frame, encode_frame


def make_txns(n, seed=0, records=2_000, theta=0.9):
    gen = YcsbGenerator(YcsbConfig(num_records=records, theta=theta,
                                   ops_per_txn=8), seed=seed)
    return list(gen.make_workload(n))


def adaptive_exp(**predict_kw):
    kw = dict(hot_threshold=2.0, admission=False)
    kw.update(predict_kw)
    return ExperimentConfig(sim=SimConfig(num_threads=4), seed=0,
                            predict=PredictConfig(**kw))


class TestAdaptiveServe:
    def test_drain_artifact_carries_predict_section(self, tmp_path):
        async def run():
            path = tmp_path / "adaptive.json"
            serve = ServeConfig(port=0, system="tskd-0", epoch_max_txns=32,
                                epoch_max_ms=40.0)
            server = ServeServer(serve, adaptive_exp(),
                                 export_path=str(path))
            await server.start()
            report = await run_loadgen("127.0.0.1", server.port,
                                       make_txns(200, seed=7), clients=8,
                                       mode="closed", seed=7, drain=True)
            assert report.committed == 200
            doc = load_artifact(path)
            validate_serve_artifact(doc)
            predict = doc["predict"]
            assert predict["epoch"] > 0
            assert predict["commits_observed"] == 200
            assert doc["metrics"]["counters"]["predict.commits_observed"] \
                == 200
            await server.stop()
        asyncio.run(run())

    def test_stats_frame_has_live_predict_section(self):
        async def run():
            serve = ServeConfig(port=0, system="tskd-0", epoch_max_txns=16,
                                epoch_max_ms=30.0)
            server = ServeServer(serve, adaptive_exp())
            await server.start()
            await run_loadgen("127.0.0.1", server.port,
                              make_txns(100, seed=3), clients=4,
                              mode="closed", seed=3)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(encode_frame({"type": "stats"}))
            await writer.drain()
            frame = decode_frame(await reader.readline(), SERVER_FRAMES)
            stats = frame["data"]
            assert stats["predict"]["epoch"] > 0
            assert stats["predict"]["commits_observed"] == 100
            writer.close()
            await writer.wait_closed()
            await server.stop()
        asyncio.run(run())

    def test_static_server_stats_have_no_predict_key(self):
        async def run():
            serve = ServeConfig(port=0, system="tskd-0", epoch_max_txns=16,
                                epoch_max_ms=30.0)
            server = ServeServer(
                serve, ExperimentConfig(sim=SimConfig(num_threads=4), seed=0))
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(encode_frame({"type": "stats"}))
            await writer.drain()
            frame = decode_frame(await reader.readline(), SERVER_FRAMES)
            assert "predict" not in frame["data"]
            writer.close()
            await writer.wait_closed()
            await server.stop()
        asyncio.run(run())

    def test_policy_feeds_only_from_commits(self):
        """The sketch sees committed write sets, nothing else: observed
        commits match the server's committed total exactly."""
        async def run():
            serve = ServeConfig(port=0, system="tskd-0", epoch_max_txns=16,
                                epoch_max_ms=30.0)
            server = ServeServer(serve, adaptive_exp())
            await server.start()
            report = await run_loadgen("127.0.0.1", server.port,
                                       make_txns(120, seed=5), clients=8,
                                       mode="closed", seed=5, drain=True)
            policy = server.policy
            assert policy.commits_observed == report.committed == 120
            assert policy.sketch.updates > 0
            await server.stop()
        asyncio.run(run())

    def test_predict_levers_match_the_replayed_shard_policy(self, tmp_path):
        """The artifact's lever fields come from the shard's own policy:
        replaying the recorded epochs reproduces them exactly."""
        path = tmp_path / "adaptive.json"
        serve = ServeConfig(port=0, system="tskd-0", epoch_max_txns=16,
                            epoch_max_ms=30.0, record_epoch_tids=True)
        exp = adaptive_exp()
        txns = make_txns(240, seed=11)

        async def run():
            server = ServeServer(serve, exp, export_path=str(path))
            await server.start()
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=8, mode="closed", seed=11,
                                       drain=True)
            await server.stop()
            return report

        report = asyncio.run(run())
        assert report.committed == 240
        doc = load_artifact(path)
        by_tid = {r.tid: txn_from_wire(txn_to_wire(txns[r.req_id]), tid=r.tid)
                  for r in report.records}
        epochs = [[by_tid[t] for t in e["tids"]] for e in doc["epochs"]]
        executor, _ = replay_epochs(serve, exp, epochs)
        replayed = executor.policy.snapshot()
        levers = ("steer_reorders", "defer_boosts", "drift_events", "knobs",
                  "retunes")
        assert {k: doc["predict"][k] for k in levers} == \
            {k: replayed[k] for k in levers}
        # The session really exercised a lever.
        assert replayed["defer_boosts"] + replayed["steer_reorders"] > 0
