"""Epoch executor determinism, replay equivalence, shard stage stamps."""

import asyncio
import time

import pytest

from repro.bench.workloads import YcsbGenerator
from repro.common.config import (
    ExperimentConfig,
    ServeConfig,
    SimConfig,
    YcsbConfig,
)
from repro.serve import (
    EpochExecutor,
    InlineShard,
    ServeServer,
    Submission,
    make_servable_system,
    replay_epochs,
)

EXP = ExperimentConfig(sim=SimConfig(num_threads=4), seed=0)


def make_epochs(n_epochs=6, per_epoch=40, seed=2):
    gen = YcsbGenerator(YcsbConfig(num_records=2_000, theta=0.9,
                                   ops_per_txn=4), seed=seed)
    txns = list(gen.make_workload(n_epochs * per_epoch))
    return [txns[i * per_epoch:(i + 1) * per_epoch] for i in range(n_epochs)]


class TestServableSystems:
    def test_dbcc_and_tskd_resolve(self):
        for spec in ("dbcc", "tskd-0", "tskd-cc", "tskd-s"):
            tskd = make_servable_system(spec)
            assert tskd.queue_execution == "cc"

    def test_bare_partitioner_is_rejected(self):
        with pytest.raises(ValueError):
            make_servable_system("strife")

    def test_enforced_variant_is_rejected(self):
        with pytest.raises(ValueError):
            make_servable_system("tskd-s!")


class TestExecutorDeterminism:
    def test_same_epochs_same_state(self):
        epochs = make_epochs()
        serve = ServeConfig(system="tskd-0")
        ex1, out1 = replay_epochs(serve, EXP, epochs)
        ex2, out2 = replay_epochs(serve, EXP, epochs)
        assert ex1.database_state() == ex2.database_state()
        assert ex1.clock == ex2.clock
        assert [o.attempts for o in out1] == [o.attempts for o in out2]

    def test_every_admitted_txn_commits_once(self):
        epochs = make_epochs()
        serve = ServeConfig(system="tskd-0")
        _, outcomes = replay_epochs(serve, EXP, epochs)
        committed = [tid for o in outcomes for tid in o.attempts]
        assert sorted(committed) == sorted(t.tid for e in epochs for t in e)

    def test_clock_advances_across_epochs(self):
        epochs = make_epochs(n_epochs=3)
        _, outcomes = replay_epochs(ServeConfig(system="dbcc"), EXP, epochs)
        for prev, cur in zip(outcomes, outcomes[1:]):
            assert cur.start_cycles == prev.end_cycles
            assert cur.end_cycles > cur.start_cycles

    def test_store_persists_across_epochs(self):
        # A later epoch must see versions written by an earlier one:
        # total record count only grows, and final state reflects all.
        epochs = make_epochs(n_epochs=4)
        executor = EpochExecutor(ServeConfig(system="dbcc"), EXP)
        sizes = []
        for i, txns in enumerate(epochs):
            executor.execute(executor.schedule(txns, i), i)
            sizes.append(len(executor.database_state()))
        assert sizes == sorted(sizes)
        assert sizes[-1] > 0


class TestLeastLoadedAssignment:
    def test_rebalances_round_robin_phase(self):
        epochs = make_epochs(n_epochs=1, per_epoch=30)
        rr = EpochExecutor(
            ServeConfig(system="dbcc", assignment="round_robin"), EXP)
        ll = EpochExecutor(
            ServeConfig(system="dbcc", assignment="least_loaded"), EXP)
        plan_rr = rr.schedule(epochs[0], 0)
        plan_ll = ll.schedule(epochs[0], 0)
        flat = lambda plan: sorted(
            t.tid for phase in plan.phases for buf in phase for t in buf)
        assert flat(plan_rr) == flat(plan_ll)  # same txns either way
        # Least-loaded packs by estimated cost: per-buffer cost spread
        # must be no worse than round-robin's.
        def spread(executor, plan):
            loads = [sum(executor.cost.time(t) for t in buf)
                     for buf in plan.phases[0]]
            return max(loads) - min(loads)
        assert spread(ll, plan_ll) <= spread(rr, plan_rr)

    def test_least_loaded_keeps_rc_free_queues_intact(self):
        epochs = make_epochs(n_epochs=1, per_epoch=40)
        base = EpochExecutor(
            ServeConfig(system="tskd-0", assignment="round_robin"), EXP)
        ll = EpochExecutor(
            ServeConfig(system="tskd-0", assignment="least_loaded"), EXP)
        p1 = base.schedule(epochs[0], 0)
        p2 = ll.schedule(epochs[0], 0)
        # Phase 0 is the scheduled RC-free queues: never rebalanced.
        assert [[t.tid for t in buf] for buf in p1.phases[0]] == \
               [[t.tid for t in buf] for buf in p2.phases[0]]


class TestPipelineOverlap:
    """What is left of the old two-stage overlap: one shard runs its
    epochs one at a time, schedule then execute, in id order."""

    def run_shard(self, n_epochs=5, per_epoch=150):
        async def run():
            shard = InlineShard(0, ServeConfig(system="tskd-0"), EXP)
            shard.start()
            gen = YcsbGenerator(YcsbConfig(num_records=2_000, theta=0.9,
                                           ops_per_txn=6), seed=4)
            txns = list(gen.make_workload(n_epochs * per_epoch))
            futs = [shard.begin_epoch(i, txns[i * per_epoch:
                                              (i + 1) * per_epoch])
                    for i in range(n_epochs)]
            results = await asyncio.gather(*futs)
            await shard.stop()
            return results
        return asyncio.run(run())

    def test_epochs_execute_in_order(self):
        results = self.run_shard()
        assert [r.epoch_id for r in results] == list(range(len(results)))
        for prev, cur in zip(results, results[1:]):
            assert cur.sched_start >= prev.exec_end

    def test_stage_spans_are_well_formed(self):
        for r in self.run_shard(n_epochs=3):
            assert r.sched_start < r.sched_end <= r.exec_start < r.exec_end
            assert len(r.attempts) == 150
            assert r.levers is None  # prediction off


class TestPipelineResolution:
    def test_futures_resolve_with_outcomes(self):
        async def run():
            serve = ServeConfig(port=0, system="dbcc", epoch_max_txns=10,
                                epoch_max_ms=60_000.0,
                                record_epoch_tids=True)
            server = ServeServer(serve, EXP)
            await server.start()
            gen = YcsbGenerator(YcsbConfig(num_records=500, theta=0.8,
                                           ops_per_txn=4), seed=9)
            loop = asyncio.get_running_loop()
            futures = []
            for i, t in enumerate(gen.make_workload(30)):
                fut = loop.create_future()
                futures.append((t.tid, fut))
                server._route(Submission(tid=t.tid, req_id=i, txn=t,
                                         submitted_at=time.monotonic(),
                                         future=fut))
            await server.stop()
            for tid, fut in futures:
                outcome = fut.result()
                assert outcome.tid == tid
                assert outcome.attempts >= 1
                assert outcome.queue_s >= 0
                assert outcome.schedule_s > 0
                assert (outcome.shard, outcome.cross_shard) == (0, False)
            assert [s.tids is not None for s in server.spans] == \
                   [True] * len(server.spans)
        asyncio.run(run())
