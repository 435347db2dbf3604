"""Epoch-local planning: an adaptive epoch is planned over its own graph.

The batch adaptive runner plans each ``epoch_txns``-sized epoch the way
a serving shard does, over the epoch's own conflict graph.  Two
contracts pin that down:

* for TSKD[0] (no partition members, hence no promotions) planning an
  epoch over the whole bundle's graph or over its own graph yields the
  same schedule — the walk only ever keeps in-epoch neighbours, whose
  intervals are sorted before use, so neighbour order cannot matter;
* an adaptive ``run_system`` builds no graph larger than one epoch.
"""

import pytest

from repro import ExperimentConfig, SimConfig, YcsbConfig
from repro.bench.runner import run_system
from repro.bench.workloads import drifting_ycsb_workload
from repro.common.config import PredictConfig
from repro.common.rng import Rng
from repro.core.tskd import TSKD
from repro.sim.warmup import warm_up_history
from repro.txn.conflict_graph import ConflictGraph
from repro.txn.workload import Workload

BUNDLE = 1_000
EPOCH = 50
THREADS = 4


@pytest.fixture
def drift_bundle():
    """Contended drifting-hotspot YCSB: theta 0.9 over bundle*50 records,
    the hotspot moving every quarter bundle (the abl_adaptive regime).
    Built fresh per test, so no memoised graph carries over."""
    cfg = YcsbConfig(num_records=BUNDLE * 50, theta=0.9)
    return drifting_ycsb_workload(cfg, BUNDLE, seed=3,
                                  drift_every=BUNDLE // 4)


def _epochs(workload):
    txns = list(workload)
    return [Workload(txns[s:s + EPOCH], name=f"e{s // EPOCH}")
            for s in range(0, len(txns), EPOCH)]


def _fingerprint(plan):
    s = plan.schedule
    return (
        [[t.tid for t in q] for q in s.queues],
        [t.tid for t in s.residual],
        {tid: (iv.start, iv.end) for tid, iv in s.intervals.items()},
        s.stats.as_dict(),
        [[[t.tid for t in buf] for buf in phase] for phase in plan.phases],
    )


class TestWholeGraphEquivalence:
    def test_tskd0_epoch_plan_independent_of_graph_scope(self, drift_bundle):
        whole = drift_bundle.conflict_graph()
        cost = warm_up_history(drift_bundle, SimConfig(num_threads=THREADS))
        system = TSKD.instance("0")
        rng = Rng(7)
        outside = merged = residual = 0
        for e, sub in enumerate(_epochs(drift_bundle)):
            tids = {t.tid for t in sub}
            outside += sum(1 for t in sub
                           for o in whole.neighbors(t.tid) if o not in tids)
            wide = system.prepare(sub, THREADS, cost, rng=rng.fork(e),
                                  graph=whole)
            local = system.prepare(sub, THREADS, cost, rng=rng.fork(e))
            assert _fingerprint(wide) == _fingerprint(local), f"epoch {e}"
            merged += local.schedule.merged_residual
            residual += len(local.schedule.residual)
        # Not vacuous: the whole graph reaches far outside each epoch, and
        # each epoch's plan both schedules and leaves a residual.
        assert outside > 10 * BUNDLE
        assert merged > 0 and residual > 0


class TestAdaptiveRunGraphSize:
    def test_no_graph_larger_than_an_epoch(self, drift_bundle, monkeypatch):
        sizes = []
        init = ConflictGraph.__init__

        def spy(self, transactions, *args, **kwargs):
            sizes.append(len(transactions))
            init(self, transactions, *args, **kwargs)

        monkeypatch.setattr(ConflictGraph, "__init__", spy)
        predict = PredictConfig(epoch_txns=EPOCH, hot_threshold=2.0)
        exp = ExperimentConfig(sim=SimConfig(num_threads=THREADS),
                               predict=predict)
        r = run_system(drift_bundle, TSKD.instance("0"), exp)
        assert r.committed == BUNDLE
        assert max(sizes) <= predict.epoch_txns
        assert len(sizes) == BUNDLE // EPOCH  # one graph per epoch
