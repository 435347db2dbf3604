"""One repetition of a simulated workload, in a fresh process.

Builds the workload's bundle from the seed, makes one ``run_system``
call, checks the result and prints one JSON line.  ``perfbench/run.py``
starts it with the ``PYTHONHASHSEED`` of the repetition, so the hash
seed is a property of the process, as it is for ``repro run``.

With ``--trace DIR`` the layer entry points are wrapped
(:mod:`spans`), the run records its history, and the output adds span
self times, work counts and the serializability check; the spans are
written to ``DIR``.

Usage::

    PYTHONHASHSEED=1 python3 perfbench/simrep.py --spec SPEC_JSON --seed 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time


def build(spec: dict, seed: int):
    """The bundle and experiment config of one simulated workload."""
    from repro.bench.experiments import (
        Scale,
        default_exp,
        drift_ycsb_workload,
        tpcc_workload,
        ycsb_workload,
    )
    from repro.common.config import IoLatencyConfig, PredictConfig

    bundle = spec["bundle"]
    scale = Scale(name="perfbench", bundle=bundle, seeds=(seed,),
                  threads=spec["threads"],
                  ycsb_records=spec.get("records", 20_000_000),
                  tpcc_warehouses=spec.get("warehouses", 40))
    exp = default_exp(scale).with_(seed=seed)
    if "l_io" in spec:
        exp = exp.with_(io=IoLatencyConfig(l_io=spec["l_io"],
                                           theta_io=spec["theta_io"]))
    kind = spec["bench"]
    if kind == "ycsb":
        w = ycsb_workload(scale, exp, spec["theta"], seed)
    elif kind == "tpcc":
        w = tpcc_workload(scale, exp, seed, cross_pct=spec["cross_pct"])
    elif kind == "ycsb-drift":
        w = drift_ycsb_workload(
            scale, exp, spec["theta"], seed,
            drift_every=bundle // spec["segments"],
            records=bundle * spec["records_per_txn"])
    else:
        raise ValueError(f"unknown bench kind {kind!r}")
    if "predict" in spec:
        exp = exp.with_(predict=PredictConfig(**spec["predict"]))
    return w, exp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="workload spec as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--name", required=True, help="workload name")
    ap.add_argument("--trace", metavar="DIR", default=None)
    args = ap.parse_args(argv)
    spec = json.loads(args.spec)

    t0 = time.perf_counter()
    workload, exp = build(spec, args.seed)
    build_s = time.perf_counter() - t0

    from repro.bench.runner import engine_of, make_system, run_system
    from repro.common.config import CYCLES_PER_SECOND

    rec = None
    if args.trace:
        from spans import Recorder, install_sim

        rec = Recorder(req=f"{args.name}/seed{args.seed}")
        install_sim(rec)
    system = make_system(spec["system"])
    gc.collect()
    t1 = time.perf_counter()
    r = run_system(workload, system, exp, record_history=rec is not None)
    wall_s = time.perf_counter() - t1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counters = r.metrics.to_dict()["counters"]
    attempts = r.committed + r.retries
    out = {
        "seed": args.seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "build_s": build_s,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "bundle": len(workload),
        # Deterministic per (seed, hash seed): the counts that must
        # repeat exactly when the hash seed repeats.
        "counts": {
            "committed": r.committed,
            "retries": r.retries,
            "deferrals": r.deferrals,
            "tsdefer_checks": counters.get("tsdefer.checks", 0),
            "tsdefer_deferrals": counters.get("tsdefer.deferrals", 0),
            "contended": r.contended_accesses,
            "wasted_cycles": r.wasted_cycles,
            "blocked_cycles": r.blocked_cycles,
            "makespan_cycles": r.makespan_cycles,
            "queue_retries": r.queue_retries,
            "scheduled_pct": r.scheduled_pct,
            "lat_p50_cycles": r.latency_p50,
            "lat_p99_cycles": r.latency_p99,
            "predict_retunes": counters.get("predict.retunes", 0),
            "predict_hot_keys": r.metrics.to_dict()["gauges"].get(
                "predict.hot_keys", 0),
        },
        "sim_txn_s": r.throughput,
        "abort_pct": 100.0 * r.retries / attempts if attempts else 0.0,
        "cycles_per_s": CYCLES_PER_SECOND,
        "checks": {"committed_all": r.committed == len(workload)},
    }
    if rec is not None:
        from repro.sim.history import is_serializable

        out["checks"]["serializable"] = is_serializable(
            engine_of(r).history)
        # Every abort is an OCC validation failure, so each aborted
        # attempt ran all of its operations (see spans.Counts.ops).
        out["checks"]["aborts_at_validation"] = (
            counters.get("cc.validation_failures", 0) == r.retries)
        summary = rec.summary()
        out["checks"]["span_nesting"] = summary["nesting_ok"]
        out["layers"] = summary["layers"]
        out["spans"] = summary["spans"]
        out["work"] = rec.count_summary()
        out["checks"]["ops_counted"] = out["work"]["ops"] is not None
        os.makedirs(args.trace, exist_ok=True)
        rec.write(os.path.join(args.trace, f"spans-{args.name}.jsonl"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
