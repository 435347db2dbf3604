"""The repository's benchmark: one workload per invocation, checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (parameters and reasons in ``perfbench/plan.json``):

* ``sim-tpcc-s`` and ``sim-ycsb-drift`` build one bundle
  and make one ``run_system`` call per repetition, each repetition in a
  fresh process.  A cycle is the plan's number of repetitions, each on
  its own bundle seed under a ``PYTHONHASHSEED`` from the plan's fixed
  list.  A run makes full cycles for as long as ``--seconds`` allows (at
  least one; a repeated cycle must repeat its work counts exactly) and
  reports medians over the repetitions.
* ``serve-tpcc-s`` starts ``repro serve`` in its own process and drives
  it from a second process with an open-loop Poisson generator
  (``perfbench/loadgen.py``): a ``low`` and a ``high`` rate, then, on a
  second fresh server, a rate ladder that stops at the first rung
  missing the latency limit.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` makes a separate traced run: the layer entry points are
wrapped from this directory (``perfbench/spans.py``) and the run reports
the per-layer metrics, including the tracing overhead against an
untraced repetition of the same inputs.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed check prints the failure, reports no numbers and
exits 1.  Outside a checkout of the repository (no ``src/repro``) the
command exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

#: Hard limit for one child process (a sim repetition or a generator).
CHILD_TIMEOUT_S = 170

#: How long the server may take to exit once the generator has drained it.
SERVER_EXIT_S = 30


class CheckFailed(Exception):
    """A correctness check failed; the run reports no numbers."""


def _child_env(root: str, hash_seed=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


# ----------------------------------------------------------------------
# simulated workloads
# ----------------------------------------------------------------------
def repetitions(seed: int, count: int, hash_seeds: list) -> list[tuple]:
    """``(bundle seed, PYTHONHASHSEED)`` of each repetition of a cycle.

    Each repetition runs its own bundle, so a run's medians average over
    several inputs; the hash seeds rotate through the fixed list with
    the run seed, so every listed hash seed recurs across runs.
    """
    return [(seed * count + i, hash_seeds[(seed + i) % len(hash_seeds)])
            for i in range(count)]


def sim_rep(root: str, name: str, spec: dict, seed: int, hash_seed: int,
            trace: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "simrep.py"), "--name", name,
           "--seed", str(seed), "--spec", json.dumps(spec)]
    if trace:
        cmd += ["--trace", OUT]
    proc = subprocess.run(cmd, cwd=root, env=_child_env(root, hash_seed),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed(f"{name} repetition (hash seed {hash_seed}) "
                          f"exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    failed = [k for k, ok in rep["checks"].items() if ok is not True]
    if failed:
        raise CheckFailed(f"{name} hash seed {hash_seed}: checks failed: "
                          f"{', '.join(failed)}")
    return rep


def run_sim(root: str, name: str, wl: dict, plan: dict, seed: int,
            seconds: float, lines: list) -> tuple[dict, int, int]:
    spec = wl["spec"]
    cycle = repetitions(seed, plan["repetitions"], plan["hash_seeds"])
    reps: list[dict] = []
    began = time.monotonic()
    while True:
        cycle_began = time.monotonic()
        for b, h in cycle:
            reps.append(sim_rep(root, name, spec, b, h))
        now = time.monotonic()
        if now - began + (now - cycle_began) > seconds:
            break
    first: dict[tuple, dict] = {}
    for rep in reps:
        key = (rep["seed"], rep["hash_seed"])
        if rep["counts"] != first.setdefault(key, rep)["counts"]:
            raise CheckFailed(
                f"{name}: work counts differ between two runs of bundle "
                f"seed {key[0]} with PYTHONHASHSEED={key[1]}")
    cps = reps[0]["cycles_per_s"]
    for (s, h), rep in first.items():
        lines.append(f"  bundle seed {s:4d}  PYTHONHASHSEED={h}:  sim_txn_s="
                     f"{rep['sim_txn_s']:.1f} txn/s (simulated)  "
                     f"sim_abort_pct={rep['abort_pct']:.3f} %  retries="
                     f"{rep['counts']['retries']}")
    m = {
        "setup_s": median([r["build_s"] for r in reps]),
        # The run's peak: the largest repetition.  Peaks differ by bundle
        # (TPC-C: 334 MB for one, about 390 MB for most).
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
        "wall_txn_s": median([r["counts"]["committed"] / r["wall_s"]
                              for r in reps]),
        "sim_txn_s": median([r["sim_txn_s"] for r in reps]),
        "lat_p50_ms": median([r["counts"]["lat_p50_cycles"] / cps * 1e3
                              for r in reps]),
    }
    attempted = sum(r["bundle"] for r in reps)
    failed = sum(r["bundle"] - r["counts"]["committed"] for r in reps)
    lat50 = median([r["counts"]["lat_p50_cycles"] for r in reps]) / 1e3
    lat99 = median([r["counts"]["lat_p99_cycles"] for r in reps]) / 1e3
    lines += [
        f"  repetitions: {len(reps)}",
        f"  setup_s            {m['setup_s']:12.4f} s   (workload build)",
        f"  peak_rss_mb        {m['peak_rss_mb']:12.1f} MB  (largest "
        f"repetition)",
        f"  sim_wall_txn_s     {m['wall_txn_s']:12.1f} txn/s   "
        f"(= wall_txn_s)",
        f"  sim_txn_s          {m['sim_txn_s']:12.1f} txn/s (simulated)",
        f"  sim_abort_pct      "
        f"{median([r['abort_pct'] for r in reps]):12.3f} %",
        f"  sim_lat_p50_kcyc   {lat50:12.1f} kcyc   "
        f"(= lat_p50_ms {m['lat_p50_ms']:.4f} ms simulated; "
        f"{reps[0]['bundle']} samples per repetition)",
        f"  sim_lat_p99_kcyc   {lat99:12.1f} kcyc",
        f"  failed_pct         {100.0 * failed / attempted:12.3f} %",
    ]
    return m, attempted, failed


def run_sim_traced(root: str, name: str, wl: dict, plan: dict,
                   seed: int, lines: list) -> tuple[dict, int, int]:
    spec = wl["spec"]
    b, h = repetitions(seed, plan["repetitions"], plan["hash_seeds"])[0]
    plain = sim_rep(root, name, spec, b, h)
    traced = sim_rep(root, name, spec, b, h, trace=True)
    if plain["counts"] != traced["counts"]:
        raise CheckFailed(f"{name}: the traced run's work counts differ "
                          f"from the untraced run's (PYTHONHASHSEED={h})")
    layers = traced["layers"]
    work = traced["work"]
    c = traced["counts"]

    def self_s(span: str) -> float:
        return layers.get(span, {}).get("self_s", 0.0)

    engine_s = self_s("sim.engine")
    attempts = c["committed"] + c["retries"]
    attributed = sum(row["self_s"] for row in layers.values())
    m = {
        "txn.conflict_graph_s": self_s("txn.conflict_graph"),
        "txn.graph_edges": work["graph_edges"],
        "sim.warmup_s": self_s("sim.warmup"),
        "sim.engine_s": engine_s,
        "sim.ops": work["ops"],
        "sim.us_per_op": engine_s * 1e6 / work["ops"],
        "sim.commits": c["committed"],
        "sim.wasted_kcyc": c["wasted_cycles"] / 1e3,
        "sim.blocked_kcyc": c["blocked_cycles"] / 1e3,
        "sim.unattributed_s": traced["wall_s"] - attributed,
        "cc.aborts": c["retries"],
        "cc.commit_ratio": c["committed"] / attempts,
        "cc.contended_accesses": c["contended"],
        "partition.strife_s": self_s("partition.strife"),
        "partition.residual_pct": (100.0 * work["part_residual"]
                                   / work["partitioned"]
                                   if work["partitioned"] else 0.0),
        "core.prepare_s": self_s("core.prepare"),
        "core.tsgen_s": self_s("core.tsgen"),
        "core.scheduled_pct": 100.0 * (c["scheduled_pct"] or 0.0),
        "core.queue_retries": c["queue_retries"] or 0,
        "core.tsdefer_s": self_s("core.tsdefer"),
        "core.tsdefer_checks": c["tsdefer_checks"],
        "core.deferrals": c["tsdefer_deferrals"],
        "core.defer_ratio": (c["tsdefer_deferrals"] / c["tsdefer_checks"]
                             if c["tsdefer_checks"] else 0.0),
        "predict.policy_s": self_s("predict.policy"),
        "predict.retunes": c["predict_retunes"],
        "predict.hot_keys": c["predict_hot_keys"],
        "trace.overhead_pct": 100.0 * (traced["wall_s"] / plain["wall_s"]
                                       - 1.0),
    }
    lines += [
        f"  traced repetition: bundle seed {traced['seed']}, "
        f"PYTHONHASHSEED={h}, {traced['spans']} spans, "
        f"run_system {traced['wall_s']:.3f} s traced vs "
        f"{plain['wall_s']:.3f} s untraced",
        f"  checks: serializable history, work counts equal traced vs "
        f"untraced, child spans within parents",
    ]
    return m, 2 * traced["bundle"], 0


# ----------------------------------------------------------------------
# the serve workload
# ----------------------------------------------------------------------
def fixed_phases(wl: dict, seconds: float) -> list[dict]:
    """The low and high rates, on one fresh server."""
    rates, share = wl["rates_txn_s"], wl["phase_share"]
    return [{"name": name, "rate": rates[name],
             "seconds": share[name] * seconds} for name in ("low", "high")]


def ladder_phases(wl: dict, seconds: float) -> list[dict]:
    """The rate ladder, on a second fresh server.

    The server slows down as its heap grows over a session, so the
    ladder starts from the same fresh state in every run instead of
    from wherever the fixed rates left it.
    """
    rates, share = wl["rates_txn_s"], wl["phase_share"]
    return [{"name": f"ladder-{r}", "rate": r, "ladder": True,
             "seconds": share["rung"] * seconds} for r in rates["ladder"]]


def serve_session(root: str, wl: dict, seed: int, phases: list[dict],
                  tag: str, traced: bool, replay: bool = True) -> dict:
    """One server + one generator process; returns the generator result
    plus the server's start time, peak RSS and (traced) span summary.

    ``replay`` re-runs the recorded epochs batch-style to check the
    drain's state digest.
    """
    os.makedirs(OUT, exist_ok=True)
    artifact = os.path.join(OUT, f"serve-{tag}-artifact.json")
    plan_path = os.path.join(OUT, f"serve-{tag}-plan.json")
    result_path = os.path.join(OUT, f"serve-{tag}-result.json")
    trace_dir = os.path.join(OUT, f"serve-{tag}-trace")
    for path in (artifact, result_path):
        if os.path.exists(path):
            os.remove(path)
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump({k: wl[k] for k in ("server", "workload", "connections",
                                       "limits")}
                  | {"phases": phases, "replay": replay}, f)
    server = wl["server"]
    serve_args = ["serve", "--system", server["system"],
                  "--threads", str(server["threads"]),
                  "--seed", str(server["seed"]), "--port", "0",
                  "--exit-on-drain", "--record-epoch-tids",
                  "--export-json", artifact]
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"),
               "--trace-dir", trace_dir, "--"] + serve_args
    else:
        cmd = [sys.executable, "-m", "repro"] + serve_args
    err_path = os.path.join(OUT, f"serve-{tag}-stderr.txt")
    t0 = time.perf_counter()
    with open(err_path, "w", encoding="utf-8") as err:
        srv = subprocess.Popen(cmd, cwd=root, env=_child_env(root),
                               stdout=subprocess.PIPE, stderr=err, text=True)
    try:
        line = srv.stdout.readline()
        start_s = time.perf_counter() - t0
        if " on " not in line:
            with open(err_path, encoding="utf-8") as f:
                raise CheckFailed(f"server did not start: {line.strip()} "
                                  f"{f.read()[-2000:]}")
        port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        gen = subprocess.run(
            [sys.executable, os.path.join(HERE, "loadgen.py"),
             "--port", str(port), "--seed", str(seed),
             "--server-pid", str(srv.pid), "--plan", plan_path,
             "--artifact", artifact, "--out", result_path],
            cwd=root, env=_child_env(root), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if gen.returncode != 0:
            raise CheckFailed(f"load generator exited {gen.returncode}: "
                              f"{gen.stderr.strip()[-2000:]}")
        # The server exits after answering the generator's drain frame;
        # it prints two short lines, so its stdout pipe cannot fill.
        deadline = time.monotonic() + SERVER_EXIT_S
        while True:
            pid, status, usage = os.wait4(srv.pid, os.WNOHANG)
            if pid:
                srv.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise CheckFailed("server did not exit after the drain")
            time.sleep(0.05)
    finally:
        if srv.returncode is None:
            srv.kill()
            srv.wait()
        srv.stdout.close()
    if srv.returncode != 0:
        raise CheckFailed(f"server exited {srv.returncode}")
    with open(result_path, encoding="utf-8") as f:
        res = json.load(f)
    res["server_start_s"] = start_s
    res["server_rss_mb"] = usage.ru_maxrss / 1024.0
    if traced:
        with open(os.path.join(trace_dir, "serve-summary.json"),
                  encoding="utf-8") as f:
            res["trace"] = json.load(f)
    check_serve(res)
    return res


def check_serve(res: dict) -> None:
    failed = []
    if res["duplicates"]:
        failed.append(f"{res['duplicates']} duplicate responses")
    if res["answered"] != res["sent"]:
        failed.append(f"{res['sent'] - res['answered']} submits unanswered")
    if res["wire_errors"]:
        failed.append(f"{res['wire_errors']} error frames")
    committed = sum(p["committed"] for p in res["phases"])
    if res["drained"]["committed"] != committed:
        failed.append(f"drain summary commits {res['drained']['committed']} "
                      f"!= client commits {committed}")
    for name, ok in res["checks"].items():
        if ok is not True:
            failed.append(f"{name}: {ok}")
    if failed:
        raise CheckFailed("serve checks failed: " + "; ".join(failed))


def _phase(res: dict, name: str) -> dict:
    return next(p for p in res["phases"] if p["name"] == name)


def run_serve(root: str, wl: dict, seed: int, seconds: float,
              lines: list) -> tuple[dict, int, int]:
    fixed = serve_session(root, wl, seed, fixed_phases(wl, seconds),
                          "fixed", traced=False)
    # The ladder session holds most of the txns; replaying it would
    # cost as much again, so its state digest is not re-derived.
    ladder = serve_session(root, wl, seed, ladder_phases(wl, seconds),
                           "ladder", traced=False, replay=False)
    low, high = _phase(fixed, "low"), _phase(fixed, "high")
    # The ladder stops at its first rung that is not sustained.
    max_rate = 0
    for p in ladder["phases"]:
        if not p["sustained"]:
            break
        max_rate = p["rate"]
    sessions = (fixed, ladder)
    committed = sum(r["drained"]["committed"] for r in sessions)
    sim_seconds = sum(r["drained"]["end_cycles"] for r in sessions) / 2e9
    aborts = sum(r["stats"]["epoch_aborts"] for r in sessions)
    phases = fixed["phases"] + ladder["phases"]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    start_s = median([r["server_start_s"] for r in sessions])
    m = {
        "setup_s": start_s + fixed["build_s"],
        "peak_rss_mb": fixed["server_hwm_mb_fixed"] or fixed["server_rss_mb"],
        "wall_txn_s": float(max_rate),
        "sim_txn_s": committed / sim_seconds,
        # At the low rate the 50 ms deadline, not queueing, sets the
        # median, so it holds still on a shared machine.  The p99s track
        # the server's collector stalls and the machine's speed; they are
        # printed, and the ladder gates p99 through its 250 ms limit.
        "lat_p50_ms": low["p50_ms"],
    }
    for p in phases:
        lines.append(
            f"  phase {p['name']:<12s} {p['rate']:5d} txn/s  "
            f"n={p['attempted']:5d}  p50 {p['p50_ms']:8.2f} ms  "
            f"p99 {p['p99_ms']:8.2f} ms  late p99 {p['late_p99_ms']:7.2f} ms"
            f"  failed {p['failed']}  backlog {p['outstanding_at_end']}"
            f"  {'sustained' if p['sustained'] else 'NOT sustained'}")
    lines += [
        f"  setup_s            {m['setup_s']:12.4f} s   (server start "
        f"{start_s:.3f} s + txn build {fixed['build_s']:.3f} s)",
        f"  peak_rss_mb        {m['peak_rss_mb']:12.1f} MB (server process "
        f"through the fixed rates; {fixed['server_rss_mb']:.1f} MB at exit)",
        f"  serve_p50_ms.low   {low['p50_ms']:12.2f} ms  (= lat_p50_ms)",
        f"  serve_p99_ms.low   {low['p99_ms']:12.2f} ms",
        f"  serve_p50_ms.high  {high['p50_ms']:12.2f} ms",
        f"  serve_p99_ms.high  {high['p99_ms']:12.2f} ms",
        f"  serve_max_txn_s    {m['wall_txn_s']:12.1f} txn/s (= wall_txn_s)",
        f"  sim_txn_s          {m['sim_txn_s']:12.1f} txn/s (simulated, "
        f"all epochs)",
        f"  sim_abort_pct      "
        f"{100.0 * aborts / (committed + aborts):12.3f} %",
        f"  failed_pct         {100.0 * failed / attempted:12.3f} %",
        f"  checks: one response per submit, drain commits == client "
        f"commits, drain artifacts valid, replay of the fixed-rate "
        f"session reproduces its state digest",
    ]
    for name in ("low", "high"):
        if _phase(fixed, name)["late_p99_ms"] > 10.0:
            lines.append(f"  WARNING: generator ran late at {name} "
                         f"(p99 {_phase(fixed, name)['late_p99_ms']:.1f} ms)")
    return m, attempted, failed


def run_serve_traced(root: str, wl: dict, seed: int, seconds: float,
                     lines: list) -> tuple[dict, int, int]:
    phases = fixed_phases(wl, seconds)
    plain = serve_session(root, wl, seed, phases, "plain", traced=False)
    res = serve_session(root, wl, seed, phases, "traced", traced=True)
    low, high = _phase(res, "low"), _phase(res, "high")
    layers = res["trace"]["layers"]
    work = res["trace"]["work"]
    if not res["trace"]["nesting_ok"]:
        raise CheckFailed("child spans exceed their parent span")

    def self_s(span: str) -> float:
        return layers.get(span, {}).get("self_s", 0.0)

    def busy(r: dict) -> float:
        st = _phase(r, "high")["stages"]
        return st["schedule"]["p50"] + st["execute"]["p50"]

    hist = res["stats"]["epoch_size"]
    by_reason = res["stats"]["epochs_by_reason"]
    epochs = sum(by_reason.values())
    ops = work["ops"] or 0
    engine_s = self_s("sim.engine")
    m = {
        "txn.conflict_graph_s": self_s("txn.conflict_graph"),
        "txn.graph_edges": work["graph_edges"],
        "sim.engine_s": engine_s,
        "sim.ops": ops,
        "sim.us_per_op": engine_s * 1e6 / ops if ops else 0.0,
        "sim.commits": work["commits"],
        "sim.wasted_kcyc": work["wasted_cycles"] / 1e3,
        "sim.blocked_kcyc": work["blocked_cycles"] / 1e3,
        "cc.aborts": work["aborts"],
        "cc.commit_ratio": work["commits"] / (work["commits"]
                                              + work["aborts"]),
        "cc.contended_accesses": work["contended"],
        "partition.strife_s": self_s("partition.strife"),
        "partition.residual_pct": (100.0 * work["part_residual"]
                                   / work["partitioned"]
                                   if work["partitioned"] else 0.0),
        "core.prepare_s": self_s("core.prepare"),
        "core.tsgen_s": self_s("core.tsgen"),
        "core.scheduled_pct": (100.0 * work["tsgen_merged"]
                               / work["tsgen_input"]
                               if work["tsgen_input"] else 100.0),
        "core.tsdefer_s": self_s("core.tsdefer"),
        "core.tsdefer_checks": work["tsdefer_checks"],
        "core.deferrals": work["tsdefer_deferrals"],
        "core.defer_ratio": (work["tsdefer_deferrals"]
                             / work["tsdefer_checks"]
                             if work["tsdefer_checks"] else 0.0),
        "serve.queue_ms.p50": low["stages"]["queue"]["p50"],
        "serve.schedule_ms.p99": high["stages"]["schedule"]["p99"],
        "serve.execute_ms.p99": high["stages"]["execute"]["p99"],
        "serve.wire_ms.p99": high["stages"]["wire"]["p99"],
        "serve.decode_s": layers.get("serve.decode", {}).get("total_s", 0.0),
        "serve.encode_s": layers.get("serve.encode", {}).get("total_s", 0.0),
        "serve.epoch_txns.mean": (hist["sum"] / hist["count"]
                                  if hist.get("count") else 0.0),
        "serve.deadline_epoch_pct": (100.0 * by_reason.get("deadline", 0)
                                     / epochs if epochs else 0.0),
        "serve.rejected": res["stats"]["rejected"],
        "loadgen.late_ms.p99": max(low["late_p99_ms"], high["late_p99_ms"]),
        "trace.overhead_pct": 100.0 * (busy(res) / busy(plain) - 1.0),
    }
    lines += [
        f"  traced session: {res['trace']['spans']} spans; epochs by close "
        f"reason {by_reason}",
        f"  schedule+execute p50 at high: {busy(res):.3f} ms traced vs "
        f"{busy(plain):.3f} ms untraced",
    ]
    attempted = sum(p["attempted"] for r in (plain, res) for p in r["phases"])
    failed = sum(p["failed"] for r in (plain, res) for p in r["phases"])
    return m, attempted, failed


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repository checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "plan.json"), encoding="utf-8") as f:
        plan = json.load(f)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    wl = plan["workloads"].get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(plan['workloads'])}", file=sys.stderr)
        return 2

    lines = [f"== perfbench {args.workload}  seed={args.seed}  "
             f"seconds={args.seconds:g}  trace={args.trace}"]
    try:
        if wl["kind"] == "sim" and args.trace:
            metrics, attempted, failed = run_sim_traced(
                root, args.workload, wl, plan, args.seed, lines)
        elif wl["kind"] == "sim":
            metrics, attempted, failed = run_sim(
                root, args.workload, wl, plan, args.seed, args.seconds,
                lines)
        elif args.trace:
            metrics, attempted, failed = run_serve_traced(
                root, wl, args.seed, args.seconds, lines)
        else:
            metrics, attempted, failed = run_serve(
                root, wl, args.seed, args.seconds, lines)
    except (CheckFailed, subprocess.TimeoutExpired) as e:
        print("\n".join(lines))
        print(f"CHECK FAILED: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        lines.append(f"  {'layer metric':<26s} {'value':>16s}  unit")
        for d in wanted:
            # A metric this workload has no source for reports 0: its
            # layer never runs here (serve.* in a simulation), or its
            # work cannot be told apart (TSgen queue retries in serve).
            note = ("" if d["name"] in metrics
                    else "  (not measured on this workload)")
            metrics.setdefault(d["name"], 0)
            lines.append(f"  {d['name']:<26s} {metrics[d['name']]:16.6g}  "
                         f"{d['unit']}{note}")
    else:
        lines.append("  JSON names: " + ", ".join(
            f"{d['name']}={metrics[d['name']]:.6g} {d['unit']}"
            for d in wanted))
    print("\n".join(lines))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
