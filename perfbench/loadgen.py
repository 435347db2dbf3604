"""Open-loop Poisson load generator for the ``serve-tpcc-s`` workload.

Runs in its own process, apart from the server, so the server's event
loop and GIL never carry the generator.  It speaks ``repro.wire/1``
through :mod:`repro.serve.protocol` over two connections and sends on a
fixed Poisson schedule (:func:`repro.serve.loadgen.poisson_schedule`),
whether or not earlier requests have been answered.

Unlike ``repro loadgen``, every request is timed from the instant it was
*due*, not from when it was actually written, so a stall in the server
or in the generator shows up in the latency of every request it delays.
How late the generator itself ran is reported next to the latencies.  A
rejected submit is a failure; it is never retried.

Phases run back to back; each waits for its own responses before the
next one starts.  Ladder phases stop at the first rung that misses the
latency limit, fails a request, or ends with a growing backlog.

Usage (normally started by ``perfbench/run.py``)::

    python3 perfbench/loadgen.py --port P --seed N --server-pid PID
        --plan PLAN.json --artifact DRAIN.json --out RESULT.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
import time

#: Seconds to wait for a phase's last responses before calling them lost.
RESPONSE_WAIT_S = 30.0


class Requests:
    """The TPC-C transactions the run sends, built phase by phase.

    One seeded generator makes the whole stream, so the transactions are
    a pure function of the seed however far the ladder climbs; rungs
    that are never reached are never built.
    """

    def __init__(self, seed: int, workload: dict):
        from repro.bench.workloads import TpccGenerator
        from repro.common.config import TpccConfig

        t0 = time.perf_counter()
        self.seed = seed
        self.gen = TpccGenerator(
            TpccConfig(num_warehouses=workload["warehouses"],
                       cross_pct=workload["cross_pct"]), seed=seed)
        self.txns: list = []
        self.frames: list[bytes] = []
        self.build_s = time.perf_counter() - t0

    def extend(self, n: int, salt: int) -> None:
        from repro.bench.workloads import apply_runtime_skew
        from repro.common.config import RuntimeSkewConfig, SimConfig
        from repro.common.rng import Rng
        from repro.serve.protocol import encode_frame, txn_to_wire

        t0 = time.perf_counter()
        w = self.gen.make_workload(n, tid_start=len(self.txns))
        # Runtime skew travels on the wire (min_runtime_cycles), as with
        # `repro loadgen`; the server itself runs with skew off.
        apply_runtime_skew(w, RuntimeSkewConfig(), SimConfig(),
                           rng=Rng(self.seed * 7907 + salt))
        for t in w:
            self.frames.append(encode_frame(
                {"type": "submit", "id": len(self.txns),
                 "txn": txn_to_wire(t)}))
            self.txns.append(t)
        self.build_s += time.perf_counter() - t0


def server_hwm_mb(pid: int) -> float | None:
    """Peak resident set so far of process ``pid`` (Linux), in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def phase_sizes(phases: list[dict]) -> list[int]:
    """Requests per phase: the expected count at its rate and length."""
    return [max(1, math.ceil(p["rate"] * p["seconds"])) for p in phases]


class Conn:
    """One connection: writes frames, reads responses into shared maps."""

    def __init__(self, reader, writer, state: "Session"):
        self.reader = reader
        self.writer = writer
        self.state = state
        self.task = asyncio.create_task(self._read_loop())

    async def _read_loop(self) -> None:
        from repro.serve.protocol import SERVER_FRAMES, WireError, decode_frame

        st = self.state
        while True:
            line = await self.reader.readline()
            if not line:
                return
            now = time.monotonic()
            try:
                frame = decode_frame(line, SERVER_FRAMES)
            except WireError:
                st.wire_errors += 1
                continue
            kind = frame["type"]
            if kind == "response":
                rid = frame.get("id")
                if rid in st.responses:
                    st.duplicates += 1
                    continue
                st.responses[rid] = (now, frame)
                st.answered += 1
                if st.answered == st.wanted and st.phase_done is not None:
                    st.phase_done.set()
            elif kind in ("stats", "drained"):
                fut = st.control.pop(kind, None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
            else:  # "error"
                st.wire_errors += 1


class Session:
    """Client-side state of one run: sends, responses, counters."""

    def __init__(self):
        self.responses: dict[int, tuple[float, dict]] = {}
        self.due: dict[int, float] = {}
        self.sent: dict[int, float] = {}
        self.answered = 0
        self.wanted = 0
        self.duplicates = 0
        self.wire_errors = 0
        self.phase_done: asyncio.Event | None = None
        self.control: dict[str, asyncio.Future] = {}


def _pct(values: list[float], q: float) -> float:
    from repro.common.stats import percentile

    return float(percentile(sorted(values), q)) if values else 0.0


def phase_report(phase: dict, ids: range, st: Session, outstanding: int,
                 limits: dict) -> dict:
    """Latency, lateness and failures of one phase, from its records."""
    lat, late, stages = [], [], {"queue": [], "schedule": [], "execute": [],
                                 "total": [], "wire": []}
    committed = rejected = other = missing = 0
    for rid in ids:
        late.append((st.sent[rid] - st.due[rid]) * 1e3)
        got = st.responses.get(rid)
        if got is None:
            missing += 1
            continue
        recv, frame = got
        status = frame.get("status")
        if status == "committed":
            committed += 1
            lat.append((recv - st.due[rid]) * 1e3)
            srv = frame.get("latency_ms", {})
            for k in ("queue", "schedule", "execute", "total"):
                stages[k].append(float(srv.get(k, 0.0)))
            stages["wire"].append((recv - st.sent[rid]) * 1e3
                                  - float(srv.get("total", 0.0)))
        elif status == "rejected":
            rejected += 1
        else:
            other += 1
    n = len(ids)
    failed = n - committed
    p99 = _pct(lat, 0.99)
    # Little's law at the latency limit: a backlog above rate x limit at
    # the phase's last send means queueing outgrew the limit.
    backlog_cap = phase["rate"] * limits["p99_ms"] / 1e3
    return {
        "name": phase["name"], "rate": phase["rate"], "attempted": n,
        "committed": committed, "rejected": rejected, "errored": other,
        "unanswered": missing, "failed": failed,
        "p50_ms": _pct(lat, 0.50), "p99_ms": p99,
        "late_p99_ms": _pct(late, 0.99),
        "outstanding_at_end": outstanding,
        "sustained": (failed == 0 and p99 <= limits["p99_ms"]
                      and outstanding <= backlog_cap),
        "stages": {k: {"p50": _pct(v, 0.50), "p99": _pct(v, 0.99)}
                   for k, v in stages.items()},
    }


async def drive(port: int, seed: int, plan: dict, reqs: Requests,
                server_pid: int) -> dict:
    """Send the plan's phases; collect what came back."""
    from repro.serve.loadgen import poisson_schedule
    from repro.serve.protocol import encode_frame

    phases = plan["phases"]
    sizes = phase_sizes(phases)
    # The fixed-rate phases are built before the first send (set-up);
    # ladder rungs just before they run.
    fixed = [i for i, p in enumerate(phases) if not p.get("ladder")]
    for i in fixed:
        reqs.extend(sizes[i], i)
    hwm_fixed = None
    st = Session()
    conns = []
    for _ in range(plan["connections"]):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 22)
        conns.append(Conn(reader, writer, st))

    reports = []
    first = 0
    loop = asyncio.get_running_loop()
    for pi, (phase, n) in enumerate(zip(phases, sizes)):
        if pi not in fixed:
            reqs.extend(n, pi)
        offsets = poisson_schedule(n, phase["rate"], seed * 1009 + pi)
        ids = range(first, first + n)
        first += n
        st.wanted = st.answered + n
        st.phase_done = asyncio.Event()
        start = time.monotonic()
        for rid, off in zip(ids, offsets):
            due = start + off
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = conns[rid % len(conns)]
            st.due[rid] = due
            st.sent[rid] = time.monotonic()
            conn.writer.write(reqs.frames[rid])
            await conn.writer.drain()
        outstanding = st.wanted - st.answered
        try:
            await asyncio.wait_for(st.phase_done.wait(), RESPONSE_WAIT_S)
        except asyncio.TimeoutError:
            pass
        rep = phase_report(phase, ids, st, outstanding, plan["limits"])
        reports.append(rep)
        if fixed and pi == fixed[-1]:
            hwm_fixed = server_hwm_mb(server_pid)
        if phase.get("ladder") and not rep["sustained"]:
            break

    async def control(kind: str) -> dict:
        fut = loop.create_future()
        st.control["drained" if kind == "drain" else kind] = fut
        conns[0].writer.write(encode_frame({"type": kind}))
        await conns[0].writer.drain()
        return await asyncio.wait_for(fut, RESPONSE_WAIT_S)

    stats = (await control("stats"))["data"]
    drained = (await control("drain"))["summary"]
    # Late duplicates would land before the drained frame on the same
    # connection; give the other connection's reader the same chance.
    await asyncio.sleep(0.05)
    for c in conns:
        c.writer.close()
        c.task.cancel()
    await asyncio.gather(*(c.task for c in conns), return_exceptions=True)
    return {
        "build_s": reqs.build_s,
        "server_hwm_mb_fixed": hwm_fixed,
        "sent": first,
        "answered": st.answered,
        "duplicates": st.duplicates,
        "wire_errors": st.wire_errors,
        "phases": reports,
        "tids": [st.responses[rid][1].get("tid") if rid in st.responses
                 else None for rid in range(first)],
        "stats": {
            "rejected": stats["rejected"],
            "epochs_by_reason": stats["epochs_by_reason"],
            "epoch_size": stats["metrics"]["histograms"].get(
                "serve.epoch_size", {}),
            "epoch_aborts": stats["metrics"]["counters"].get(
                "serve.epoch_aborts", 0),
        },
        "drained": drained,
    }


def check_server(plan: dict, txns: list, result: dict,
                 artifact_path: str) -> dict:
    """Server-side checks on a finished session.

    The drain artifact must validate, and, when the plan asks for it,
    replaying the recorded epoch compositions batch-style must reproduce
    the drain's state digest.  A replay costs about as much CPU as the
    session's own scheduling and execution.
    """
    from repro.common.config import ExperimentConfig, ServeConfig, SimConfig
    from repro.common.errors import ReproError
    from repro.obs.artifact import validate_serve_artifact
    from repro.serve import (replay_epochs, state_digest, txn_from_wire,
                             txn_to_wire)

    with open(artifact_path, encoding="utf-8") as f:
        doc = json.load(f)
    checks = {}
    try:
        validate_serve_artifact(doc)
        checks["artifact_valid"] = True
    except ReproError as e:
        checks["artifact_valid"] = str(e)
        return checks
    if not plan["replay"]:
        return checks
    tid_to_req = {tid: rid for rid, tid in enumerate(result["tids"])
                  if tid is not None}
    try:
        epochs = [[txn_from_wire(txn_to_wire(txns[tid_to_req[tid]]), tid)
                   for tid in e["tids"]] for e in doc["epochs"]]
    except KeyError as e:
        checks["replay_digest_match"] = f"epoch holds unanswered tid {e}"
        return checks
    server = plan["server"]
    # The configs `repro serve` builds from the same command line.
    serve_cfg = ServeConfig(system=server["system"],
                            record_epoch_tids=True)
    exp = ExperimentConfig(sim=SimConfig(num_threads=server["threads"]),
                           skew=None, seed=server["seed"])
    executor, _ = replay_epochs(serve_cfg, exp, epochs)
    digest = state_digest(list(tid_to_req.values()),
                          executor.database_state(), tid_to_req)
    checks["replay_digest_match"] = (
        digest == result["drained"].get("state_digest"))
    return checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--server-pid", type=int, required=True,
                    help="read the server's peak RSS after the fixed rates")
    ap.add_argument("--plan", required=True,
                    help="JSON file: server, workload, connections, limits, "
                         "phases")
    ap.add_argument("--artifact", required=True,
                    help="the server's drain artifact (--export-json)")
    ap.add_argument("--out", required=True, help="where to write the result")
    args = ap.parse_args(argv)
    with open(args.plan, encoding="utf-8") as f:
        plan = json.load(f)

    reqs = Requests(args.seed, plan["workload"])
    result = asyncio.run(drive(args.port, args.seed, plan, reqs,
                               args.server_pid))
    result["checks"] = check_server(plan, reqs.txns, result, args.artifact)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
