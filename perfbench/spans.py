"""In-memory span recorder that wraps the program's layer entry points.

The program is not edited.  :func:`install_sim` and :func:`install_serve`
replace public functions and methods of the ``repro`` layers with
wrappers that record one span per call: name, start, end, parent span
and request id.  Spans stay in memory; :meth:`Recorder.write` saves them
when the traced process ends.

A span's *self time* is its duration minus the time covered by its
direct children.  Spans nest per thread (the serve pipeline runs
schedule and execute on worker threads), so each thread keeps its own
stack of open spans.

Next to the times, the wrappers tally deterministic work counts from
the values the layers return (:class:`Counts`), so a slower layer reads
either as "more work" or as "slower work".
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Counts:
    """Work counts taken from layer return values at the span boundary."""

    def __init__(self):
        self.partitioned = 0     # transactions handed to a partitioner
        self.part_residual = 0   # of those, left in its residual
        self.tsgen_input = 0     # residual candidates TSgen examined
        self.tsgen_merged = 0    # of those, merged into RC-free queues
        self.commits = 0
        self.aborts = 0
        self.wasted_cycles = 0
        self.blocked_cycles = 0
        #: Operations executed, counting every attempt.  Under OCC an
        #: aborted attempt runs all its operations before validation
        #: fails, so attempts x ops is exact there.
        self.ops = 0
        self.graphs: list = []
        self._commit_ops: list[int] = []
        self.ops_aligned = True

    def on_partition(self, args, plan) -> None:
        self.partitioned += len(args[1])
        self.part_residual += len(plan.residual)

    def on_tsgen(self, args, schedule) -> None:
        self.tsgen_input += schedule.input_residual
        self.tsgen_merged += schedule.merged_residual

    def on_graph(self, args, graph) -> None:
        if all(g is not graph for g in self.graphs):
            self.graphs.append(graph)

    def on_commit(self, args, _) -> None:
        # TsDefer.on_commit(self, thread_id, txn, now) runs right before
        # the engine appends the txn's retry count, so the two lists line
        # up within one engine run.
        self._commit_ops.append(args[2].num_ops)

    def on_engine_run(self, args, result) -> None:
        c = result.counters
        self.commits += c.committed
        self.aborts += c.aborts
        self.wasted_cycles += c.wasted_cycles
        self.blocked_cycles += c.blocked_cycles
        ops, self._commit_ops = self._commit_ops, []
        if len(ops) != len(result.retry_counts):
            self.ops_aligned = False
        self.ops += sum(n * (1 + r) for n, r in zip(ops, result.retry_counts))

    def graph_edges(self) -> int:
        """Conflict edges over every graph built (call after the run)."""
        return sum(sum(len(g.neighbors(t)) for t in g.tids) // 2
                   for g in self.graphs)


class Recorder:
    """Collects ``(id, name, start_ns, end_ns, parent_id, req, thread)``."""

    def __init__(self, req=None):
        #: Request id stamped on spans whose wrapper names none: the
        #: bundle a simulated run executes.
        self.req = req
        self.spans: list[tuple] = []
        self.counts = Counts()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, req_of=None,
             observe=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``req_of(args, result)`` names the request a call served (an
        epoch or a client request id); by default the recorder's own.
        ``observe(args, result)`` tallies counts after the span closes.
        """
        fn = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        perf = time.perf_counter_ns
        thread_id = threading.get_ident
        default_req = self.req

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            req = default_req if req_of is None else req_of(args, result)
            spans.append((sid, name, t0, t1, parent, req, thread_id()))
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; nesting check.

        ``nesting_ok`` is False when some span's direct children cover
        more time than the span itself, which would make self times
        meaningless.
        """
        child_ns: dict[int, int] = {}
        for sid, _, t0, t1, parent, _, _ in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        out: dict[str, dict] = {}
        nesting_ok = True
        for sid, name, t0, t1, _, _, _ in self.spans:
            dur = t1 - t0
            kids = child_ns.get(sid, 0)
            if kids > dur:
                nesting_ok = False
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - kids) / 1e9
        return {"layers": out, "nesting_ok": nesting_ok,
                "spans": len(self.spans)}

    def count_summary(self) -> dict:
        c = self.counts
        return {
            "partitioned": c.partitioned, "part_residual": c.part_residual,
            "tsgen_input": c.tsgen_input, "tsgen_merged": c.tsgen_merged,
            "commits": c.commits, "aborts": c.aborts,
            "wasted_cycles": c.wasted_cycles,
            "blocked_cycles": c.blocked_cycles,
            "ops": c.ops if c.ops_aligned else None,
            "graph_edges": c.graph_edges(),
        }

    def write(self, path: str) -> None:
        """One JSON line per span, in completion order."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, t0, t1, parent, req, thread in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                    "end_ns": t1, "parent": parent,
                                    "req": req, "thread": thread}))
                f.write("\n")


def install_sim(rec: Recorder) -> None:
    """Wrap the entry points of the txn, sim, partition, core and predict
    layers that one ``run_system`` call goes through."""
    import repro.bench.runner as runner
    import repro.core.tspar as tspar
    from repro.core.tsdefer import TsDefer
    from repro.core.tskd import TSKD
    from repro.partition import PARTITIONERS
    from repro.predict.policy import OnlinePolicy
    from repro.sim.engine import MulticoreEngine
    from repro.txn.workload import Workload

    counts = rec.counts
    rec.wrap(runner, "warm_up_history", "sim.warmup")
    rec.wrap(Workload, "conflict_graph", "txn.conflict_graph",
             observe=counts.on_graph)
    rec.wrap(TSKD, "prepare", "core.prepare")
    for pname, cls in PARTITIONERS.items():
        if "partition" in vars(cls):
            rec.wrap(cls, "partition", f"partition.{pname}",
                     observe=counts.on_partition)
    # tspar calls tsgen through its own module global.
    rec.wrap(tspar, "tsgen", "core.tsgen", observe=counts.on_tsgen)
    rec.wrap(TsDefer, "filter", "core.tsdefer")
    rec.wrap(TsDefer, "on_dispatch", "core.tsdefer")
    rec.wrap(TsDefer, "on_commit", "core.tsdefer", observe=counts.on_commit)
    for method in ("on_dispatch", "on_commit", "hot_keys", "end_epoch"):
        rec.wrap(OnlinePolicy, method, "predict.policy")
    rec.wrap(MulticoreEngine, "run", "sim.engine",
             observe=counts.on_engine_run)


def install_serve(rec: Recorder) -> None:
    """Wrap the serve layer's codec and epoch stages, plus the sim layers
    each epoch runs through."""
    import repro.serve.server as server
    from repro.serve.pipeline import EpochExecutor

    install_sim(rec)

    def frame_id(args, result):
        return result.get("id") if isinstance(result, dict) else None

    def epoch_id(args, result):
        return args[2] if len(args) > 2 else None

    # server.py imports the codec functions by name, so wrap its globals.
    rec.wrap(server, "decode_frame", "serve.decode", frame_id)
    rec.wrap(server, "txn_from_wire", "serve.decode")
    rec.wrap(server, "encode_frame", "serve.encode",
             lambda args, result: args[0].get("id") if args else None)
    rec.wrap(EpochExecutor, "schedule", "serve.schedule", epoch_id)
    rec.wrap(EpochExecutor, "execute", "serve.execute", epoch_id)
