"""Start the normal ``repro serve`` with the layer entry points wrapped.

The server is the CLI's own (:func:`repro.cli.main`); this launcher only
installs the span wrappers of :func:`spans.install_serve` first.  When
the server has drained and returned, it writes the spans and a summary
(span self times, work counts, CC contention, TsDEFER tallies) into
``--trace-dir``.

Usage::

    python3 perfbench/serve_traced.py --trace-dir DIR -- serve ARGS...
"""

from __future__ import annotations

import json
import os
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--trace-dir" or argv[2] != "--":
        sys.exit("usage: serve_traced.py --trace-dir DIR -- <repro args>")
    trace_dir, cli_args = argv[1], argv[3:]

    from spans import Recorder, install_serve

    from repro.cli import main as repro_main
    from repro.serve.pipeline import EpochExecutor

    rec = Recorder()
    install_serve(rec)
    executors = []
    init = EpochExecutor.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        executors.append(self)

    EpochExecutor.__init__ = capture

    code = repro_main(cli_args)
    summary = rec.summary()
    summary["work"] = rec.count_summary()
    work = summary["work"]
    work["contended"] = sum(ex.engine.protocol.contended for ex in executors)
    filters = [ex.tsdefer for ex in executors if ex.tsdefer is not None]
    work["tsdefer_checks"] = sum(f.stats.checks for f in filters)
    work["tsdefer_deferrals"] = sum(f.stats.deferrals for f in filters)
    os.makedirs(trace_dir, exist_ok=True)
    rec.write(os.path.join(trace_dir, "spans-serve.jsonl"))
    with open(os.path.join(trace_dir, "serve-summary.json"), "w",
              encoding="utf-8") as f:
        json.dump(summary, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
