"""Start ``python -m repro serve`` with the benchmark's instruments.

    python3 perfbench/serve_launcher.py --stats FILE [--trace] -- SERVE-ARGS...

Registers the GC pause callbacks (and, with ``--trace``, the layer spans)
in the server process, then enters the normal ``serve`` command with
SERVE-ARGS.  On SIGUSR1 it writes its counters to FILE (atomically), so the
benchmark can read them before it SIGKILLs the server.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import common


def main(argv) -> int:
    split = argv.index("--")
    own, serve_args = argv[:split], argv[split + 1:]
    stats_path = own[own.index("--stats") + 1]

    gcp = common.GcPauses().install()
    tracer = None
    if "--trace" in own:
        import selectors

        from tracing import Tracer

        tracer = Tracer()
        tracer.install_compiler()
        tracer.install_api()
        # Snapshots serialize the trace's closures, so the engine's
        # callbacks stay unwrapped here: backend time counts as ``sac``.
        tracer.install_engine(callbacks=False)
        tracer.install_persist()
        tracer.install_server()
        tracer.patch(selectors.DefaultSelector, "select", "idle", "server.idle_s")
        gcp.listener = tracer.on_gc_pause

    def dump(_signum, _frame) -> None:
        record = {
            "time": time.perf_counter(),
            "gc": {
                "pause_s": list(gcp.pause_s),
                "count": list(gcp.count),
                "window_max_s": gcp.window_max_s,
            },
            "rss_mb": common.peak_rss_mb(),
            "spans": tracer.snapshot() if tracer is not None else None,
        }
        gcp.window_max_s = 0.0
        tmp = stats_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(record, f)
        os.replace(tmp, stats_path)

    signal.signal(signal.SIGUSR1, dump)
    from repro.__main__ import main as repro_main

    return repro_main(["serve"] + serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
