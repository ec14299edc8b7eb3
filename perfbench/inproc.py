"""Runner for the workloads that run the program in the benchmark's own
process (``eager-mix``, ``lazy-burst``).

Set-up time is measured in fresh processes, as users pay it: this file,
run as a script (``python3 perfbench/inproc.py setup|loop WORKLOAD SEED
SMOKE [SECONDS]``), imports, sets up, says ``ready``, checks the result
and, in ``loop`` mode, runs the timed loop.  Each set-up gets a process of
its own because a dropped session is not freed: the process-wide intern
table keeps it reachable, so a second set-up in one process would run
beside the first one's whole trace.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import time

import common
from common import Checks, GcPauses, Result, account, gc_layers


def workload_module(name: str):
    import eager_mix
    import lazy_burst

    return {"eager-mix": eager_mix, "lazy-burst": lazy_burst}[name]


# -- fresh-process probes ----------------------------------------------------


def _probe(args: list) -> tuple:
    """Run this file in a fresh process; returns ``(seconds until it said
    ready, its JSON report)``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)] + args,
                            cwd=common.ROOT, env=common.clean_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        report = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=170)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed (exit {proc.returncode})")
    return seconds, json.loads(report.strip().splitlines()[-1])


def _absorb(result: Result, report: dict) -> None:
    result.attempted += report["attempted"]
    for line in report["failures"]:
        result.fail(line)
    result.failed += report["failed"] - len(report["failures"])


def probe_main(argv: list) -> int:
    """``setup``: set up and check.  ``loop``: also run the timed loop for
    the given seconds and report its numbers."""
    mode, name, seed, smoke = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    mod = workload_module(name)
    result = Result()
    inputs = mod.Inputs(seed, smoke)
    docs, _ = mod.setup(inputs, result, on_ready=lambda: print("ready", flush=True))
    report = {}
    if mode == "loop":
        gcp = GcPauses().install()
        gc.collect()
        mark = gcp.mark()
        latencies, edits, loop_s = mod.loop(
            docs, inputs, result, Checks(gcp), time.perf_counter() + float(argv[4]), math.inf
        )
        report = {
            "ops": len(latencies),
            "edits": edits,
            "loop_s": loop_s,
            "p50_ms": common.percentile(latencies, 50) * 1e3,
            "p99_ms": common.percentile(latencies, 99) * 1e3,
            "peak_rss_mb": common.peak_rss_mb(),
            "gc_pause_s": sum(gcp.since(mark)[0]),
        }
    report.update(attempted=result.attempted, failed=result.failed,
                  failures=result.failures)
    print(json.dumps(report))
    return 0


# -- per-layer readouts ----------------------------------------------------


def engine_counters(engines) -> dict:
    """Summed meter, order and intern counters of the given engines."""
    from repro.sac.intern import intern_stats

    total: dict = {}
    for engine in engines:
        for key, value in engine.meter.snapshot().items():
            total[key] = total.get(key, 0) + value
        total["relabels"] = total.get("relabels", 0) + engine.order.stats()["relabels"]
        total["trace_size"] = total.get("trace_size", 0) + engine.trace_size()
    interned = intern_stats()
    total["intern_hits"] = interned["hits"]
    total["intern_misses"] = interned["misses"]
    return total


def sac_layers(before: dict, after: dict, edits: int) -> dict:
    d = {k: after[k] - before.get(k, 0) for k in after}
    per = max(edits, 1)
    memo = d["memo_hits"] + d["memo_misses"]
    interned = d["intern_hits"] + d["intern_misses"]
    return {
        "sac.reads_per_edit": d["reads_executed"] / per,
        "sac.reexec_per_edit": d["edges_reexecuted"] / per,
        "sac.memo_hit_ratio": d["memo_hits"] / memo if memo else 0.0,
        "sac.mods_per_edit": d["mods_created"] / per,
        "sac.queue_pushes": d["queue_pushes"],
        "sac.queue_rekeys": d["queue_rekeys"],
        "sac.order.relabels": d["relabels"],
        "sac.intern.hit_ratio": d["intern_hits"] / interned if interned else 0.0,
        "sac.trace_size": after["trace_size"],
        "sac.compactions": d["compactions"],
        "sac.demand.clean_ratio": d["demands_clean"] / d["demands"] if d["demands"] else 0.0,
        "sac.demand.deferred": d["demand_deferred"],
        "sac.demand.hazards": d["demand_hazards"],
        "sac.feeds.hits": d["feeds_hits"],
        "sac.feeds.updates": d["feeds_updates"],
        "sac.feeds.recomputes": d["feeds_recomputes"],
        "sac.feeds.dfs_visits": d["feeds_dfs_visits"],
    }


def sxml_nodes(expr) -> int:
    """Number of SXML nodes in a term (dataclass instances of
    ``repro.core.sxml``, walked iteratively)."""
    seen, stack, count = set(), [expr], 0
    while stack:
        node = stack.pop()
        if isinstance(node, (list, tuple)):
            stack.extend(node)
            continue
        if not dataclasses.is_dataclass(node) or id(node) in seen:
            continue
        seen.add(id(node))
        if type(node).__module__ == "repro.core.sxml":
            count += 1
        for f in dataclasses.fields(node):
            if f.name != "ty":
                stack.append(getattr(node, f.name))
    return count


# -- the two kinds of run ----------------------------------------------------


def run(name: str, args, result: Result) -> None:
    mod = workload_module(name)
    smoke = "1" if args.smoke else "0"
    if args.trace:
        _run_traced(mod, name, args, result, smoke)
        return
    # One of the fresh processes also runs the timed loop; the others are
    # split before and after it, so that set-up time samples the whole run.
    setups = []
    for k in range(mod.SETUPS):
        if k == (mod.SETUPS - 1) // 2:
            seconds, loop = _probe(["loop", name, str(args.seed), smoke, str(args.seconds)])
            _absorb(result, loop)
        else:
            seconds, report = _probe(["setup", name, str(args.seed), smoke])
            _absorb(result, report)
        setups.append(seconds)
    setup = common.median(setups)
    ops_per_s = loop["edits"] / loop["loop_s"]
    result.e2e = {
        "setup_s": (setup, "s"),
        "p50_ms": (loop["p50_ms"], "ms"),
        "p99_ms": (loop["p99_ms"], "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }
    result.put("setup_s", setup, "s", len(setups))
    result.put(f"{mod.OP}_p50_ms", loop["p50_ms"], "ms", loop["ops"])
    result.put(f"{mod.OP}_p99_ms", loop["p99_ms"], "ms", loop["ops"])
    result.put("edits_per_s", ops_per_s, "1/s", loop["edits"])
    result.put("peak_rss_mb", loop["peak_rss_mb"], "MB", 1)
    result.put("gc_share_of_loop", loop["gc_pause_s"] / loop["loop_s"], "ratio", 1)


def _run_traced(mod, name: str, args, result: Result, smoke: str) -> None:
    """Pass 1, untraced in a fresh process, fixes the op count and the
    reference loop time; pass 2 replays the same seeded ops under spans
    here."""
    from repro.core.sxmlutil import alpha_equal
    from tracing import Tracer, diff

    _seconds, report = _probe(["loop", name, str(args.seed), smoke, str(args.seconds / 2)])
    _absorb(result, report)
    ops, untraced_s = report["ops"], report["loop_s"]
    inputs = mod.Inputs(args.seed, args.smoke)
    untraced = {app.name: app.compiled().sxml_translated for app in mod.apps()}

    gcp = GcPauses().install()
    tracer = Tracer()
    tracer.install_compiler()
    tracer.install_api()
    tracer.install_engine(callbacks=True)
    tracer.install_backends()
    gcp.listener = tracer.on_gc_pause
    try:
        docs, _ = mod.setup(inputs, result)
        programs = mod.programs(docs)
        for app_name, program in programs.items():
            result.attempted += 1
            # Fresh names come from process-wide counters, so two compiles
            # print alike only up to the renaming of bound names.
            if not alpha_equal(program.sxml_translated, untraced[app_name]):
                result.fail(f"{app_name}: traced compile differs from the untraced one")
        gc.collect()
        counters = engine_counters(mod.engines(docs))
        mark, before = gcp.mark(), tracer.snapshot()
        gcp.window_max_s = 0.0
        checks = Checks(gcp, span=lambda fn: tracer.span("check", "check_s", fn))
        latencies, edits, traced_s = mod.loop(docs, inputs, result, checks, math.inf, ops)
        window = diff(tracer.snapshot(), before)
    finally:
        tracer.unpatch()
        gcp.listener = None
    layers = result.layers
    layers.update(sac_layers(counters, engine_counters(mod.engines(docs)), edits))
    layers.update(gc_layers(*gcp.since(mark), gcp.window_max_s, traced_s))
    layers.update(tracer.total_s)
    layers["core.optimize.prims_removed"] = tracer.counts.get("core.optimize.prims_removed", 0)
    layers["core.sxml_nodes"] = sum(sxml_nodes(p.sxml_translated) for p in programs.values())
    account(layers, window["self_s"], layers["gc.pause_s"], traced_s, exclude=("check",))
    layers["trace.overhead_share"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    result.put("trace.ops", ops, "count", ops)
    result.put("trace.untraced_loop_s", untraced_s, "s", ops)
    result.put("trace.traced_loop_s", traced_s, "s", len(latencies))
    result.put("trace.check_gc_s", gcp.excluded_s, "s", 1)


if __name__ == "__main__":
    sys.exit(probe_main(sys.argv[1:]))
