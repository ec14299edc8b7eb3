"""Demand-driven propagation vs eager propagation: k edits, one read.

The laziness claim: when a host makes many edits but only observes a
small part of the output, eager propagation pays for the whole dirty
queue after every edit, while lazy mode only marks suspicion at edit
time and, at the single read, re-executes just the dirty cone feeding
the observed cell.  The scenario is msort with EDITS random edits and
one read of the output's head cell:

* eager regime: EDITS x (edit + full propagate), then peek the head --
  the eager discipline must propagate after every edit to keep the
  output consistent;
* lazy regime: EDITS edits (suspect marking included in the timed
  section), then one ``Session.get(head)`` demand.

Most edits land in cells the head's cone never touches, so the lazy
side must beat the eager side by at least 10x at n=256.

Two further regimes compare the maintained reverse-reachability
summaries (``feeds="summary"``, the default) against the retired
per-demand DFS (``feeds="dfs"``):

* repeated-demand: EDITS staged edits (a large standing dirty queue),
  then REPEATS rounds of one edit plus one head demand.  Re-execution
  work is *identical* between the impls (the relevance verdicts agree),
  so wall times land within noise of each other; the asymmetry is in
  the relevance filter itself, reported as deterministic counters: the
  DFS explores ``feeds_dfs_visits`` reader-graph nodes to produce its
  per-entry verdicts, where the summaries answer each verdict with one
  bitmask test.  The gate (>=3x at n=256) is on visits per verdict --
  machine-noise-free, and exactly the cost the summaries removed from
  the drain loop.
* many-targets: the same standing queue, then REPEATS rounds of one
  edit plus one multi-target demand of 8 output-spine cells held from
  the initial run (the server-pool pattern: clients keep references and
  re-read them in batches).

``REPRO_LAZY_SIZES`` overrides the input sizes (e.g. "64" for a CI
smoke run); the claims are only asserted at the defaults.
"""

import os
import random
import time

from repro.api import Session
from repro.apps import REGISTRY
from repro.bench import format_series
from repro.sac.modifiable import Modifiable

from _util import emit, format_spread_rows, once

_SIZES_ENV = os.environ.get("REPRO_LAZY_SIZES")
SIZES = [int(s) for s in (_SIZES_ENV or "64 128 256").split()]
_SMOKE = _SIZES_ENV is not None

EDITS = 32
REPEATS = 8
ATTEMPTS = 5


def _fresh(n, mode, seed=3, feeds=None):
    app = REGISTRY["msort"]
    rng = random.Random(seed)
    session = Session(app, mode=mode, feeds=feeds)
    output = session.run(data=app.make_data(n, rng))
    return app, rng, session, output


def _eager_time(n):
    """Seconds for EDITS edit+propagate rounds plus the head read."""
    app, rng, session, output = _fresh(n, "eager")
    started = time.perf_counter()
    for step in range(EDITS):
        app.apply_change(session.input_handle, rng, step)
        session.propagate()
    head = output.peek()
    elapsed = time.perf_counter() - started
    assert head is not None
    return elapsed


def _lazy_time(n):
    """Seconds for EDITS edits (suspect marking and all) plus one
    demand of the head cell; also returns how much work the demand did
    and how much it deferred."""
    app, rng, session, output = _fresh(n, "lazy")
    meter = session.engine.meter
    started = time.perf_counter()
    for step in range(EDITS):
        app.apply_change(session.input_handle, rng, step)
    head = session.get(output)
    elapsed = time.perf_counter() - started
    assert head is not None
    return elapsed, meter.edges_reexecuted, meter.demand_deferred


def test_lazy_demand_msort(benchmark, capsys):
    def run():
        eager = [
            min(_eager_time(n) for _ in range(ATTEMPTS)) for n in SIZES
        ]
        lazy, reexec, deferred = [], [], []
        for n in SIZES:
            samples = [_lazy_time(n) for _ in range(ATTEMPTS)]
            lazy.append(min(s[0] for s in samples))
            reexec.append(samples[0][1])
            deferred.append(samples[0][2])
        return eager, lazy, reexec, deferred

    eager, lazy, reexec, deferred = once(benchmark, run)

    speedups = [e / l for e, l in zip(eager, lazy)]
    series = {
        f"{EDITS} eager edit+prop rounds (s)": eager,
        f"{EDITS} edits + 1 head demand (s)": lazy,
        "lazy speedup": speedups,
        "reads re-executed by demand": reexec,
        "queue entries deferred": deferred,
    }
    text = format_series(
        f"Lazy demand: msort, {EDITS} edits then one head read, "
        f"eager vs demand-driven",
        SIZES,
        series,
    )

    if not _SMOKE:
        at256 = SIZES.index(256)
        assert speedups[at256] >= 10.0, (
            f"lazy demand lost its 10x edge at n=256: "
            f"{speedups[at256]:.2f}x"
        )

    emit(capsys, "Lazy demand", text, save=not _SMOKE)


# ----------------------------------------------------------------------
# Summary vs DFS regimes


def _repeated_demand(n, feeds):
    """EDITS staged edits, then REPEATS x (one edit + one head demand).

    Returns the wall seconds of the demand rounds and the meter deltas
    the gate needs: reader-graph nodes the DFS explored, per-entry
    relevance verdicts produced (queue pops: drained + deferred), and
    re-executions (must be impl-independent)."""
    app, rng, session, output = _fresh(n, "lazy", feeds=feeds)
    for step in range(EDITS):
        app.apply_change(session.input_handle, rng, step)
    meter = session.engine.meter
    before = meter.snapshot()
    started = time.perf_counter()
    for k in range(REPEATS):
        app.apply_change(session.input_handle, rng, EDITS + k)
        head = session.get(output)
        assert head is not None
    elapsed = time.perf_counter() - started
    after = meter.snapshot()
    visits = after["feeds_dfs_visits"] - before["feeds_dfs_visits"]
    verdicts = (
        after["queue_drained"] - before["queue_drained"]
        + after["demand_deferred"] - before["demand_deferred"]
    )
    reexec = after["edges_reexecuted"] - before["edges_reexecuted"]
    return elapsed, visits, verdicts, reexec


def _spine_cells(output, count):
    """``count`` spaced modifiables along a consistent cons-list spine."""
    cells, node = [], output
    while isinstance(node, Modifiable):
        cells.append(node)
        value = node.peek()
        if value.arg is None:
            break
        node = value.arg[1]
    stride = max(1, len(cells) // count)
    return cells[:: stride][:count]


def _many_targets(n, feeds):
    """EDITS staged edits, then REPEATS x (one edit + one batched demand
    of 8 output-spine cells held since the initial run)."""
    app, rng, session, output = _fresh(n, "lazy", feeds=feeds)
    targets = _spine_cells(output, 8)
    for step in range(EDITS):
        app.apply_change(session.input_handle, rng, step)
    engine = session.engine
    started = time.perf_counter()
    for k in range(REPEATS):
        app.apply_change(session.input_handle, rng, EDITS + k)
        values = engine.demand(targets)
        assert len(values) == len(targets)
    return time.perf_counter() - started


def test_repeated_demand_summary_vs_dfs(benchmark, capsys):
    def run():
        rows = {}
        for n in SIZES:
            for feeds in ("summary", "dfs"):
                samples = [_repeated_demand(n, feeds) for _ in range(ATTEMPTS)]
                rows[(n, feeds)] = (
                    [s[0] for s in samples],  # wall samples
                    samples[0][1],  # dfs visits (deterministic)
                    samples[0][2],  # verdicts
                    samples[0][3],  # reexecutions
                )
        return rows

    rows = once(benchmark, run)

    visits_per_verdict = [
        rows[(n, "dfs")][1] / max(rows[(n, "dfs")][2], 1) for n in SIZES
    ]
    series = {
        "summary wall (s)": [min(rows[(n, "summary")][0]) for n in SIZES],
        "dfs wall (s)": [min(rows[(n, "dfs")][0]) for n in SIZES],
        "dfs filter visits": [rows[(n, "dfs")][1] for n in SIZES],
        "relevance verdicts": [rows[(n, "dfs")][2] for n in SIZES],
        "dfs visits/verdict": visits_per_verdict,
        "summary ops/verdict": [1.0 for _ in SIZES],
    }
    text = format_series(
        f"Repeated demand: msort, {EDITS} staged edits then {REPEATS} x "
        f"(edit + head demand), maintained summaries vs per-demand DFS",
        SIZES,
        series,
    )
    text += "\n\n" + format_spread_rows(
        f"wall-time spread at n={SIZES[-1]} ({ATTEMPTS} attempts)",
        {
            "summary": rows[(SIZES[-1], "summary")][0],
            "dfs": rows[(SIZES[-1], "dfs")][0],
        },
    )

    for n in SIZES:
        # Near-identical re-execution work: the DFS's never-retracted
        # positive memo can run an edge whose relevance died mid-drain
        # (the exact summaries defer it), and hazard-retry counts differ
        # with it, so allow a small band rather than exact equality.
        s_re, d_re = rows[(n, "summary")][3], rows[(n, "dfs")][3]
        assert abs(s_re - d_re) <= 0.05 * max(s_re, d_re), (
            f"impls diverged at n={n}: summary re-executed "
            f"{s_re} edges, dfs {d_re}"
        )
    if not _SMOKE:
        at256 = SIZES.index(256)
        # Re-execution work is identical between the impls (asserted
        # above), so wall times sit within scheduler noise of each other;
        # the claim the summaries make is about the per-entry drain check,
        # and that is deterministic: the DFS baseline explores >=3
        # reader-graph nodes for every relevance verdict that the
        # maintained summaries answer with a single bitmask test.
        assert visits_per_verdict[at256] >= 3.0, (
            f"summary filter lost its 3x edge over the DFS baseline at "
            f"n=256: {visits_per_verdict[at256]:.2f} visits/verdict"
        )

    emit(capsys, "Lazy demand repeated", text, save=not _SMOKE)


def test_many_targets_demand_summary_vs_dfs(benchmark, capsys):
    def run():
        out = {}
        for feeds in ("summary", "dfs"):
            out[feeds] = [
                min(_many_targets(n, feeds) for _ in range(ATTEMPTS))
                for n in SIZES
            ]
        return out

    walls = once(benchmark, run)
    series = {
        "summary wall (s)": walls["summary"],
        "dfs wall (s)": walls["dfs"],
    }
    text = format_series(
        f"Many-targets demand: msort, {EDITS} staged edits then "
        f"{REPEATS} x (edit + batched demand of 8 spine cells)",
        SIZES,
        series,
    )
    emit(capsys, "Lazy demand many targets", text, save=not _SMOKE)
