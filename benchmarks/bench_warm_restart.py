"""Warm restart vs cold start (DESIGN.md Section 10).

A served document that survives a process restart can come back two
ways: **cold** -- re-run the program from scratch on its current data,
paying the full initial-run cost again -- or **warm** -- decode the last
checkpoint back into a live trace and change-propagate only what
happened since.  The entire point of checkpointing the dependence graph
(rather than just the input data) is that the warm path replaces a
from-scratch re-execution with a snapshot decode plus an incremental
propagation, so it should win by roughly the initial-run/propagate gap
the rest of the suite measures.

Five numbers per app:

* **initial-run**   -- from-scratch execution (what a cold open pays).
* **snapshot-save** -- encode + CRC + atomic write of the checkpoint.
* **restore**       -- decode the checkpoint into a servable session.
* **cold-restart**  -- initial run on current data, then one edit
  propagated: the no-durability restart experience end to end.
* **warm-restart**  -- restore, then the same edit propagated: the
  checkpointed restart experience end to end.

``REPRO_WARM_SIZES`` overrides the msort input sizes and shrinks the
raytracer (CI smoke runs set it to a small value); the warm-beats-cold
assertion only fires at the defaults.
"""

import os
import random
import time

from repro.api import Session, values_close
from repro.apps import REGISTRY

from _util import bench_repeat, emit, format_spread_rows, once, spread

_SIZES_ENV = os.environ.get("REPRO_WARM_SIZES")
MSORT_SIZES = [int(s) for s in (_SIZES_ENV or "256 512").split()]
RAY_SIZE = 4 if _SIZES_ENV is not None else 8
_SMOKE = _SIZES_ENV is not None

ATTEMPTS = bench_repeat()


def _settled_session(app, n, *, changes=2, seed=7):
    """A session that has lived a little: run, then ``changes`` edits."""
    rng = random.Random(seed)
    session = Session(app)
    session.run(data=app.make_data(n, rng))
    for step in range(changes):
        app.apply_change(session.input_handle, rng, step)
        session.propagate()
    return session


def _measure(app, n, tmp_path):
    session = _settled_session(app, n)
    data = app.handle_data(session.input_handle)
    snap = os.path.join(str(tmp_path), f"{app.name}.{n}.snap")
    rows = {k: [] for k in (
        "initial-run", "snapshot-save", "restore", "cold-restart",
        "warm-restart",
    )}

    for attempt in range(ATTEMPTS):
        t0 = time.perf_counter()
        cold = Session(app)
        cold.run(data=data)
        rows["initial-run"].append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        session.snapshot(snap)
        rows["snapshot-save"].append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        warm = Session.restore(snap, app)
        rows["restore"].append(time.perf_counter() - t0)

        # The same post-restart edit through each path.  Both sessions
        # hold identical data, so the propagation work is comparable;
        # the restart cost difference is run-from-scratch vs decode.
        step = 100 + attempt
        app.apply_change(cold.input_handle, random.Random(step), step)
        t0 = time.perf_counter()
        cold.propagate()
        rows["cold-restart"].append(
            rows["initial-run"][-1] + (time.perf_counter() - t0)
        )

        app.apply_change(warm.input_handle, random.Random(step), step)
        t0 = time.perf_counter()
        warm.propagate()
        rows["warm-restart"].append(
            rows["restore"][-1] + (time.perf_counter() - t0)
        )

        assert values_close(
            app.readback(warm.output),
            app.reference(app.handle_data(warm.input_handle)),
        )
    return rows


def test_warm_restart(benchmark, capsys, tmp_path):
    sections = []
    checks = []
    for app_name, sizes in [("msort", MSORT_SIZES), ("raytracer", [RAY_SIZE])]:
        app = REGISTRY[app_name]
        for n in sizes:
            rows = _measure(app, n, tmp_path)
            sections.append(
                format_spread_rows(f"{app_name} n={n}", rows)
            )
            checks.append((app_name, n, rows))

    # Representative op under the benchmark timer: one warm restore of
    # the largest msort checkpoint.
    app = REGISTRY["msort"]
    session = _settled_session(app, MSORT_SIZES[-1])
    snap = os.path.join(str(tmp_path), "bench.snap")
    session.snapshot(snap)
    once(benchmark, lambda: Session.restore(snap, app))

    emit(capsys, "warm restart", "\n\n".join(sections), save=not _SMOKE)

    if not _SMOKE:
        for app_name, n, rows in checks:
            cold = spread(rows["cold-restart"])["min"]
            warm = spread(rows["warm-restart"])["min"]
            assert warm < cold, (
                f"{app_name} n={n}: warm restart ({warm:.6f}s) did not "
                f"beat cold start ({cold:.6f}s)"
            )
