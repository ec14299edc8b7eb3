"""SessionPool server throughput: many documents, one process.

The server claim (DESIGN.md Section 9): hundreds of independent
incremental sessions can live behind one asyncio process, with edits
draining in fair budgeted slices, and one document's fault never
touching its siblings.  Two scenarios:

1. **Throughput/latency sweep.** For each session count, start a real
   TCP server, open one vec-reduce document per session, and run one
   client connection per document firing EDITS edits each (eager mode
   with a deliberately small slice budget, so an edit acks only once
   its drain completes -- possibly after yielding the loop to siblings
   mid-drain; the honest edit-to-ack number).  Reported per session count: sustained edits/sec
   across the whole pool and the p50/p99 edit-to-ack latency, plus the
   scheduler's rotation count (proof the fairness ring actually cycled
   rather than one document draining in a monopoly).  Every document is
   oracle-checked against ``tree_sum`` of its current data at the end.

2. **Fault isolation at full load.** At the largest session count, one
   document carries a persistently refiring planted fault
   (``repeat=True``) while every document is edited and read.  The
   victim must recover (rollback escalating to rebuild), every sibling
   must stay oracle-consistent, and the pool must report zero failed
   documents.

``REPRO_SERVER_SESSIONS`` overrides the sweep (e.g. "8 16" for a CI
smoke run); the >=100-sessions assertion only applies at the defaults.
"""

import asyncio
import os
import random
import statistics
import time

from repro.api import values_close
from repro.obs.faults import FaultInjector
from repro.server import Client, SessionPool, serve

from _util import emit, once

_SESSIONS_ENV = os.environ.get("REPRO_SERVER_SESSIONS")
SESSIONS = [int(s) for s in (_SESSIONS_ENV or "10 50 100 200").split()]
_SMOKE = _SESSIONS_ENV is not None

CELLS = 64  # vector length per document (deep enough to outrun a slice)
EDITS = 10  # edits per document per sweep round


def _expected(pool, name):
    session = pool.docs[name].session
    return session.app.reference(session.app.handle_data(session.input_handle))


async def _sweep(n_sessions: int) -> dict:
    """One full sweep at ``n_sessions``: open, hammer, verify, tear down."""
    pool = SessionPool(mode="eager", slice_budget=4)
    server = await serve(pool)
    host, port = server.sockets[0].getsockname()[:2]

    docs = [f"doc{i}" for i in range(n_sessions)]
    for i, name in enumerate(docs):
        pool.open(name, app="vec-reduce", n=CELLS, seed=i)

    latencies = []

    async def hammer(idx: int, name: str):
        client = await Client.connect(host, port)
        rng = random.Random(7000 + idx)
        for _ in range(EDITS):
            cell = f"cell:{rng.randrange(CELLS)}"
            t0 = time.perf_counter()
            await client.edit(name, cell, 0.5 + rng.random())
            latencies.append(time.perf_counter() - t0)
        value = await client.get(name, "out")
        await client.close()
        return name, value

    started = time.perf_counter()
    results = await asyncio.gather(
        *(hammer(i, name) for i, name in enumerate(docs))
    )
    elapsed = time.perf_counter() - started

    for name, value in results:
        assert values_close(value, _expected(pool, name)), name

    rotations = pool.scheduler.stats()["rotations"]
    server.close()
    await server.wait_closed()
    await pool.stop()

    latencies.sort()
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    return {
        "sessions": n_sessions,
        "edits": len(latencies),
        "edits_per_s": len(latencies) / elapsed,
        "p50_ms": p50 * 1e3,
        "p99_ms": p99 * 1e3,
        "rotations": rotations,
    }


async def _fault_isolation(n_sessions: int) -> dict:
    """Full pool load with one persistently faulting document."""
    pool = SessionPool(
        mode="lazy", slice_budget=64, on_error="rollback", max_rollbacks=2
    )
    docs = [f"doc{i}" for i in range(n_sessions)]
    for i, name in enumerate(docs):
        pool.open(name, app="vec-reduce", n=CELLS, seed=i)

    victim = pool.docs[docs[0]]
    victim.session.engine.attach_hook(
        FaultInjector("read", at=0, during="propagate", repeat=True)
    )

    rng = random.Random(42)
    for name in docs:
        for _ in range(3):
            await pool.edit(name, f"cell:{rng.randrange(CELLS)}", rng.random())
    for name in docs:
        got = await pool.demand(name)
        assert values_close(got["value"], _expected(pool, name)), name

    snap = pool.stats()
    result = {
        "sessions": n_sessions,
        "victim_rollbacks": victim.rollbacks,
        "victim_rebuilds": victim.rebuilds,
        "victim_failed": victim.failed,
        "pool_failed": snap["failed"],
        "sibling_recoveries": sum(
            pool.docs[n].rollbacks + pool.docs[n].rebuilds for n in docs[1:]
        ),
    }
    await pool.stop()
    return result


def test_server_throughput(benchmark, capsys):
    def run():
        async def main():
            rows = [await _sweep(n) for n in SESSIONS]
            isolation = await _fault_isolation(SESSIONS[-1])
            return rows, isolation

        return asyncio.run(main())

    rows, isolation = once(benchmark, run)

    header = (
        f"{'sessions':>8} {'edits':>7} {'edits/s':>10} "
        f"{'p50 (ms)':>10} {'p99 (ms)':>10} {'rotations':>10}"
    )
    lines = [
        f"SessionPool server: eager edit-to-ack over TCP, "
        f"vec-reduce n={CELLS}, {EDITS} edits/doc",
        header,
        "-" * len(header),
    ]
    for row in rows:
        lines.append(
            f"{row['sessions']:>8} {row['edits']:>7} "
            f"{row['edits_per_s']:>10.0f} {row['p50_ms']:>10.3f} "
            f"{row['p99_ms']:>10.3f} {row['rotations']:>10}"
        )
    lines += [
        "",
        f"fault isolation at {isolation['sessions']} sessions "
        f"(one document with a persistent planted fault):",
        f"  victim: rollbacks={isolation['victim_rollbacks']} "
        f"rebuilds={isolation['victim_rebuilds']} "
        f"failed={isolation['victim_failed']}",
        f"  pool: failed_docs={isolation['pool_failed']} "
        f"sibling_recoveries={isolation['sibling_recoveries']} "
        f"(all siblings oracle-consistent)",
    ]
    text = "\n".join(lines)

    if not _SMOKE:
        biggest = rows[-1]
        assert biggest["sessions"] >= 100, "sweep must reach 100 sessions"
        assert biggest["edits"] == biggest["sessions"] * EDITS
        assert biggest["rotations"] > 0, "fairness ring never rotated"
    assert isolation["victim_rebuilds"] >= 1
    assert not isolation["victim_failed"]
    assert isolation["pool_failed"] == 0
    assert isolation["sibling_recoveries"] == 0

    emit(capsys, "Server throughput", text, save=not _SMOKE)
