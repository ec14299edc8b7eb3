"""``lazy-burst``: demand-driven reads after coalesced writes.

One ``Session(mode="lazy")`` runs msort.  Each round stages a burst of the
app's own edits inside ``Session.batch()`` and then reads the list head
with ``Session.get(output)``, the demand that pays for the burst.  Every
few rounds a full ``Session.propagate()`` brings the whole output up to
date and it is compared with the pure-Python reference; every head read is
compared with the reference minimum.  Checks run outside the timed
interval.

The full refresh is ``propagate()``, not ``demand()``: with the default
feeds mechanism a full ``demand()`` can leave cells below the head stale
(a known defect; ``known_defects.py`` reproduces it), and a workload here
must not fail.
"""

from __future__ import annotations

import copy
import dataclasses
import random
import time
from typing import Any, List

from common import Checks, Result

N = 48
SMOKE_N = 16
BURST = 4
PROPAGATE_EVERY = 5
SETUPS = 7
OP = "read"


@dataclasses.dataclass
class Doc:
    app: Any
    session: Any
    output: Any
    rng: random.Random
    steps: int = 0
    rounds: int = 0


class Inputs:
    """The initial permutation and the change stream's seed."""

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.apps import REGISTRY

        rng = random.Random(seed)
        self.data = REGISTRY["msort"].make_data(
            SMOKE_N if smoke else N, random.Random(rng.getrandbits(64))
        )
        self.change_seed = rng.getrandbits(64)


def setup(inputs: Inputs, result: Result, on_ready=None):
    from repro.api import Session

    data = copy.deepcopy(inputs.data)
    t0 = time.perf_counter()
    app = apps()[0]
    session = Session(app, mode="lazy")
    output = session.run(data=data)
    seconds = time.perf_counter() - t0
    if on_ready is not None:
        on_ready()
    result.attempted += 1
    if app.readback(output) != app.reference(inputs.data):
        result.fail("initial output differs from the reference")
    return [Doc(app, session, output, random.Random(inputs.change_seed))], seconds


def apps() -> list:
    """A fresh copy of the app (empty compile cache)."""
    from repro.apps import REGISTRY

    return [dataclasses.replace(REGISTRY["msort"], _cache={})]


def engines(docs: List[Doc]) -> list:
    return [doc.session.engine for doc in docs]


def programs(docs: List[Doc]) -> dict:
    return {"msort": docs[0].session.program}


def _head(value: Any) -> Any:
    return None if value.arg is None else value.arg[0]


def loop(docs: List[Doc], inputs: Inputs, result: Result, checks: Checks,
         deadline: float, max_ops: int):
    """Rounds until the deadline; returns ``(read latencies, edits, loop
    seconds)``.  Loop seconds include the bursts, reads and full propagations,
    and exclude the reference checks."""
    doc = docs[0]
    app, session, output = doc.app, doc.session, doc.output
    handle = session.input_handle

    def check(value: Any, full: bool) -> None:
        current = handle.to_python()
        if _head(value) != min(current):
            result.fail(f"round {doc.rounds}: head read differs from the reference")
        if full and app.readback(output) != app.reference(current):
            result.fail(f"round {doc.rounds}: full output differs from the reference")

    latencies: List[float] = []
    start, checked, steps = time.perf_counter(), checks.seconds, doc.steps
    while len(latencies) < max_ops and time.perf_counter() < deadline:
        doc.rounds += 1
        full = doc.rounds % PROPAGATE_EVERY == 0
        result.attempted += BURST + 1 + full
        try:
            with session.batch():
                for _ in range(BURST):
                    app.apply_change(handle, doc.rng, doc.steps)
                    doc.steps += 1
            t0 = time.perf_counter()
            value = session.get(output)
            latencies.append(time.perf_counter() - t0)
            if full:
                session.propagate()
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            result.fail(f"round {doc.rounds}: {type(exc).__name__}: {exc}")
            continue
        checks.run(check, value, full)
    loop_s = time.perf_counter() - start - (checks.seconds - checked)
    return latencies, doc.steps - steps, loop_s
