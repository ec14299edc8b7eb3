"""Reproducer for the known stale-demand defect of lazy sessions.

    python3 perfbench/known_defects.py

On a lazy msort session with the default ``feeds="summary"``, a full
``Session.demand()`` can leave the output stale: it differs from the app's
pure-Python reference.  The same rounds match with ``feeds="dfs"``.  Reads
of list cells below the head through ``Session.get`` go stale the same way;
the head itself and a full ``Session.propagate()`` stay correct, which is
why the ``lazy-burst`` workload reads the head and checks the whole list
after a ``propagate()``.

This runs the reproducer (n=512, one ``random.Random(3)`` for both data and
changes, 8-edit ``batch()`` bursts, ``get(output)`` after each burst,
``demand()`` after every 5th) on each backend and feeds mechanism, prints
the rounds whose output differs from the reference, and exits with 1 while
the default mechanism still shows the defect, 0 once it does not.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import sys

import common

N = 512
BURST = 8
DEMAND_EVERY = 5
ROUNDS = 20
BACKENDS = ("interp", "stack")
FEEDS = ("summary", "dfs")


def stale_rounds(backend: str, feeds: str) -> list:
    """Rounds (0-based) whose full ``demand()`` leaves the output stale."""
    from repro.api import Session
    from repro.apps import REGISTRY

    app = dataclasses.replace(REGISTRY["msort"], _cache={})
    rng = random.Random(3)
    data = app.make_data(N, rng)
    session = Session(app, mode="lazy", backend=backend, feeds=feeds)
    output = session.run(data=copy.deepcopy(data))
    handle = session.input_handle
    stale, steps = [], 0
    for r in range(ROUNDS):
        with session.batch():
            for _ in range(BURST):
                app.apply_change(handle, rng, steps)
                steps += 1
        session.get(output)
        if (r + 1) % DEMAND_EVERY == 0:
            session.demand()
            if app.readback(output) != app.reference(handle.to_python()):
                stale.append(r)
    return stale


def main() -> int:
    common.strip_repro_env()
    sys.path.insert(0, common.SRC)
    found = {}
    for backend in BACKENDS:
        for feeds in FEEDS:
            found[f"{backend}/{feeds}"] = rounds = stale_rounds(backend, feeds)
            print(f"{backend} feeds={feeds}: stale rounds {rounds or 'none'}")
    present = any(found[f"{b}/summary"] for b in BACKENDS)
    print(json.dumps({"defect_present": present, "stale_rounds": found}))
    return 1 if present else 0


if __name__ == "__main__":
    sys.exit(main())
