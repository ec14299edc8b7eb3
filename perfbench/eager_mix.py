"""``eager-mix``: the paper's edit-then-propagate methodology.

Four eager sessions run msort, qsort, mat-vec-mult and the raytracer.  A
closed loop with one caller draws one document per step from the seed,
applies the app's own incremental change and propagates.  Every output is
compared with the app's pure-Python reference after every edit, outside
the timed interval.
"""

from __future__ import annotations

import copy
import dataclasses
import random
import time
from typing import Any, List

from common import Checks, Result

SIZES = {"msort": 32, "qsort": 128, "mat-vec-mult": 48, "raytracer": 6}
SMOKE_SIZES = {"msort": 16, "qsort": 32, "mat-vec-mult": 4, "raytracer": 2}
SETUPS = 3
OP = "edit"


@dataclasses.dataclass
class Doc:
    name: str
    app: Any
    session: Any
    output: Any
    rng: random.Random
    steps: int = 0


class Inputs:
    """Everything the program receives, generated from the seed: each
    app's initial data, each app's change stream seed, the document pick
    sequence."""

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.apps import REGISTRY

        rng = random.Random(seed)
        sizes = SMOKE_SIZES if smoke else SIZES
        self.apps = []
        for name, n in sizes.items():
            app = REGISTRY[name]
            data = app.make_data(n, random.Random(rng.getrandbits(64)))
            self.apps.append((name, data, rng.getrandbits(64)))
        self.pick_seed = rng.getrandbits(64)


def setup(inputs: Inputs, result: Result, on_ready=None):
    """Compile, stage, marshal and run every document; returns
    ``(docs, seconds)``, the seconds excluding the reference check."""
    from repro.api import Session, values_close
    from repro.apps import REGISTRY

    datas = [copy.deepcopy(data) for _name, data, _seed in inputs.apps]
    docs: List[Doc] = []
    t0 = time.perf_counter()
    for (name, _data, change_seed), data in zip(inputs.apps, datas):
        app = dataclasses.replace(REGISTRY[name], _cache={})  # setup compiles
        session = Session(app)
        output = session.run(data=data)
        docs.append(Doc(name, app, session, output, random.Random(change_seed)))
    seconds = time.perf_counter() - t0
    if on_ready is not None:
        on_ready()
    for doc, (_name, data, _seed) in zip(docs, inputs.apps):
        result.attempted += 1
        if not values_close(doc.app.readback(doc.output), doc.app.reference(data)):
            result.fail(f"{doc.name}: initial output differs from the reference")
    return docs, seconds


def apps() -> list:
    """Fresh copies of the apps (empty compile caches)."""
    from repro.apps import REGISTRY

    return [dataclasses.replace(REGISTRY[name], _cache={}) for name in SIZES]


def engines(docs: List[Doc]) -> list:
    return [doc.session.engine for doc in docs]


def programs(docs: List[Doc]) -> dict:
    return {doc.name: doc.session.program for doc in docs}


def loop(docs: List[Doc], inputs: Inputs, result: Result, checks: Checks,
         deadline: float, max_ops: int):
    """The timed loop; returns ``(latencies, edits, loop_seconds)``, the
    loop seconds excluding the reference checks."""
    from repro.api import values_close

    def check(doc: Doc) -> None:
        app, session = doc.app, doc.session
        expected = app.reference(app.handle_data(session.input_handle))
        if not values_close(app.readback(doc.output), expected):
            result.fail(f"{doc.name} edit {doc.steps}: output differs from the reference")

    pick = random.Random(inputs.pick_seed)
    order: List[Doc] = []
    latencies: List[float] = []
    start, checked = time.perf_counter(), checks.seconds
    while len(latencies) < max_ops and time.perf_counter() < deadline:
        if not order:
            # Draw without replacement, one round of all documents at a
            # time: every program gets the same share of the edits, so a
            # run's mix does not drift with the seed.
            order = pick.sample(docs, len(docs))
        doc = order.pop()
        app, session = doc.app, doc.session
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            app.apply_change(session.input_handle, doc.rng, doc.steps)
            session.propagate()
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            result.fail(f"{doc.name} edit {doc.steps}: {type(exc).__name__}: {exc}")
            doc.steps += 1
            continue
        latencies.append(time.perf_counter() - t0)
        checks.run(check, doc)
        doc.steps += 1
    loop_s = time.perf_counter() - start - (checks.seconds - checked)
    return latencies, len(latencies), loop_s
