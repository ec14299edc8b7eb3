"""Backend equivalence: interpreter vs closure-compilation vs stack machine.

The compiled backends (:mod:`repro.compile.closures` and
:mod:`repro.compile.stackmachine`) promise more than equal outputs: they
call the engine's ``mod``/``read``/``write``/``memo``/``impwrite``
primitives in *exactly* the same sequence as the tree-walking interpreter,
with equal memo keys and equal written values.  (The recursive backends
call ``mod``/``read``/``memo``, thin wrappers over the engine's
``*_begin``/``*_end``/``*_abort`` halves; the stack machine calls those
halves directly from its own dispatch loop.)  If that holds, the meter
counters -- mods created, reads executed, writes, cutoff hits, memo hits
and misses, edges re-executed, live trace sizes -- must be *identical* at
every point of every run, and so must the stream of hook events.

These tests assert exactly that: for every registered application, across
the optimize x memoize grid, all registered backends produce identical
outputs AND identical meter snapshots after the initial run and after
every one of a series of seeded incremental changes.  A separate, smaller
check attaches an event log and compares the event-kind sequence, eager
and lazy; it stays out of the grid because an attached hook disables
record pooling.
"""

import random

import pytest

from repro.api import Session
from repro.apps import REGISTRY
from repro.backends import BACKENDS
from repro.obs import EventLog
from repro.sac.engine import Engine, Modifiable

#: Per-app input size and change count, kept small: the grid below runs
#: every case once per backend.  block-mat-mult needs n to be a multiple
#: of its block size (8); mat-mult is O(n^3).
APP_SIZES = {
    "map": (16, 6),
    "filter": (16, 6),
    "reverse": (16, 6),
    "split": (16, 6),
    "qsort": (16, 6),
    "msort": (16, 6),
    "vec-reduce": (16, 6),
    "vec-mult": (16, 6),
    "mat-vec-mult": (6, 4),
    "mat-add": (6, 4),
    "transpose": (6, 4),
    "mat-mult": (4, 4),
    "block-mat-mult": (8, 3),
    "raytracer": (4, 2),
}

GRID = [
    (True, True),
    (True, False),
    (False, True),
    (False, False),
]


def run_trail(app, n, changes, backend, *, memoize=True, optimize_flag=True,
              coarse=False, seed=7):
    """One full run: initial output/meter plus one snapshot per change."""
    rng = random.Random(seed)
    data = app.make_data(n, rng)
    engine = Engine()
    instance = app.instance(
        engine,
        backend=backend,
        memoize=memoize,
        optimize_flag=optimize_flag,
        coarse=coarse,
    )
    input_value, handle = app.make_sa_input(engine, data)
    output = instance.apply(input_value)
    trail = [(app.readback(output), engine.meter.snapshot())]
    for step in range(changes):
        app.apply_change(handle, rng, step)
        engine.propagate()
        trail.append((app.readback(output), engine.meter.snapshot()))
    return trail


def assert_backends_agree(app, n, changes, **kwargs):
    interp = run_trail(app, n, changes, "interp", **kwargs)
    for backend in BACKENDS:
        if backend == "interp":
            continue
        other = run_trail(app, n, changes, backend, **kwargs)
        for step, ((out_i, meter_i), (out_c, meter_c)) in enumerate(
            zip(interp, other)
        ):
            # Outputs must be identical -- all backends perform the same
            # arithmetic in the same order, so even floats match
            # bit-for-bit.
            assert out_i == out_c, (
                f"{app.name}: outputs diverge at step {step}\n"
                f"  interp: {out_i!r}\n  {backend}: {out_c!r}"
            )
            assert meter_i == meter_c, (
                f"{app.name}: meters diverge at step {step}\n"
                f"  interp: {meter_i!r}\n  {backend}: {meter_c!r}"
            )


@pytest.mark.parametrize("name", sorted(APP_SIZES))
@pytest.mark.parametrize("memoize,optimize_flag", GRID)
def test_backends_agree(name, memoize, optimize_flag):
    n, changes = APP_SIZES[name]
    assert_backends_agree(
        REGISTRY[name], n, changes,
        memoize=memoize, optimize_flag=optimize_flag,
    )


def test_registry_fully_covered():
    """New apps must join the differential grid."""
    assert set(APP_SIZES) == set(REGISTRY)


@pytest.mark.parametrize("name", ["map", "filter"])
def test_backends_agree_coarse(name):
    """The CPS-emulation mode's extra indirections also stage identically."""
    assert_backends_agree(
        REGISTRY[name], 12, 5,
        memoize=True, optimize_flag=False, coarse=True,
    )


def _first_mod(value):
    """The first modifiable in an output value (a modifiable or a nested
    tuple of them), for :meth:`Session.get`."""
    if isinstance(value, Modifiable):
        return value
    for item in value:
        found = _first_mod(item)
        if found is not None:
            return found
    return None


def event_kinds(app, n, changes, backend, mode, seed=3):
    """The hook event kinds of one run plus ``changes`` edits, in order.

    Eager edits are applied with ``propagate``; lazy ones are pulled with
    ``get`` on one output modifiable, then ``demand`` on the whole output.
    """
    rng = random.Random(seed)
    log = EventLog(maxlen=None)
    session = Session(app, backend=backend, mode=mode, hook=log)
    output = session.run(data=app.make_data(n, rng))
    for step in range(changes):
        app.apply_change(session.input_handle, rng, step)
        if mode == "eager":
            session.propagate()
        else:
            session.get(_first_mod(output))
            session.demand()
    return [event.kind for event in log.events]


@pytest.mark.parametrize("mode", ["eager", "lazy"])
@pytest.mark.parametrize(
    "name,n,changes", [("msort", 16, 4), ("qsort", 16, 4), ("raytracer", 4, 2)]
)
def test_backends_emit_same_hook_stream(name, n, changes, mode):
    app = REGISTRY[name]
    reference = event_kinds(app, n, changes, "interp", mode)
    assert "read-start" in reference and "memo-miss" in reference
    for backend in BACKENDS:
        if backend == "interp":
            continue
        other = event_kinds(app, n, changes, backend, mode)
        assert other == reference, (
            f"{name} [{mode}]: {backend} hook stream diverges from interp"
        )
