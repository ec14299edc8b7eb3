"""The process-wide intern table (:mod:`repro.sac.intern`).

Canonical constructor values are shared across engines, so the table
must neither conflate distinct values nor outlive the sessions that
built them: its keys name modifiables and child values by identity, and
a dropped session -- engine, trace and all -- must be collectable.
"""

import gc
import random
import weakref

import pytest

from repro.api import Session
from repro.apps import REGISTRY
from repro.interp.values import ConValue, intern_con
from repro.sac.engine import Engine
from repro.sac.intern import INTERN


def test_canonical_values_share_identity():
    engine = Engine()
    mod = engine.make_input(1)
    tail = intern_con("Nil")
    a = intern_con("Cons", (1, mod))
    assert intern_con("Cons", (1, mod)) is a
    assert intern_con("Cons", (2, mod)) is not a
    assert intern_con("Cons", (1, engine.make_input(1))) is not a
    # Scalars keep their type: 1 and True never conflate.
    assert intern_con("Box", 1) is not intern_con("Box", True)
    # Canonical children are keyed by identity, floats bypass the table.
    assert intern_con("Wrap", tail) is intern_con("Wrap", tail)
    assert intern_con("Wrap", 1.5) is not intern_con("Wrap", 1.5)
    assert isinstance(a, ConValue) and a._hc


def test_entry_dies_with_its_value():
    engine = Engine()
    mod = engine.make_input(0)
    gc.collect()  # drop entries whose values earlier tests left behind
    live = len(INTERN.table)
    value = intern_con("Cons", (7, mod))
    assert len(INTERN.table) == live + 1
    del value
    gc.collect()
    assert len(INTERN.table) == live


@pytest.mark.parametrize("backend", ["interp", "stack"])
@pytest.mark.parametrize("app_name, n", [("msort", 32), ("qsort", 32), ("raytracer", 3)])
def test_dropped_session_is_collected(backend, app_name, n):
    """A session dropped after runs and edits leaves nothing behind: the
    intern table's keys must not reach back into its trace."""
    app = REGISTRY[app_name]
    rng = random.Random(0)
    session = Session(app, backend=backend)
    session.run(data=app.make_data(n, rng))
    app.apply_change(session.input_handle, rng, 0)
    session.propagate()
    engine = weakref.ref(session.engine)
    del session
    gc.collect()
    assert engine() is None
