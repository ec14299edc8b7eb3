"""Cost of the failure-recovery paths vs. trace size (DESIGN.md Sec. 7).

Three numbers per input size, on msort with one staged edit:

* **propagate** -- the healthy baseline: one change-propagation pass.
* **rollback** -- a planted fault aborts the pass; the session undoes the
  edit, propagates back to the last-good state, and re-stages the edit
  (``Session.propagate(on_error="rollback")``).  Cost should track the
  baseline (it is propagation work plus the undo bookkeeping), not the
  initial-run cost.
* **rebuild** -- a *persistent* fault forces the from-scratch fallback
  (``on_error="rebuild"``): marshal the current data into a fresh engine
  and re-run.  Cost should track the initial run, i.e. grow with n much
  faster than rollback -- which is exactly why rollback is worth having.

``REPRO_FAULT_SIZES`` overrides the input sizes (e.g. "64" for a CI smoke
run); the rollback-beats-rebuild assertion only fires at the defaults.
"""

import os
import random

from repro.api import Session
from repro.apps import REGISTRY
from repro.bench import format_series
from repro.obs.faults import FaultInjector

from _util import emit, once

_SIZES_ENV = os.environ.get("REPRO_FAULT_SIZES")
SIZES = [int(s) for s in (_SIZES_ENV or "64 128 256").split()]
_SMOKE = _SIZES_ENV is not None

ATTEMPTS = 5


def _staged_session(n, *, hook=None, seed=7):
    """Fresh msort session with one random edit staged but unpropagated."""
    app = REGISTRY["msort"]
    rng = random.Random(seed)
    session = Session(app, hook=hook)
    session.run(data=app.make_data(n, rng))
    app.apply_change(session.input_handle, rng, 0)
    return app, session


def _propagate_time(n):
    _, session = _staged_session(n)
    return session.propagate().seconds


def _rollback_time(n):
    """Seconds for the rollback recovery itself (undo + recovery
    propagation + re-stage), triggered by a one-shot fault."""
    app, session = _staged_session(n, hook=FaultInjector("write", at=0))
    stats = session.propagate(on_error="rollback")
    assert stats.path == "rollback", "fault did not fire"
    # Converge afterwards (untimed) and sanity-check the recovery.
    session.propagate()
    assert app.readback(session.output) == app.reference(
        app.handle_data(session.input_handle)
    )
    return stats.seconds


def _rebuild_time(n):
    """Seconds for the from-scratch fallback under a persistent fault."""
    app, session = _staged_session(
        n, hook=FaultInjector("write", at=0, repeat=True)
    )
    stats = session.propagate(on_error="rebuild")
    assert stats.path == "rebuild", "fault did not fire"
    assert app.readback(session.output) == app.reference(
        app.handle_data(session.input_handle)
    )
    return stats.seconds


def test_fault_recovery_msort(benchmark, capsys):
    def run():
        propagate = [
            min(_propagate_time(n) for _ in range(ATTEMPTS)) for n in SIZES
        ]
        rollback = [
            min(_rollback_time(n) for _ in range(ATTEMPTS)) for n in SIZES
        ]
        rebuild = [
            min(_rebuild_time(n) for _ in range(ATTEMPTS)) for n in SIZES
        ]
        return propagate, rollback, rebuild

    propagate, rollback, rebuild = once(benchmark, run)

    series = {
        "propagate (s)": propagate,
        "rollback recovery (s)": rollback,
        "rebuild fallback (s)": rebuild,
        "rebuild / rollback": [b / r for r, b in zip(rollback, rebuild)],
    }
    text = format_series(
        "Fault recovery: msort, one staged edit, planted write fault",
        SIZES,
        series,
    )

    if not _SMOKE:
        at256 = SIZES.index(256)
        assert rollback[at256] < rebuild[at256], (
            f"rollback ({rollback[at256]:.4f}s) should beat the "
            f"from-scratch rebuild ({rebuild[at256]:.4f}s) at n=256"
        )

    emit(capsys, "Fault recovery", text, save=not _SMOKE)
