"""Engine hot-path profile of msort on every backend, as a checked-in
artifact.

This runs the ``python -m repro profile`` harness
(:func:`repro.obs.profile.profile_app`) for the merge-sort benchmark on
each registered backend and saves the reports side by side.  The
per-phase meter columns of the reports must be identical (the backends
drive the same engine primitive sequence); the wall-clock columns are
where the dispatch cost shows.  The order /
queue / pool statistics document the engine data-structure behaviour --
relabel counts, queue rekeys, free-list reuse -- at a realistic size.

``REPRO_PROFILE_SIZE`` overrides the input size (CI smoke uses 32).
"""

import os

from repro.backends import BACKENDS
from repro.obs.profile import profile_app

from _util import emit, once

_SIZES_ENV = os.environ.get("REPRO_PROFILE_SIZE")
N = int(_SIZES_ENV or 64)
_SMOKE = _SIZES_ENV is not None
CHANGES = 8


def test_engine_profile_msort(benchmark, capsys):
    def run():
        return [
            profile_app(
                "msort", n=N, changes=CHANGES, seed=1, backend=backend, top=8
            )
            for backend in BACKENDS
        ]

    reports = once(benchmark, run)

    interp = reports[0]
    # Meter-exact backend parity, phase by phase.
    for other in reports[1:]:
        for pi, pc in zip(interp.phases, other.phases):
            assert pi.counters == pc.counters, (
                f"phase {pi.name!r}: backend meter deltas diverge"
            )

    text = "\n\n".join(report.format() for report in reports)
    emit(capsys, "Engine profile", text, save=not _SMOKE)
