"""Shared plumbing for the benchmark suite.

Input sizes are scaled down from the paper's (we interpret SXML on CPython
rather than compile SML to native code; see DESIGN.md Section 2).  Every
benchmark prints the same rows/series the paper reports, in addition to the
pytest-benchmark timing of a representative operation.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
from typing import Iterable, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def bench_repeat(default: int = 5) -> int:
    """Timing attempts per configuration.

    ``REPRO_BENCH_REPEAT`` overrides (CI smoke runs set it to 1; set it
    higher on a quiet machine for tighter spreads).
    """
    value = os.environ.get("REPRO_BENCH_REPEAT")
    return int(value) if value else default


def spread(samples: Sequence[float]) -> dict:
    """Noise summary of repeated timings: min / median / stddev.

    The *minimum* is the headline number (the standard defense against
    scheduler noise: the fastest attempt is the one with the least
    interference); median and stddev are reported alongside so a noisy
    run is visible in the checked-in results rather than silently folded
    into the headline.
    """
    xs = sorted(samples)
    return {
        "min": xs[0],
        "median": statistics.median(xs),
        "stddev": statistics.pstdev(xs) if len(xs) > 1 else 0.0,
    }


def format_spread_rows(title: str, rows: dict) -> str:
    """Render ``{label: [samples...]}`` as a min/median/stddev table."""
    header = f"{'measurement':<34} {'min (s)':>12} {'median (s)':>12} {'stddev (s)':>12} {'attempts':>9}"
    lines = [title, header, "-" * len(header)]
    for label, samples in rows.items():
        s = spread(samples)
        lines.append(
            f"{label:<34} {s['min']:>12.6f} {s['median']:>12.6f} "
            f"{s['stddev']:>12.6f} {len(samples):>9}"
        )
    return "\n".join(lines)


def emit(capsys, title: str, text: str, *, save: bool = True) -> None:
    """Print benchmark output to the real terminal and save it to a file.

    Benches run at overridden sizes (a smoke run) pass ``save=False``: the
    table is printed but the checked-in file in ``results/`` is left alone.
    """
    if save:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        filename = title.lower().replace(" ", "_").replace("/", "-") + ".txt"
        with open(os.path.join(RESULTS_DIR, filename), "w") as fh:
            fh.write(text + "\n")
    banner = f"\n===== {title} =====\n"
    if capsys is not None:
        with capsys.disabled():
            print(banner + text)
    else:  # pragma: no cover
        print(banner + text)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark's timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
