"""Shared plumbing for the edit-to-result benchmark.

Environment hygiene, provenance, percentiles, GC pause accounting and the
result record every workload fills in.  Nothing here imports ``repro``:
``run.py`` puts ``src`` on the path only after the environment is clean.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for sockets, checkpoints and smoke output; never checked in.
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")


def clean_env() -> Dict[str, str]:
    """The process environment minus every ``REPRO_*`` knob, with ``src``
    first on ``PYTHONPATH`` -- what workload and server processes run
    under, so an exported knob cannot change the measured program."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def strip_repro_env() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git work tree
    of its own (a checkout nested in another repository must not report
    that repository's commit)."""

    def git(*args: str) -> str:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return ""
        return out.stdout.strip() if out.returncode == 0 else ""

    top = git("rev-parse", "--show-toplevel")
    if not top or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    return git("rev-parse", "HEAD") or "unknown"


def provenance() -> dict:
    """What was measured, on what: resolved defaults and the machine."""
    from repro.backends import resolve_backend
    from repro.sac.engine import Engine

    return {
        "backend": resolve_backend(None),
        "feeds": Engine(mode="lazy").feeds_impl,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "gc_enabled": gc.isenabled(),
        "gc_thresholds": list(gc.get_threshold()),
    }


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100)[pct - 1]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


class GcPauses:
    """Collector pauses per generation, recorded through ``gc.callbacks``.

    The collector stays on: timed sections pay for it exactly as users
    do.  ``listener`` (the tracer) is told each pause so spans can subtract
    it from the self time of the layer it interrupted.  While
    ``excluding`` is set (during the untimed reference checks) pauses go
    to ``excluded_s`` only: they are not the program's.
    """

    def __init__(self) -> None:
        self.pause_s = [0.0, 0.0, 0.0]
        self.count = [0, 0, 0]
        #: longest pause since the caller last reset it
        self.window_max_s = 0.0
        self.listener = None
        self.excluding = False
        self.excluded_s = 0.0
        self._t0 = 0.0
        self._clock = time.perf_counter

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = self._clock()
            return
        dt = self._clock() - self._t0
        if self.excluding:
            self.excluded_s += dt
            return
        gen = info["generation"]
        self.pause_s[gen] += dt
        self.count[gen] += 1
        if dt > self.window_max_s:
            self.window_max_s = dt
        if self.listener is not None:
            self.listener(dt)

    def install(self) -> "GcPauses":
        gc.callbacks.append(self)
        return self

    def mark(self) -> tuple:
        return (list(self.pause_s), list(self.count))

    def since(self, mark: tuple) -> tuple:
        """Per-generation pause seconds and collection counts since
        ``mark``."""
        pause, count = mark
        return ([a - b for a, b in zip(self.pause_s, pause)],
                [a - b for a, b in zip(self.count, count)])


def gc_layers(pause_s: List[float], count: List[int], pause_max_s: float,
              timed_s: float) -> dict:
    """The ``gc.*`` per-layer metrics, from per-generation pause seconds
    and collection counts over a timed window of ``timed_s`` seconds."""
    total = sum(pause_s)
    return {
        "gc.pause_s": total,
        "gc.pause_s.gen2": pause_s[2],
        "gc.collections.gen2": count[2],
        "gc.pause_max_ms": pause_max_s * 1e3,
        "gc.share_of_timed": total / timed_s if timed_s > 0 else 0.0,
    }


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    #: end-to-end metrics, name -> (value, unit): the result line's set
    e2e: Dict[str, tuple] = field(default_factory=dict)
    #: per-workload named metrics, name -> {value, unit, samples}
    report: Dict[str, dict] = field(default_factory=dict)
    #: per-layer metrics (traced runs), name -> value
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: human-readable lines describing failures (first few)
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def put(self, name: str, value: float, unit: str, samples: int = 0) -> None:
        self.report[name] = {"value": value, "unit": unit, "samples": samples}


median = statistics.median


class Checks:
    """Runs the untimed reference checks and totals their time, so the
    timed loop can leave them out.  Collector pauses inside a check are
    left out of ``gcp``'s totals for the same reason.  The traced run puts
    each check in a span of its own (``check``)."""

    def __init__(self, gcp: GcPauses, span=None) -> None:
        self.seconds = 0.0
        self._gcp = gcp
        self._span = span

    def run(self, fn, *args) -> None:
        if self._span is not None:
            fn = self._span(fn)
        self._gcp.excluding = True
        t0 = time.perf_counter()
        try:
            fn(*args)
        finally:
            self.seconds += time.perf_counter() - t0
            self._gcp.excluding = False


def account(layers: dict, self_s: dict, gc_s: float, timed_s: float,
            exclude=()) -> None:
    """Layer self times + GC pauses + the unaccounted remainder = the
    timed total."""
    spans = 0.0
    for layer, seconds in self_s.items():
        if layer in exclude:
            continue
        layers[f"self_s.{layer}"] = seconds
        spans += seconds
    layers["self_s.gc"] = gc_s
    layers["trace.timed_total_s"] = timed_s
    layers["self_s.unaccounted"] = timed_s - spans - gc_s
    layers["trace.unaccounted_share"] = (timed_s - spans - gc_s) / timed_s if timed_s else 0.0
