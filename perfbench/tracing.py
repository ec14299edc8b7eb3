"""Spans around calls into each layer's public functions.

The traced run installs these wrappers from the benchmark's own files; no
module under ``src/`` changes.  A span records its inclusive time under a
metric name and its *self* time -- inclusive time minus the time covered by
child spans and by collector pauses that interrupted it -- under its layer.
The sum of layer self times plus GC pauses plus the time outside every
span ("unaccounted": the benchmark's own driving code) is the traced wall
time, so the layers account for the timed total by construction and the
remainder is stated, not hidden.

Layers, named by module:

* ``lang`` / ``core`` -- compiler phases, wrapped where
  :func:`repro.core.pipeline.compile_program` looks them up;
* ``api`` -- :class:`repro.api.Session` entry points plus the marshalled
  input handles' edit methods (the API's other edit entry points);
* ``backend`` -- the evaluator: initial ``apply``/staging ``run`` and the
  changeable-code callbacks (readers, mod bodies, memo thunks) the
  backend hands to the engine;
* ``sac`` -- :class:`repro.sac.engine.Engine` primitives and entry points;
* ``sac.order`` -- :class:`repro.sac.order.Order` insert/delete;
* ``persist`` / ``server`` -- snapshot, journal, pool and protocol calls
  (server process only).
"""

from __future__ import annotations

import collections
import functools
import inspect
import time
from typing import Any, Callable, Dict, List, Tuple


class Tracer:
    def __init__(self) -> None:
        #: one child-time accumulator per open span
        self.stack: List[List[float]] = []
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        self.total_s: Dict[str, float] = collections.defaultdict(float)
        self.calls: Dict[str, int] = collections.Counter()
        self.counts: Dict[str, float] = collections.defaultdict(float)
        self._depth: Dict[str, int] = collections.Counter()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- accounting --------------------------------------------------------

    def on_gc_pause(self, seconds: float) -> None:
        """A collector pause is a child of whatever span it interrupted."""
        if self.stack:
            self.stack[-1][0] += seconds

    def _enter(self, name: str) -> List[float]:
        frame = [0.0]
        self.stack.append(frame)
        self._depth[name] += 1
        return frame

    def _exit(self, layer: str, name: str, frame: List[float], dt: float) -> None:
        stack = self.stack
        stack.pop()
        self.self_s[layer] += dt - frame[0]
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:  # re-entrant calls count once, inclusively
            self.total_s[name] += dt
            self.calls[name] += 1
        if stack:
            stack[-1][0] += dt

    # -- wrappers --------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(layer, name, fn)
        return functools.wraps(fn)(self.span(layer, name, fn))

    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span (no metadata copy: cheap enough to wrap
        every callback the backend hands the engine)."""
        enter, exit_, clock = self._enter, self._exit, time.perf_counter

        def traced(*args, **kwargs):
            frame = enter(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(layer, name, frame, clock() - t0)

        return traced

    def _wrap_async(self, layer: str, name: str, fn: Callable) -> Callable:
        """Spans for a coroutine cover only the steps it actually runs:
        time suspended at an ``await`` belongs to whatever runs meanwhile."""
        tracer = self

        class _Stepped:
            def __init__(self, coro):
                self.coro = coro

            def __await__(self):
                it = self.coro.__await__()
                clock = time.perf_counter
                busy = 0.0
                send, exc = None, None
                try:
                    while True:
                        frame = [0.0]
                        tracer.stack.append(frame)
                        t0 = clock()
                        try:
                            if exc is not None:
                                out = it.throw(exc)
                            else:
                                out = it.send(send)
                        finally:
                            dt = clock() - t0
                            tracer.stack.pop()
                            busy += dt
                            tracer.self_s[layer] += dt - frame[0]
                            if tracer.stack:
                                tracer.stack[-1][0] += dt
                        try:
                            send, exc = (yield out), None
                        except BaseException as thrown:  # re-raised into the coroutine
                            send, exc = None, thrown
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.total_s[name] += busy
                    tracer.calls[name] += 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _Stepped(fn(*args, **kwargs))

        return traced

    def patch(self, owner: Any, attr: str, layer: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, name, original))

    def patch_with(self, owner: Any, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- layer installers ----------------------------------------------------

    def install_compiler(self) -> None:
        from repro.core import pipeline
        from repro.core.optimize import count_primitives

        phases = [
            ("parse_program", "lang", "lang.parse_s"),
            ("elaborate", "lang", "lang.elaborate_s"),
            ("uniquify", "core", "core.uniquify_s"),
            ("monomorphize", "core", "core.monomorphize_s"),
            ("compile_matches", "core", "core.matchcomp_s"),
            ("normalize", "core", "core.anf_s"),
            ("eliminate_dead_code", "core", "core.deadcode_s"),
            ("infer_levels", "core", "core.levels_s"),
            ("translate", "core", "core.translate_s"),
            ("index_cases", "core", "core.caseindex_s"),
        ]
        for attr, layer, name in phases:
            self.patch(pipeline, attr, layer, name)
        counts = self.counts

        def make_optimize(original):
            timed = self.wrap("core", "core.optimize_s", original)

            def optimize(expr, *args, **kwargs):
                before = sum(count_primitives(expr).values())
                out = timed(expr, *args, **kwargs)
                counts["core.optimize.prims_removed"] += before - sum(
                    count_primitives(out).values()
                )
                return out

            return optimize

        self.patch_with(pipeline, "optimize", make_optimize)

    def install_api(self) -> None:
        from repro.api import Session
        from repro.apps.raytracer import SceneInput
        from repro.interp import marshal

        for attr in ("prepare", "run", "edit", "propagate", "get", "demand"):
            self.patch(Session, attr, "api", f"api.{attr}_s")
        edits = [
            (marshal.ModListInput, ("insert", "remove", "set")),
            (marshal.ModVectorInput, ("set",)),
            (marshal.ModMatrixInput, ("set",)),
            (marshal.BlockMatrixInput, ("set",)),
            (SceneInput, ("set_group", "toggle")),
        ]
        for cls, attrs in edits:
            for attr in attrs:
                self.patch(cls, attr, "api", "api.edit_s")

    def install_engine(self, callbacks: bool = True) -> None:
        """Engine and order spans.  ``callbacks`` also wraps the backend
        code the engine calls back into (readers, mod bodies, memo thunks),
        which splits backend from engine time.  It replaces the closures
        stored in the trace, so it is only used where no snapshot is
        taken (snapshots serialize those closures)."""
        from repro.sac.engine import Engine
        from repro.sac.order import Order

        for attr in ("change", "propagate", "demand", "write", "impwrite",
                     "compact", "truncate_after", "make_input", "rollback",
                     "read_begin", "read_end", "read_abort", "mod_begin",
                     "mod_end", "mod_abort", "memo_probe", "memo_commit"):
            self.patch(Engine, attr, "sac", f"sac.{attr}_s")
        self.patch(Order, "insert_after", "sac.order", "sac.order.insert_after_s")
        self.patch(Order, "delete_range", "sac.order", "sac.order.delete_range_s")
        self.patch(Order, "delete", "sac.order", "sac.order.delete_s")
        if not callbacks:
            for attr in ("read", "mod", "keyed_mod", "memo"):
                self.patch(Engine, attr, "sac", f"sac.{attr}_s")
            return
        wrap, span = self.wrap, self.span
        backend_cb = "backend.callback_s"

        def make_read(original):
            timed = wrap("sac", "sac.read_s", original)
            return lambda engine, mod, reader: timed(
                engine, mod, span("backend", backend_cb, reader)
            )

        def make_mod(original):
            timed = wrap("sac", "sac.mod_s", original)
            return lambda engine, comp: timed(
                engine, span("backend", backend_cb, comp)
            )

        def make_keyed(original):
            timed = wrap("sac", "sac.keyed_mod_s", original)
            return lambda engine, key, comp: timed(
                engine, key, span("backend", backend_cb, comp)
            )

        def make_memo(original):
            timed = wrap("sac", "sac.memo_s", original)
            return lambda engine, key, thunk: timed(
                engine, key, span("backend", backend_cb, thunk)
            )

        self.patch_with(Engine, "read", make_read)
        self.patch_with(Engine, "mod", make_mod)
        self.patch_with(Engine, "keyed_mod", make_keyed)
        self.patch_with(Engine, "memo", make_memo)

    def install_backends(self) -> None:
        from repro.compile.closures import CompiledSelfAdjusting
        from repro.compile.stackmachine import StackSelfAdjusting
        from repro.interp.selfadjusting import SelfAdjustingInterpreter

        for cls in (SelfAdjustingInterpreter, CompiledSelfAdjusting,
                    StackSelfAdjusting):
            self.patch(cls, "run", "backend", "backend.stage_s")
            self.patch(cls, "apply", "backend", "backend.apply_s")

    def install_persist(self) -> None:
        import repro.persist as persist
        from repro.persist.journal import EditJournal
        from repro.server import pool

        self.patch(persist, "save_session", "persist", "persist.save_session_s")
        self.patch(persist, "load_session", "persist", "persist.load_session_s")
        self.patch(pool, "_replay_journal", "persist", "persist.replay_journal_s")
        self.patch(EditJournal, "commit", "persist", "persist.journal.commit_s")

    def install_server(self) -> None:
        from repro.server import pool, protocol

        self.patch(protocol, "decode_frame", "server", "server.protocol.decode_s")
        self.patch(protocol, "encode_frame", "server", "server.protocol.encode_s")
        self.patch(protocol, "_handle_frame", "server", "server.protocol.handle_s")
        for attr in ("edit", "get", "demand", "batch", "open"):
            self.patch(pool.SessionPool, attr, "server", f"server.pool.{attr}_s")
        self.patch(pool.SessionPool, "_run_slice", "server", "server.pool.slice_s")

    # -- readout ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def diff(after: dict, before: dict) -> dict:
    """Per-key difference of two :meth:`Tracer.snapshot` readouts."""
    return {
        group: {
            key: value - before.get(group, {}).get(key, 0)
            for key, value in values.items()
        }
        for group, values in after.items()
    }
