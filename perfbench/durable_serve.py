"""``durable-serve``: the session server with checkpoints and an fsync'd
journal, under open-loop load, then a crash and a warm restart.

``python -m repro serve --unix ... --checkpoint-dir ...`` runs in its own
process (through ``serve_launcher.py``), in its defaults: lazy mode,
journal fsync'd before each ack, a checkpoint every 64 acknowledged edits
per document.  It serves ``vec-reduce`` documents.  The load generator is
open-loop: ops are due at evenly spaced times at a fixed offered rate,
pipelined over two connections (each document pinned to one, so its
frames stay ordered), mixing edits with ``get "out"`` reads.  Each op is
timed from its due time until its response frame.  Two rates, ``low``
and ``high``, alternate in rounds with a closed-loop phase that keeps
every connection busy to measure capacity and the ack latency at
saturation (timed from each op's send).  Then every document gets a
few more edits so that its journal holds a non-empty suffix past the last
checkpoint, the server is SIGKILLed, and a new server on the same
checkpoint directory must reopen every document warm, replay that suffix
and serve a reference-correct read of each.  Every read is checked
against the app's reference, replayed from the edit log after the load.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List

import common
from common import Result, account, gc_layers
from inproc import sac_layers

DOCS = 4
N = 256
SMOKE_N = 16
EDIT_SHARE = 0.75
#: offered ops/s, absolute.  Open-loop acks stop keeping up near 1.1k
#: ops/s on the reference machine (README); at 80% of that, latency swung
#: several-fold between identical runs, so the rates sit lower.  At these
#: rates an ack waits mostly on one isolated journal fsync and on waking
#: idle CPUs, so its median moved by a quarter between rounds of one run;
#: the end-to-end latency figures are the closed loop's instead (README).
RATES = {"low": 250.0, "high": 500.0}
SMOKE_RATES = {"low": 50.0, "high": 100.0}
#: share of ``--seconds`` each measured phase runs; ``capacity`` is the
#: closed-loop phase.
SHARES = {"low": 0.4, "high": 0.2, "capacity": 0.4}
#: the phases run in this many interleaved rounds (low, high, capacity,
#: low, ...), and each figure is the median over the rounds: the machine
#: drifts over seconds, and a slow spell then moves one round, not the
#: figure.  A round of either rate holds 1000 ops at 30 seconds.
ROUNDS = 3
#: ops each connection keeps in flight in the closed-loop phase.
DEPTH = 4
#: op schedule drawn for the closed-loop phase, in ops per second: well
#: above what it completes (if it runs out, the phase ends early).
CAPACITY_DRAW = 10000.0
CONNECTIONS = 2
#: set-ups timed before each round, besides the server that takes the
#: load, so that set-up time too samples the whole run.
SETUPS_PER_ROUND = 2
#: ``python -m repro serve``'s default checkpoint cadence (edits per doc).
CHECKPOINT_EVERY = 64
#: seconds of load at the low rate before the measured phases: the first
#: seconds after the opens ran slow and uneven (checked, not reported).
WARMUP_S = 3.0
#: generator lateness growth (ms, p90 of the last vs the first tenth of a
#: phase) beyond which a run is invalid.
LATE_GROWTH_MS = 20.0
APP = "vec-reduce"
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_launcher.py")
CLOCK = time.perf_counter


class Inputs:
    """Initial vectors, and per phase the op schedule: due time, document,
    kind, cell index and value -- all drawn from the seed.  The closed-loop
    phase ignores the due times.  ``seconds`` is the measured load's
    length."""

    def __init__(self, seed: int, smoke: bool, seconds: float) -> None:
        from repro.apps import REGISTRY

        app = REGISTRY[APP]
        rng = random.Random(seed)
        n = SMOKE_N if smoke else N
        self.docs = [f"doc{i}" for i in range(DOCS)]
        self.data = {doc: app.make_data(n, random.Random(rng.getrandbits(64)))
                     for doc in self.docs}
        rates = SMOKE_RATES if smoke else RATES
        self.phases = []
        for phase, rate, length in [("warmup", rates["low"], WARMUP_S)] + [
            (phase, rates.get(phase, CAPACITY_DRAW), seconds * share / ROUNDS)
            for _round in range(ROUNDS) for phase, share in SHARES.items()
        ]:
            ops = []
            for k in range(int(rate * length)):
                doc = rng.randrange(DOCS)
                if rng.random() < EDIT_SHARE:
                    ops.append((k / rate, doc, rng.randrange(n), 0.5 + rng.random()))
                else:
                    ops.append((k / rate, doc, None, None))
            self.phases.append((phase, rate, length, ops))
        self.tail_values = [0.5 + rng.random() for _ in range(CHECKPOINT_EVERY)]


class Server:
    """One server process started through the launcher."""

    def __init__(self, scratch: str, ckpt: str, tag: str, trace: bool) -> None:
        self.sock = os.path.relpath(os.path.join(scratch, f"{tag}.sock"), common.ROOT)
        self.stats_path = os.path.join(scratch, f"{tag}.stats.json")
        self.stderr = open(os.path.join(scratch, f"{tag}.stderr"), "wb")
        cmd = [sys.executable, LAUNCHER, "--stats", self.stats_path]
        cmd += ["--trace"] if trace else []
        cmd += ["--", "--unix", self.sock, "--checkpoint-dir", ckpt]
        self.proc = subprocess.Popen(cmd, cwd=common.ROOT, env=common.clean_env(),
                                     stdout=subprocess.PIPE, stderr=self.stderr)
        cpus = os.sched_getaffinity(0)
        if len(cpus) >= 2:
            # A CPU of its own, as on a server machine: the load generator
            # must not compete with it for a core.
            os.sched_setaffinity(self.proc.pid, {max(cpus)})
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline() if ready else b""
        if not line.startswith(b"serving"):
            self.kill()
            raise RuntimeError(f"server did not start (see {self.stderr.name})")

    def dump(self) -> dict:
        """Ask the launcher for its counters (SIGUSR1) and read them."""
        if os.path.exists(self.stats_path):
            os.remove(self.stats_path)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not os.path.exists(self.stats_path):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server did not write its counters")
            time.sleep(0.005)
        with open(self.stats_path) as f:
            return json.load(f)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        self.stderr.close()


class Conn:
    """A blocking connection for the closed-loop calls (open, stats, the
    tail edits, the reads after the restart)."""

    def __init__(self, server: Server) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(server.sock)
        self.stream = self.sock.makefile("rb")
        self.seq = 0

    def call(self, op: str, **fields) -> dict:
        self.seq += 1
        self.sock.sendall(json.dumps({"op": op, "id": self.seq, **fields}).encode() + b"\n")
        return json.loads(self.stream.readline())

    def each_doc(self, inputs: "Inputs", op: str, **fields) -> List[dict]:
        """One ``op`` per document, in document order."""
        return [
            self.call(op, doc=doc, **fields,
                      **({"app": APP, "data": inputs.data[doc]} if op == "open" else {}))
            for doc in inputs.docs
        ]

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


class Docs:
    """Client-side state: the current vectors and, per document, the edit
    log with the log position every read was sent at."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.edits: Dict[int, list] = {i: [] for i in range(DOCS)}
        self.reads: Dict[int, list] = {i: [] for i in range(DOCS)}

    def expected_reads(self):
        """(doc, reference, got) for every read, replaying the edit log."""
        from repro.apps import REGISTRY

        reference = REGISTRY[APP].reference
        for i, doc in enumerate(self.inputs.docs):
            vector = list(self.inputs.data[doc])
            applied = 0
            for position, got in self.reads[i]:
                for cell, value in self.edits[i][applied:position]:
                    vector[cell] = value
                applied = position
                yield doc, reference(vector), got

    def final(self, i: int) -> list:
        vector = list(self.inputs.data[self.inputs.docs[i]])
        for cell, value in self.edits[i]:
            vector[cell] = value
        return vector


def encode(seq: int, doc: int, cell, value, docs: Docs) -> tuple:
    """The frame for one op, as bytes, and the slot its read result goes
    in (``None`` for an edit).  Records the op in ``docs``: call it in
    send order."""
    if cell is None:
        frame = {"op": "get", "id": seq, "doc": f"doc{doc}", "cell": "out"}
        docs.reads[doc].append([len(docs.edits[doc]), None])
        read = docs.reads[doc][-1]
    else:
        frame = {"op": "edit", "id": seq, "doc": f"doc{doc}",
                 "cell": f"cell:{cell}", "value": value}
        docs.edits[doc].append((cell, value))
        read = None
    return json.dumps(frame).encode() + b"\n", read


def connect(sock_path: str) -> List[socket.socket]:
    socks = []
    for _ in range(CONNECTIONS):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(sock_path)
        socks.append(sock)
    return socks


def on_generator_cpus(threads: List[threading.Thread]) -> None:
    """Run the load generator's threads to the end, off the server's CPU
    (see Server)."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) >= 2:
        os.sched_setaffinity(0, cpus - {max(cpus)})
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        os.sched_setaffinity(0, cpus)


def collect(sent: List[tuple], received: List[tuple], result: Result) -> List[float]:
    """Pair each sent op ``(seq, start, read)`` with its response ``(time,
    line)``; count failures, fill in the read slots and return the
    latencies of the acknowledged ops."""
    latencies = []
    for (seq, at, read), (now, line) in zip(sent, received):
        result.attempted += 1
        response = json.loads(line) if line else {"error": "connection closed"}
        if response.get("id") != seq or not response.get("ok"):
            result.fail(f"op {seq}: {response.get('type')}: {response.get('error')}")
            continue
        latencies.append(now - at)
        if read is not None:
            read[1] = response["value"]
    missing = len(sent) - len(received)
    result.attempted += missing
    result.failed += missing
    return latencies


def run_capacity(sock_path: str, ops, seconds: float, docs: Docs, result: Result) -> dict:
    """Closed loop: each connection keeps ``DEPTH`` ops in flight and sends
    the next one as each response arrives, for ``seconds``; then the ops
    in flight drain.  Its acknowledged ops per second is the server's
    capacity."""
    socks = connect(sock_path)
    sent: List[list] = [[] for _ in socks]  # per connection: (seq, sent at, read)
    received: List[list] = [[] for _ in socks]  # per connection: (time, line)
    start = CLOCK()
    end = start + seconds

    def drive(k: int) -> None:
        mine = iter((seq, op) for seq, op in enumerate(ops, 1)
                    if op[1] % CONNECTIONS == k)

        def send_next() -> None:
            item = next(mine, None)
            if item is None:
                return
            seq, (_due, doc, cell, value) = item
            frame, read = encode(seq, doc, cell, value, docs)
            sent[k].append((seq, CLOCK(), read))
            socks[k].sendall(frame)

        with socks[k].makefile("rb") as stream:
            for _ in range(DEPTH):
                send_next()
            while len(received[k]) < len(sent[k]):
                line = stream.readline()
                now = CLOCK()
                received[k].append((now, line))
                if not line:
                    return
                if now < end:
                    send_next()

    try:
        on_generator_cpus([threading.Thread(target=drive, args=(k,))
                           for k in range(len(socks))])
    finally:
        for sock in socks:
            sock.close()
    elapsed = max((r[-1][0] for r in received if r), default=end) - start
    acks = []
    for k in range(len(socks)):
        acks += collect(sent[k], received[k], result)
    return {"acks": acks, "elapsed": elapsed, "ops": sum(len(s) for s in sent)}


def run_phase(sock_path: str, ops, docs: Docs, result: Result) -> dict:
    """Open-loop load on fresh connections: one thread sends each op at its
    due time on its document's connection, one thread per connection reads
    the responses; each op is timed from its due time to its response.

    Threads and blocking sockets keep the send times within a fraction of
    a millisecond of the schedule (an event loop's timers wake on whole
    milliseconds)."""
    socks = connect(sock_path)
    # Frames are encoded before the clock starts; reads remember the edit
    # log position they were sent at, for the reference check afterwards.
    plan = [(due, doc % CONNECTIONS, seq) + encode(seq, doc, cell, value, docs)
            for seq, (due, doc, cell, value) in enumerate(ops, 1)]
    sent: List[list] = [[] for _ in socks]  # per connection: (seq, due, read)
    received: List[list] = [[] for _ in socks]  # per connection: (time, line)
    counts = [sum(1 for op in plan if op[1] == k) for k in range(len(socks))]
    late: List[float] = []
    start = CLOCK() + 0.05

    def send() -> None:
        for due, k, seq, frame, read in plan:
            at = start + due
            delay = at - CLOCK()
            if delay > 0:
                time.sleep(delay)
            sent[k].append((seq, at, read))
            late.append(CLOCK() - at)
            socks[k].sendall(frame)

    def receive(k: int) -> None:
        # Only timestamp here; parsing waits until the phase is over, so
        # the receivers hold the interpreter lock as briefly as possible
        # and the sender keeps to its schedule.
        with socks[k].makefile("rb") as stream:
            for _ in range(counts[k]):
                line = stream.readline()
                received[k].append((CLOCK(), line))
                if not line:
                    return

    threads = [threading.Thread(target=receive, args=(k,)) for k in range(len(socks))]
    threads.append(threading.Thread(target=send))
    try:
        on_generator_cpus(threads)
    finally:
        for sock in socks:
            sock.close()
    acks: List[float] = []
    for k in range(len(socks)):
        acks += collect(sent[k], received[k], result)
    unsent = len(ops) - sum(len(x) for x in sent)
    result.attempted += unsent
    result.failed += unsent
    tenth = max(len(late) // 10, 1)
    first = common.percentile(sorted(late[:tenth]), 90)
    last = common.percentile(sorted(late[-tenth:]), 90)
    return {"acks": acks, "late": late,
            "ops": len(ops), "late_growth_ms": (last - first) * 1e3}


def set_up(inputs: Inputs, result: Result, scratch: str, tag: str, trace: bool):
    """Start a server and open every document on it; returns ``(server,
    connection, seconds)``.  The opens are checked against the reference
    after the clock stops."""
    from repro.api import values_close
    from repro.apps import REGISTRY

    t0 = CLOCK()
    server = Server(scratch, os.path.join(scratch, f"{tag}.ckpt"), tag, trace)
    try:
        conn = Conn(server)
        opened = conn.each_doc(inputs, "open")
    except BaseException:
        server.kill()
        raise
    seconds = CLOCK() - t0
    reference = REGISTRY[APP].reference
    for doc, response in zip(inputs.docs, opened):
        result.attempted += 1
        if not response.get("ok") or not values_close(
            response["value"], reference(inputs.data[doc])
        ):
            result.fail(f"open {doc}: {response}")
    return server, conn, seconds


def one_pass(inputs: Inputs, result: Result, trace: bool, setups_per_round: int,
             scratch: str) -> dict:
    """Set up, load at each rate and at capacity, crash, restart.  Before
    each round, ``setups_per_round`` more servers are set up (timed) and
    killed."""
    from repro.api import values_close
    from repro.apps import REGISTRY

    os.makedirs(scratch, exist_ok=True)
    reference = REGISTRY[APP].reference
    server, conn, seconds = set_up(inputs, result, scratch, "s0", trace)
    ckpt = os.path.join(scratch, "s0.ckpt")
    out: dict = {"setup_s": [seconds]}
    out.update((phase, []) for phase in SHARES)
    docs = Docs(inputs)
    try:
        stats_before = conn.call("stats")["stats"]
        meters_before = conn.each_doc(inputs, "stats")
        out["dump_setup"] = server.dump()
        for phase, rate, length, ops in inputs.phases:
            for _ in range(setups_per_round if phase == "low" else 0):
                tag = f"s{len(out['setup_s'])}"
                other, other_conn, seconds = set_up(inputs, result, scratch, tag, trace)
                other_conn.close()
                other.kill()
                shutil.rmtree(os.path.join(scratch, f"{tag}.ckpt"), ignore_errors=True)
                out["setup_s"].append(seconds)
            if phase == "capacity":
                out[phase].append(run_capacity(server.sock, ops, length, docs, result))
                continue
            rec = run_phase(server.sock, ops, docs, result)
            if rec["late_growth_ms"] > LATE_GROWTH_MS:
                result.fail(f"{phase}: load generator fell behind by "
                            f"{rec['late_growth_ms']:.1f} ms")
            if phase != "warmup":
                out[phase].append(dict(rec, rate=rate))
        # Leave half a checkpoint interval of journal suffix per document.
        # Lazy documents checkpoint on the edit cadence (every 64th edit),
        # so this leaves exactly 32 records past the last checkpoint.
        for i, doc in enumerate(inputs.docs):
            extra = (CHECKPOINT_EVERY // 2 - len(docs.edits[i])) % CHECKPOINT_EVERY
            for value in inputs.tail_values[:extra]:
                result.attempted += 1
                response = conn.call("edit", doc=doc, cell="cell:0", value=value)
                if not response.get("ok"):
                    result.fail(f"tail edit {doc}: {response.get('error')}")
                docs.edits[i].append((0, value))
        out["stats"] = (stats_before, conn.call("stats")["stats"])
        out["meters"] = (meter_totals(meters_before),
                         meter_totals(conn.each_doc(inputs, "stats")))
        out["dump_load"] = server.dump()
        out["peak_rss_mb"] = common.peak_rss_mb(server.proc.pid)
        out["snapshot_bytes"] = sum(os.path.getsize(os.path.join(ckpt, f))
                                    for f in os.listdir(ckpt) if f.endswith(".snap"))
    finally:
        conn.close()
        t_kill = CLOCK()
        server.kill()

    restarted = Server(scratch, ckpt, "restart", trace)
    try:
        conn = Conn(restarted)
        reopened = conn.each_doc(inputs, "open")
        reads = conn.each_doc(inputs, "get", cell="out")
        out["restart_s"] = CLOCK() - t_kill
        out["dump_restart"] = restarted.dump()
        conn.close()
    finally:
        restarted.kill()
    out["replayed"] = sum(r.get("replayed", 0) for r in reopened)
    for i, (reopen, read) in enumerate(zip(reopened, reads)):
        result.attempted += 2
        if not reopen.get("ok") or not reopen.get("recovered"):
            result.fail(f"reopen {inputs.docs[i]}: not recovered warm: {reopen}")
        elif not reopen.get("replayed"):
            result.fail(f"reopen {inputs.docs[i]}: replayed no journal suffix")
        if not read.get("ok") or not values_close(read["value"], reference(docs.final(i))):
            result.fail(f"read after restart {inputs.docs[i]}: {read}")

    for doc, expected, got in docs.expected_reads():
        if got is None or not values_close(got, expected):
            result.fail(f"read {doc}: got {got!r}, reference {expected!r}")
    return out


def run(args, result: Result) -> None:
    scratch = os.path.join(common.SCRATCH, f"serve-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.trace:
            _run_traced(args, result, scratch)
        else:
            _run_untraced(args, result, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(common.SCRATCH)
        except OSError:
            pass


def per_round(recs: List[dict], pct: int) -> float:
    """Median over the rounds of each round's ``pct``-th ack percentile,
    in ms."""
    return common.median([common.percentile(rec["acks"], pct) * 1e3 for rec in recs])


def joined(recs: List[dict], key: str) -> list:
    return [x for rec in recs for x in rec[key]]


def capacity(recs: List[dict]) -> float:
    """Median over the rounds of the closed loop's acknowledged ops per
    second."""
    return common.median([len(rec["acks"]) / rec["elapsed"] for rec in recs])


def _report_phases(result: Result, out: dict) -> None:
    for phase, rate in RATES.items():
        recs = out[phase]
        acks = sum(len(rec["acks"]) for rec in recs)
        for pct in (50, 99):
            result.put(f"ack_p{pct}_ms.{phase}", per_round(recs, pct), "ms", acks)
        result.put(f"offered_per_s.{phase}", recs[0]["rate"], "1/s",
                   sum(rec["ops"] for rec in recs))
        late = joined(recs, "late")
        result.put(f"generator_late_p99_ms.{phase}", common.percentile(late, 99) * 1e3,
                   "ms", len(late))
    recs = out["capacity"]
    acks = len(joined(recs, "acks"))
    for pct in (50, 99):
        result.put(f"ack_p{pct}_ms.closed", per_round(recs, pct), "ms", acks)
    result.put("capacity_ops_per_s", capacity(recs), "1/s", acks)


def server_gc(before: dict, after: dict) -> dict:
    """The ``gc.*`` metrics of the server between two counter dumps."""
    g0, g1 = before["gc"], after["gc"]
    return gc_layers([b - a for a, b in zip(g0["pause_s"], g1["pause_s"])],
                     [b - a for a, b in zip(g0["count"], g1["count"])],
                     g1["window_max_s"], after["time"] - before["time"])


def meter_totals(responses: List[dict]) -> dict:
    """Summed engine meters from per-document ``stats`` frames, in the
    shape :func:`inproc.sac_layers` reads (the frames carry no order or
    intern counters; those stay 0)."""
    total = {"relabels": 0, "intern_hits": 0, "intern_misses": 0, "trace_size": 0}
    for response in responses:
        stats = response["stats"]
        total["trace_size"] += stats["trace_size"]
        for key, value in stats["session"]["meter"].items():
            total[key] = total.get(key, 0) + value
    return total


def _run_untraced(args, result: Result, scratch: str) -> None:
    inputs = Inputs(args.seed, args.smoke, args.seconds)
    out = one_pass(inputs, result, False, SETUPS_PER_ROUND, scratch)
    setup = common.median(out["setup_s"])
    result.e2e = {
        "setup_s": (setup, "s"),
        "p50_ms": (per_round(out["capacity"], 50), "ms"),
        "p99_ms": (per_round(out["capacity"], 99), "ms"),
        "ops_per_s": (capacity(out["capacity"]), "1/s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    result.put("setup_s", setup, "s", len(out["setup_s"]))
    _report_phases(result, out)
    result.put("restart_s", out["restart_s"], "s", 1)
    result.put("replayed_records", out["replayed"], "count", DOCS)
    result.put("peak_rss_mb", out["peak_rss_mb"], "MB", 1)
    gc_share = server_gc(out["dump_setup"], out["dump_load"])["gc.share_of_timed"]
    result.put("server_gc_share", gc_share, "ratio", 1)


def _run_traced(args, result: Result, scratch: str) -> None:
    """Pass 1 untraced, pass 2 traced, same seeded schedule at half length."""
    inputs = Inputs(args.seed, args.smoke, args.seconds / 2)
    plain = one_pass(inputs, result, False, 0, os.path.join(scratch, "plain"))
    traced = one_pass(inputs, result, True, 0, os.path.join(scratch, "traced"))
    _report_phases(result, traced)
    layers = result.layers
    before, after = traced["dump_setup"], traced["dump_load"]
    window = after["time"] - before["time"]
    from tracing import diff

    spans = diff(after["spans"], before["spans"])
    for name, value in spans["total_s"].items():
        layers[name] = value
    restart = traced["dump_restart"]["spans"]
    for name in ("persist.load_session_s", "persist.replay_journal_s"):
        layers[name] = restart["total_s"].get(name, 0.0)
    for name, value in restart["total_s"].items():
        if name.startswith(("lang.", "core.")):
            layers[name] = value
    layers["server.pool.open_s"] = before["spans"]["total_s"].get("server.pool.open_s", 0.0)
    layers["persist.journal.commits"] = spans["calls"].get("persist.journal.commit_s", 0)
    layers["persist.snapshot_bytes"] = traced["snapshot_bytes"]
    layers["persist.replayed_records"] = traced["replayed"]

    s0, s1 = traced["stats"]
    layers["persist.checkpoints"] = s1["checkpoints"] - s0["checkpoints"]
    layers["server.scheduler.rotations"] = (s1["scheduler"]["rotations"]
                                            - s0["scheduler"]["rotations"])
    for key in ("slices", "drains"):
        layers[f"server.pool.{key}"] = (sum(d[key] for d in s1["docs"].values())
                                        - sum(d[key] for d in s0["docs"].values()))
    edits = (sum(d["edits"] for d in s1["docs"].values())
             - sum(d["edits"] for d in s0["docs"].values()))
    layers.update(sac_layers(*traced["meters"], edits))

    acks = [x for phase in SHARES for x in joined(traced[phase], "acks")]
    handled = spans["total_s"].get("server.protocol.handle_s", 0.0)
    requests = max(spans["calls"].get("server.protocol.handle_s", 0), 1)
    layers["server.queue_wait_ms"] = (sum(acks) / max(len(acks), 1) - handled / requests) * 1e3
    late = joined(traced["low"], "late") + joined(traced["high"], "late")
    layers["server.generator_late_ms"] = common.percentile(late, 99) * 1e3

    layers.update(server_gc(before, after))
    account(layers, spans["self_s"], layers["gc.pause_s"], window)
    p50 = per_round(plain["low"], 50)
    layers["trace.overhead_share"] = per_round(traced["low"], 50) / p50 - 1.0
    result.put("restart_s", traced["restart_s"], "s", 1)
    result.put("trace.untraced_ack_p50_ms.low", p50, "ms", len(joined(plain["low"], "acks")))
