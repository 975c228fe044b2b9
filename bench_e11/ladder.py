"""The traced run: one fixed script replayed down the layer ladder.

Rungs, bottom to top: a bare ``TransformationEngine`` per session, a
``DurableSession`` per session, one in-process ``SessionServer``, one
in-process ``ShardRouter`` (real worker processes), and the real
``python -m repro serve`` subprocess over TCP.  Every rung must return the
reference replies.  Spans are recorded from this file only, by wrapping
the public entry points of each layer (:data:`SPAN_POINTS`) and restoring
them afterwards; each span is ``(name, start, end, parent, request)``.
Spans stay in memory and are written once, at the end.

Per-layer metrics come from the traced ``SessionServer`` rung, where every
layer runs in this process; the hops the spans cannot see are differences
between rungs: ``shard.hop_us`` is router minus untraced server and
``netserver.hop_us`` is TCP minus router, the median over requests of the
per-request difference.  Recovery metrics
come from reopening every ``DurableSession`` after dropping it without a
snapshot, as a SIGKILL would.  The session-lock wait comes from one more
untraced ``SessionServer`` that every user drives at once, one thread
each, and ``ladder.age_slowdown`` from the TCP rung.

The script has a fixed length, so every count (finds, opportunities,
cascade lengths, analysis pairs, journal bytes, fsyncs, snapshots,
evictions) repeats exactly for a fixed seed; sizes of files whose lines
carry timings (audit, trace) are sizes, not exact counts.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.commands import parse_verb
from repro.core.engine import TransformationEngine
from repro.core.undo import UndoReport
from repro.lang.parser import parse_program
from repro.obs import metrics as obs_metrics
from repro.obs.analytics import DecisionAnalytics
from repro.obs.check import trace_path
from repro.obs.provenance import (
    audit_path,
    explain_doc,
    read_audit,
    render_explanation,
)
from repro.service import session as session_mod
from repro.service.journal import Journal
from repro.service.server import SessionServer
from repro.service.session import DurableSession, SessionManager
from repro.service.shard import ShardRouter
from repro.service.snapshot import SnapshotStore

from e2e import Gate
from served import ServerProcess
from workloads import Session, Step, build, wire

#: writes per connection in the traced run (fixed, so counts repeat).
TRACE_WRITES = {"small-churn": 500, "large-program": 192,
                "aging-session": 1000}

#: (owner, attribute, span name) of every wrapped entry point.
SPAN_POINTS = (
    (TransformationEngine, "execute", "core.execute"),
    (TransformationEngine, "find", "transforms.find"),
    (DurableSession, "execute", "session.execute"),
    (DurableSession, "_on_command", "session.on_command"),
    (DurableSession, "_on_span", "obs.trace_sink"),
    (DurableSession, "snapshot", "snapshot"),
    (DurableSession, "open", "recovery.open"),
    (DecisionAnalytics, "observe", "obs.analytics"),
    (session_mod, "audit_entry", "obs.audit_entry"),
    (Journal, "append", "journal.append"),
    (Journal, "sync", "journal.sync"),
    (SnapshotStore, "write", "snapshot.write"),
    (SnapshotStore, "load", "snapshot.load"),
    (SessionServer, "handle_line", "server.handle_line"),
    (ShardRouter, "handle_line", "router.handle_line"),
)

#: ``WorkCounters`` fields reported per request.
ANALYSIS_COUNTS = ("dependence_pairs", "incremental_pairs", "dataflow_nodes")


@dataclass
class Recording:
    """What the wrapped entry points recorded over one stretch of work."""

    #: [name, start, end, parent index, request index, analysis delta]
    spans: List[list] = field(default_factory=list)
    find_results: int = 0
    undo_reports: List[UndoReport] = field(default_factory=list)
    #: (is it a delta?, bytes) of every snapshot file written.
    snapshot_files: List[Tuple[bool, int]] = field(default_factory=list)
    snapshot_read: int = 0
    #: the most history records any engine held after a command.
    history: int = 0


class Spans:
    """In-memory span recorder wrapped around layer entry points."""

    def __init__(self):
        self.rec = Recording()
        self.request = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in SPAN_POINTS:
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__,
                                                            name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def take(self) -> Recording:
        """Hand over everything recorded so far and start afresh."""
        taken, self.rec = self.rec, Recording()
        return taken

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans = self

        def traced(*args, **kwargs):
            parent = spans._stack[-1] if spans._stack else -1
            span = [name, 0.0, 0.0, parent, spans.request, None]
            spans._stack.append(len(spans.rec.spans))
            spans.rec.spans.append(span)
            engine = args[0] if isinstance(args[0], TransformationEngine) \
                else None
            before = engine.cache.counters.snapshot() if engine else None
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                spans._stack.pop()
            if engine is not None:
                span[5] = _analysis_delta(before,
                                          engine.cache.counters.snapshot())
            spans._observe(name, args, kwargs, out)
            return out

        return traced

    def _observe(self, name: str, args: tuple, kwargs: dict, out) -> None:
        rec = self.rec
        if name == "transforms.find":
            rec.find_results += len(out)
        elif name == "core.execute":
            rec.history = max(rec.history, len(args[0].history))
            if isinstance(out, UndoReport):
                rec.undo_reports.append(out)
        elif name == "snapshot.write":
            base = args[3] if len(args) > 3 else kwargs.get("base")
            rec.snapshot_files.append((base is not None,
                                       os.path.getsize(out)))
        elif name == "snapshot.load":
            rec.snapshot_read += os.path.getsize(args[0].path_for(args[1]))


def write_spans(path: str, rungs: Dict[str, List[list]]) -> None:
    """One JSON line per span: rung, name, start, end, parent, request."""
    with open(path, "w") as fh:
        for rung, spans in rungs.items():
            for name, start, end, parent, request, _extra in spans:
                fh.write(json.dumps([rung, name, start, end, parent,
                                     request]) + "\n")


def _analysis_delta(before, after) -> Dict[str, float]:
    out = {k: after[k] - before[k] for k in ANALYSIS_COUNTS}
    out["time"] = sum(after["timers"].values()) \
        - sum(before["timers"].values())
    return out


# -- the fronts of each rung -----------------------------------------------------

class EngineFront:
    """Bare engines answering the protocol's replies, one per session."""

    def __init__(self, root: str):
        self.root = root
        self.engines: Dict[str, TransformationEngine] = {}

    def open(self, name: str, program: str):
        self.engines[name] = TransformationEngine(parse_program(program))

    def engine(self, target) -> TransformationEngine:
        return target

    def explain(self, target, stamp: int) -> str:
        return json.dumps(target.explain(stamp), sort_keys=True)

    def handle(self, name: str, step: Step, program: str) -> str:
        if step.verb == "init":
            self.open(name, program)
            return f"created {name}"
        target = self.engines[name]
        engine = self.engine(target)
        if step.is_write:
            cmd = parse_verb(step.verb, step.args.split())
            target.execute(cmd)
            return cmd.describe()
        if step.verb == "opps":
            kinds = [step.args] if step.args else sorted(engine.registry)
            return "\n".join(f"  {k}[{i}]: {o.description}" for k in kinds
                             for i, o in enumerate(engine.find(k))) \
                or "(no opportunities)"
        if step.verb == "source":
            return engine.source()
        return self.explain(target, int(step.args))

    def close(self) -> None:
        self.engines.clear()


class SessionFront(EngineFront):
    """One ``DurableSession`` per session, at the shipped cadences."""

    def open(self, name: str, program: str):
        self.engines[name] = DurableSession.create(
            os.path.join(self.root, name), program)

    def engine(self, target) -> TransformationEngine:
        return target.engine

    def explain(self, target, stamp: int) -> str:
        entries = read_audit(audit_path(target.dirpath))
        return render_explanation(
            explain_doc(target.engine.explain(stamp), entries, stamp))

    def crash_and_reopen(self) -> List[float]:
        """Drop every session without a snapshot, then reopen it."""
        times = []
        for name, session in list(self.engines.items()):
            session.close()
            t0 = time.perf_counter()
            self.engines[name] = DurableSession.open(session.dirpath)
            times.append(time.perf_counter() - t0)
        return times

    def close(self) -> None:
        for session in self.engines.values():
            session.close()
        self.engines.clear()


def _line_front(handle_line: Callable[[str], str], paths: Dict[str, str]):
    def handle(name: str, step: Step, program: str) -> str:
        if step.verb == "init":
            return handle_line(f"{name} init {paths[program]}")
        return handle_line(step.line(name))
    return handle


# -- the replay -----------------------------------------------------------------

def _requests(sessions_by_conn: List[List[Session]], nwrites: int
              ) -> List[Tuple[Session, Step]]:
    """Round-robin over connections; each runs up to its ``nwrites``-th
    write."""
    per_conn = []
    for conn in sessions_by_conn:
        out, left = [], nwrites
        for session in conn:
            if left <= 0:
                break
            out.append((session, Step("init")))
            for step in session.script.steps[:session.script.steps_for(left)]:
                out.append((session, step))
            left -= len(session.script.log)
        per_conn.append(out)
    merged = []
    for i in range(max(len(c) for c in per_conn)):
        merged.extend(c[i] for c in per_conn if i < len(c))
    return merged


def _replay(handle, requests, gate: Gate, spans: Optional[Spans]
            ) -> List[float]:
    lat = []
    for i, (session, step) in enumerate(requests):
        if spans is not None:
            spans.request = i
        t0 = time.perf_counter()
        reply = handle(session.name, step, session.script.program)
        lat.append(time.perf_counter() - t0)
        reply = wire(reply)  # in-process fronts skip the line framing
        if step.verb == "init":
            gate.check(reply == f"created {session.name}",
                       f"{session.name} init: {reply[:200]}")
        else:
            gate.step(session.name, step, reply)
    return lat


def _dir_bytes(root: str, filename_of: Callable[[str], str]) -> int:
    total = 0
    for dirpath, dirs, _files in os.walk(root):
        for d in dirs:
            path = filename_of(os.path.join(dirpath, d))
            if os.path.isfile(path):
                total += os.path.getsize(path)
    return total


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _concurrent_lock_wait(root: str, workload, paths: Dict[str, str],
                         gate: Gate) -> float:
    """Mean session-lock wait per request, in seconds, with every user
    of the workload on one ``SessionServer`` at once, one thread each."""
    hist = obs_metrics.REGISTRY.histogram("repro_session_lock_wait_seconds")
    before, count = hist.sum, hist.count
    server = SessionServer(SessionManager(root))
    handle = _line_front(server.handle_line, paths)
    users = [threading.Thread(target=_replay, args=(
        handle, _requests([conn], workload.measured_writes), gate, None))
        for conn in workload.connections]
    for user in users:
        user.start()
    for user in users:
        user.join()
    server.close()
    return (hist.sum - before) / max(1, hist.count - count)


def trace_run(repo: str, work: str, name: str, seed: int, shards: int
              ) -> Dict[str, object]:
    workload = build(name, seed, 1.0, nconn=shards,
                     nwrites=TRACE_WRITES[name])
    requests = _requests(workload.connections, workload.measured_writes)
    writes = [i for i, (_s, st) in enumerate(requests) if st.is_write]
    nreq, nw = len(requests), max(1, len(writes))
    paths: Dict[str, str] = {}
    for session, _step in requests:
        program = session.script.program
        if program not in paths:
            paths[program] = os.path.join(work, f"p{len(paths)}.loop")
            with open(paths[program], "w") as fh:
                fh.write(program)
    gate = Gate()
    registry = obs_metrics.REGISTRY

    def fresh(rung: str) -> str:
        root = os.path.join(work, rung)
        os.makedirs(root)
        return root

    # untraced rungs first: every user at once on one server, which
    # gives the session-lock wait and warms the process up; then the
    # bare engine, and the server as the baseline the tracing overhead
    # is priced against
    lock_wait = _concurrent_lock_wait(fresh("concurrent"), workload, paths,
                                      gate)
    bare = EngineFront(fresh("engine"))
    lat_engine = _replay(bare.handle, requests, gate, None)
    bare.close()
    server = SessionServer(SessionManager(fresh("server-untraced")))
    lat_untraced = _replay(_line_front(server.handle_line, paths), requests,
                           gate, None)
    server.close()

    spans = Spans()
    spans.install()
    try:
        durable = SessionFront(fresh("session"))
        lat_session = _replay(durable.handle, requests, gate, spans)
        spans.take()
        spans.request = -1
        reopen = durable.crash_and_reopen()
        recovery = {"open_ms": statistics.median(reopen) * 1e3,
                    "replayed": sum(s.recovery.replayed
                                    for s in durable.engines.values()),
                    "read": spans.take().snapshot_read}
        durable.close()

        counters_before = {
            k: registry.total(k) for k in (
                "repro_journal_bytes_total", "repro_journal_fsyncs_total")}
        root = fresh("server")
        server = SessionServer(SessionManager(root))
        lat_server = _replay(_line_front(server.handle_line, paths),
                             requests, gate, spans)
        counters = {k: registry.total(k) - v
                    for k, v in counters_before.items()}
        traced = spans.take()
        spans.request = -1
        server.close()  # shutdown snapshots are not part of the script
        spans.take()

        router = ShardRouter(fresh("router"), shards)
        try:
            router.handle_line("_ stats")  # wait for every worker
            lat_router = _replay(_line_front(router.handle_line, paths),
                                 requests, gate, spans)
            stats = json.loads(router.handle_line("_ stats"))
        finally:
            router.close()
            # the router's workers started multiprocessing's resource
            # tracker in this process; stop it and wait for it too
            resource_tracker._resource_tracker._stop()
        routed = spans.take()
    finally:
        spans.restore()

    tcp = ServerProcess(repo, fresh("tcp"), shards).start()
    try:
        client = tcp.client()
        try:
            client.request("_ stats")
            lat_tcp = _replay(_line_front(client.request, paths), requests,
                              gate, None)
        finally:
            client.close()
    finally:
        tcp.kill()

    # spans stay in memory until here, then go where the run's scratch
    # directory is not removed
    write_spans(os.path.join(os.path.dirname(work),
                             f"spans-{name}-seed{seed}.jsonl"),
                {"server": traced.spans, "router": routed.spans})
    metrics = _layer_metrics(
        traced, writes, nreq, nw, recovery, counters, lock_wait,
        stats, root,
        {"engine": lat_engine, "server_untraced": lat_untraced,
         "session": lat_session, "server": lat_server,
         "router": lat_router, "tcp": lat_tcp})
    metrics["ladder.age_slowdown"] = (
        _age_slowdown(requests, writes, lat_tcp), "ratio")
    return {"gate": gate, "metrics": metrics}


def _age_slowdown(requests, writes, lat) -> float:
    """Write p50 over the last tenth of each session's writes divided by
    the first tenth, pooled over sessions.

    Each latency is first divided by the session's median for the same
    kind of write (``apply ctp``, ``apply cfo``, ``undo``, ...), so a
    different command mix in the two tenths does not read as aging.
    """
    by_session: Dict[str, List[Tuple[str, float]]] = {}
    for i in writes:
        session, step = requests[i]
        by_session.setdefault(session.name, []).append((step.op, lat[i]))
    first, last = [], []
    for ops in by_session.values():
        if len(ops) < 10:
            continue
        by_op: Dict[str, List[float]] = {}
        for op, x in ops:
            by_op.setdefault(op, []).append(x)
        typical = {op: statistics.median(xs) for op, xs in by_op.items()}
        tenth = len(ops) // 10
        first += [x / typical[op] for op, x in ops[:tenth]]
        last += [x / typical[op] for op, x in ops[-tenth:]]
    if not first:
        return 1.0
    return statistics.median(last) / statistics.median(first)


def _layer_metrics(traced: Recording, writes, nreq, nw, recovery,
                   counters, lock_wait, stats, root, lat
                   ) -> Dict[str, Tuple[float, str]]:
    spans = traced.spans
    undo_reports = traced.undo_reports
    write_set = set(writes)
    children: Dict[int, float] = {}
    child_analysis: Dict[int, float] = {}
    for rec in spans:
        parent = rec[3]
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + rec[2] - rec[1]
            if rec[5] is not None:
                child_analysis[parent] = child_analysis.get(parent, 0.0) \
                    + rec[5]["time"]
    self_w: Dict[str, float] = {}    # self seconds within write requests
    self_all: Dict[str, float] = {}  # self seconds within every request
    calls: Dict[str, int] = {}
    analysis_all = {k: 0.0 for k in ANALYSIS_COUNTS + ("time",)}
    analysis_self_w: Dict[str, float] = {}
    snapshot_ms = []
    for i, (name, start, end, parent, req, extra) in enumerate(spans):
        own = end - start - children.get(i, 0.0)
        if extra is not None:
            # analysis time is reported as its own layer, so it is taken
            # out of the self time of the engine call that ran it
            own_analysis = extra["time"] - child_analysis.get(i, 0.0)
            own -= own_analysis
            if parent < 0 or spans[parent][5] is None:
                for k in analysis_all:
                    analysis_all[k] += extra[k]
            if req in write_set:
                analysis_self_w[name] = analysis_self_w.get(name, 0.0) \
                    + own_analysis
        self_all[name] = self_all.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if req in write_set:
            self_w[name] = self_w.get(name, 0.0) + own
        if name == "snapshot":
            snapshot_ms.append((end - start) * 1e3)

    def per_write(*names) -> float:
        return sum(self_w.get(n, 0.0) for n in names) / nw

    def hop(upper, lower, idx=range(nreq)) -> float:
        """Median over requests ``idx`` of one rung's latency minus
        another's: robust to the GC pauses and snapshots either rung
        hits."""
        return statistics.median(lat[upper][i] - lat[lower][i] for i in idx)

    def mean_lat(key, idx=None) -> float:
        vals = lat[key] if idx is None else [lat[key][i] for i in idx]
        return _mean(vals)

    checks = sum(r.reversibility_checks + r.safety_checks
                 + r.heuristic_skips + r.region_skips for r in undo_reports)
    skips = sum(r.heuristic_skips for r in undo_reports)
    full = [b for delta, b in traced.snapshot_files if not delta]
    delta = [b for is_delta, b in traced.snapshot_files if is_delta]
    us = 1e6
    m: Dict[str, Tuple[float, str]] = {
        "transforms.find_us": (self_all.get("transforms.find", 0.0) * us
                               / max(1, calls.get("transforms.find", 0)),
                               "us"),
        "transforms.opps_per_find": (
            traced.find_results / max(1, calls.get("transforms.find", 0)),
            "count"),
        "core.execute_us": (per_write("core.execute") * us, "us"),
        "core.undo_cascade_len": (_mean(len(r.undone) for r in undo_reports),
                                  "count"),
        "core.recheck_skip_ratio": (skips / checks if checks else 0.0,
                                    "ratio"),
        "core.history_records": (traced.history, "count"),
        "analysis.time_us_per_cmd": (analysis_all["time"] * us / nreq, "us"),
        "session.self_us": (per_write("session.execute",
                                      "session.on_command") * us, "us"),
        "session.observer_us": (per_write("obs.audit_entry",
                                          "obs.trace_sink",
                                          "obs.analytics") * us, "us"),
        "session.lock_wait_us": (lock_wait * us, "us"),
        "journal.append_us": (per_write("journal.append") * us, "us"),
        "journal.sync_us": (self_all.get("journal.sync", 0.0) * us / nw,
                            "us"),
        "journal.bytes_per_cmd": (
            counters["repro_journal_bytes_total"] / nw, "B"),
        "journal.syncs_per_cmd": (
            counters["repro_journal_fsyncs_total"] / nw, "count"),
        "audit.bytes_per_cmd": (_dir_bytes(root, audit_path) / nw, "B"),
        "trace.bytes_per_cmd": (_dir_bytes(root, trace_path) / nw, "B"),
        "snapshot.write_ms_p50": (
            statistics.median(snapshot_ms) if snapshot_ms else 0.0, "ms"),
        "snapshot.write_ms_max": (max(snapshot_ms, default=0.0), "ms"),
        "snapshot.full_bytes": (_mean(full), "B"),
        "snapshot.delta_bytes": (_mean(delta), "B"),
        "snapshot.count": (len(traced.snapshot_files), "count"),
        "recovery.open_ms": (recovery["open_ms"], "ms"),
        "recovery.replayed_records": (recovery["replayed"], "count"),
        "recovery.snapshot_bytes_read": (recovery["read"], "B"),
        "server.self_us": (self_all.get("server.handle_line", 0.0) * us
                           / nreq, "us"),
        "shard.hop_us": (hop("router", "server_untraced") * us, "us"),
        "manager.evictions": (stats["evictions"], "count"),
        "manager.reopens": (stats["reopens"], "count"),
        "netserver.hop_us": (hop("tcp", "router") * us, "us"),
        "tracing_overhead_pct": (
            (statistics.median(lat["server"])
             / statistics.median(lat["server_untraced"]) - 1) * 100, "%"),
    }
    for k in ANALYSIS_COUNTS:
        m[f"analysis.{k}_per_cmd"] = (analysis_all[k] / nreq, "count")
    for rung in ("engine", "session", "server", "router", "tcp"):
        m[f"ladder.{rung}_write_us"] = (mean_lat(rung, writes) * us, "us")

    # each layer's share of a served write: in-process layers split the
    # untraced server's write time in the proportions the traced spans
    # give; the shard and TCP hops are rung differences, per write
    tcp_w = mean_lat("tcp", writes)
    inproc_w = mean_lat("server_untraced", writes)
    traced_w = mean_lat("server", writes)
    scale = inproc_w / traced_w / tcp_w / nw
    layers = {
        "transforms": self_w.get("transforms.find", 0.0),
        "core": self_w.get("core.execute", 0.0),
        "analysis": sum(analysis_self_w.values()),
        "session": self_w.get("session.execute", 0.0)
        + self_w.get("session.on_command", 0.0),
        "observers": self_w.get("obs.audit_entry", 0.0)
        + self_w.get("obs.trace_sink", 0.0)
        + self_w.get("obs.analytics", 0.0),
        "journal": self_w.get("journal.append", 0.0)
        + self_w.get("journal.sync", 0.0),
        "snapshot": self_w.get("snapshot", 0.0)
        + self_w.get("snapshot.write", 0.0)
        + self_w.get("snapshot.load", 0.0),
        "recovery": self_w.get("recovery.open", 0.0),
    }
    shares = {k: v * scale for k, v in layers.items()}
    shares["shard"] = hop("router", "server_untraced", writes) / tcp_w
    shares["netserver"] = hop("tcp", "router", writes) / tcp_w
    for k, v in shares.items():
        m[f"share.{k}"] = (v, "ratio")
    # what no named layer accounts for: the server's own handling
    # (parsing, dispatch, session lookup; handle_line's self time) and
    # whatever the per-write hops leave of the TCP write time
    m["unattributed_share"] = (1.0 - sum(shares.values()), "ratio")
    return m
