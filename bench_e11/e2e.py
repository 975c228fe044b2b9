"""The untraced end-to-end run: closed-loop users over TCP, then a SIGKILL.

Each connection is one interactive user that waits for every reply before
sending its next request.  The measured phase runs a fixed number of
writes per user, sized to last one to two times ``seconds``.  It is
followed, unmeasured, by the journal-tail control of single-user
workloads, the pre-kill state checks, the SIGKILL-and-restart rounds (each
timing set-up and every session's first request, which pays for lazy
recovery), and the final undo-everything check.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang.interp import traces_equivalent
from repro.lang.parser import parse_program
from repro.service.server import ERROR_PREFIX

from served import ServerProcess, vm_hwm_kb
from workloads import (
    SMALL_SRC,
    Session,
    Step,
    Workload,
    active_stamps,
    expected_undo_all,
)

#: SIGKILL-and-restart rounds after the measured phase.  Each round times
#: one set-up and every session's first request; rounds a second or more
#: apart see the host in different states, which the medians even out.
RESTARTS = 4

#: readings of the session directories' size during the measured phase.
DISK_SAMPLES = 10

#: the measured phase stops at this multiple of ``--seconds`` even if the
#: script is not done (the script is sized to take one to two times
#: ``--seconds``).
TIME_CAP = 3


def tail_percentile(values: List[float]) -> Tuple[float, float]:
    """(percentile, value) of the highest of the usual percentiles with
    at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0):
        if len(ordered) * (100.0 - pct) / 100.0 >= 10:
            break
    else:
        pct = 50.0
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return pct, ordered[rank - 1]


@dataclass
class Gate:
    """Correctness bookkeeping shared by every phase of a run."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def check(self, ok: bool, what: str) -> bool:
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(what)
        return ok

    def step(self, session: str, step: Step, reply: str) -> bool:
        if reply.startswith(ERROR_PREFIX):
            return self.check(False, f"{session} {step.verb} "
                              f"{step.args}: {reply[:200]}")
        if step.expect is not None and reply != step.expect:
            return self.check(False, f"{session} {step.verb} {step.args}: "
                              f"got {reply[:200]!r}, want "
                              f"{step.expect[:200]!r}")
        return self.check(True, "")


@dataclass
class Samples:
    writes: List[float] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)
    requests: int = 0
    last_reply: float = 0.0


class Run:
    """One untraced run of one workload against a fresh service root."""

    def __init__(self, repo: str, work: str, workload: Workload,
                 seconds: float, shards: int):
        self.repo = repo
        self.root = os.path.join(work, "root")
        self.workload = workload
        self.seconds = seconds
        self.shards = shards
        self.gate = Gate()
        self.setup: List[float] = []
        self.reopen: List[float] = []
        self.rss_kb = 0
        self.disk: List[float] = []
        self.paths: Dict[str, str] = {}
        progdir = os.path.join(work, "programs")
        os.makedirs(progdir, exist_ok=True)
        self.probe_path = os.path.join(progdir, "probe.loop")
        with open(self.probe_path, "w") as fh:
            fh.write(SMALL_SRC)
        for session in workload.sessions():
            text = session.script.program
            if text not in self.paths:
                path = os.path.join(progdir, f"p{len(self.paths)}.loop")
                with open(path, "w") as fh:
                    fh.write(text)
                self.paths[text] = path
        #: sessions the phase started; each is checked and reopened.
        self.started: List[Session] = []
        self.server: Optional[ServerProcess] = None

    # -- server lifecycle ----------------------------------------------------

    def _spawn(self) -> None:
        """Start a server; one set-up sample = spawn to first init reply."""
        self.server = ServerProcess(self.repo, self.root, self.shards).start()
        probe = self.server.client()
        try:
            name = f"probe{len(self.setup)}"
            reply = probe.request(f"{name} init {self.probe_path}")
            self.setup.append(time.perf_counter() - self.server.spawned_at)
            self.gate.check(reply == f"created {name}",
                            f"set-up init: {reply[:200]}")
            # every shard answers before anything is timed
            self.gate.check(not probe.request("_ stats").startswith(
                ERROR_PREFIX), "_ stats")
        finally:
            probe.close()

    def _kill(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None

    # -- measured phase ----------------------------------------------------------

    def _drive(self, conn: List[Session], deadline: float,
               samples: Samples, disk_marks: List[int]) -> None:
        """One user, up to its ``measured_writes``-th write; the first
        user also reads the disk footprint at ``disk_marks``."""
        client = self.server.client()
        left = self.workload.measured_writes
        try:
            for session in conn:
                if left <= 0 or time.perf_counter() >= deadline:
                    return
                reply = client.request(
                    f"{session.name} init {self.paths[session.script.program]}")
                samples.requests += 1
                samples.last_reply = time.perf_counter()
                self.gate.check(reply == f"created {session.name}",
                                f"{session.name} init: {reply[:200]}")
                with self.gate.lock:
                    self.started.append(session)
                for step in session.script.steps:
                    if left <= 0 or time.perf_counter() >= deadline:
                        return
                    t0 = time.perf_counter()
                    reply = client.request(step.line(session.name))
                    t1 = time.perf_counter()
                    samples.requests += 1
                    samples.last_reply = t1
                    session.done += 1
                    self.gate.step(session.name, step, reply)
                    if not step.is_write:
                        samples.reads.append(t1 - t0)
                        continue
                    samples.writes.append(t1 - t0)
                    left -= 1
                    if disk_marks and self._acked() >= disk_marks[0]:
                        disk_marks.pop(0)
                        self._sample_disk()
        finally:
            client.close()

    def _measure(self) -> Tuple[List[Samples], float, float]:
        conns = self.workload.connections
        self.samples = [Samples() for _ in conns]
        planned = self.workload.measured_writes * len(conns)
        disk_marks = [planned * k // DISK_SAMPLES
                      for k in range(1, DISK_SAMPLES + 1)]
        start = time.perf_counter()
        deadline = start + TIME_CAP * self.seconds
        threads = [threading.Thread(
            target=self._drive,
            args=(conns[i], deadline, self.samples[i], []))
            for i in range(1, len(conns))]
        for t in threads:
            t.start()
        try:
            self._drive(conns[0], deadline, self.samples[0], disk_marks)
        finally:
            for t in threads:
                t.join()
        end = max(s.last_reply for s in self.samples)
        for _mark in disk_marks:  # marks the first user did not reach
            self._sample_disk()
        return self.samples, start, end

    def _acked(self) -> int:
        return sum(len(s.writes) for s in self.samples)

    def _sample_disk(self) -> None:
        """Bytes on disk per acknowledged write, read at each tenth of the
        planned writes: snapshots are cut and pruned in cycles, so one
        reading at the end would depend on where in the cycle it fell."""
        self.disk.append(self._disk_bytes() / max(1, self._acked()))

    def _tail(self, client) -> None:
        """Kill every single-user workload at the same journal tail:
        snapshot, then ``kill_tail`` more scripted writes."""
        for session in self.started:
            reply = client.request(f"{session.name} snapshot")
            self.gate.check(not reply.startswith(ERROR_PREFIX),
                            f"{session.name} snapshot: {reply[:200]}")
            left = self.workload.kill_tail
            steps = session.script.steps
            while left and session.done < len(steps):
                step = steps[session.done]
                reply = client.request(step.line(session.name))
                session.done += 1
                self.gate.step(session.name, step, reply)
                left -= step.is_write

    # -- checks --------------------------------------------------------------------

    def _expect_state(self, client, session: Session, source_reply: str,
                      when: str) -> None:
        script = session.script
        nwrites = script.writes_in(session.done)
        self.gate.check(source_reply == script.source_after(nwrites),
                        f"{session.name} source {when}")
        log = client.request(f"{session.name} log")
        want = "\n".join(script.log[:nwrites]) or "(empty log)"
        self.gate.check(log == want, f"{session.name} log {when}: "
                        f"{len(log.splitlines())} lines, want {nwrites}")

    def _undo_all(self, client, session: Session) -> None:
        """Undo every active transformation; only the user's deletions
        may remain."""
        script = session.script
        nwrites = script.writes_in(session.done)
        original = parse_program(script.program)
        final = parse_program(script.source_after(nwrites) + "\n")
        self.gate.check(traces_equivalent(original, final),
                        f"{session.name}: output trace changed")
        active = active_stamps(script.log[:nwrites])
        while active:
            reply = client.request(f"{session.name} undo {active[0]}")
            if not self.gate.check(reply.startswith("undone: "),
                                   f"{session.name} undo-all: {reply[:200]}"):
                return
            undone = set(json.loads(reply[len("undone: "):]))
            active = [s for s in active if s not in undone]
        source = client.request(f"{session.name} source")
        self.gate.check(source == expected_undo_all(script, nwrites),
                        f"{session.name}: undo-all left the wrong text")

    def _disk_bytes(self) -> int:
        total = 0
        with self.gate.lock:
            names = {s.name for s in self.started}
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if name not in names:
                    continue
                for dirpath, _dirs, files in os.walk(
                        os.path.join(shard_dir, name)):
                    for f in files:
                        try:
                            total += os.path.getsize(os.path.join(dirpath, f))
                        except FileNotFoundError:
                            pass  # a snapshot's temp file, renamed away
        return total

    def _peak_rss(self, client) -> int:
        pids = [self.server.proc.pid]
        status = json.loads(client.request("_ shards"))
        pids += [w["pid"] for w in status["workers"] if w["pid"]]
        return max(vm_hwm_kb(pid) for pid in pids)

    # -- the whole run ---------------------------------------------------------------

    def run(self) -> Dict[str, object]:
        try:
            self._spawn()
            samples, start, end = self._measure()
            client = self.server.client()
            try:
                if self.workload.kill_tail is not None:
                    self._tail(client)
                for session in self.started:
                    source = client.request(f"{session.name} source")
                    self._expect_state(client, session, source, "at the end")
                self.rss_kb = self._peak_rss(client)
            finally:
                client.close()
            for _round in range(RESTARTS):
                self._kill()
                self._spawn()
                client = self.server.client()
                try:
                    for session in self.started:
                        t0 = time.perf_counter()
                        source = client.request(f"{session.name} source")
                        self.reopen.append(time.perf_counter() - t0)
                        self._expect_state(client, session, source,
                                           "after SIGKILL")
                finally:
                    client.close()
            client = self.server.client()
            try:
                for session in self.started:
                    self._undo_all(client, session)
            finally:
                client.close()
        finally:
            self._kill()
        return self._metrics(samples, start, end)

    def _metrics(self, samples: List[Samples], start: float, end: float
                 ) -> Dict[str, object]:
        writes = [x * 1e3 for s in samples for x in s.writes]
        reads = [x * 1e3 for s in samples for x in s.reads]
        requests = sum(s.requests for s in samples)
        acked = sum(s.script.writes_in(s.done) for s in self.started)
        tail_pct, tail = tail_percentile(writes)
        self.report = {"writes": len(writes), "reads": len(reads),
                       "requests": requests, "tail_pct": tail_pct,
                       "sessions": len(self.started),
                       "acked_writes": acked,
                       "reopen_samples": len(self.reopen),
                       "setup_samples": [round(x, 4) for x in self.setup]}
        return {
            "setup_s": (statistics.median(self.setup), "s"),
            "write_p50_ms": (statistics.median(writes), "ms"),
            "write_tail_ms": (tail, "ms"),
            "read_p50_ms": (statistics.median(reads), "ms"),
            "cmds_per_s": (requests / (end - start), "1/s"),
            "reopen_ms": (statistics.median(self.reopen) * 1e3, "ms"),
            "disk_bytes_per_cmd": (statistics.median(self.disk), "B"),
            "peak_rss_mb": (self.rss_kb / 1024.0, "MB"),
        }
