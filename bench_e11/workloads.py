"""Seeded E11 workloads, replayed on a bare engine before anything is served.

A workload is a list of connections; a connection is a list of sessions it
drives in order; a session is a name plus a :class:`Script`.  Every script
is produced by running its commands on a bare
:class:`~repro.core.engine.TransformationEngine` first, so each step knows
the reply it must get back whenever that reply depends on program state
alone (write replies, ``opps``, ``source``).  Replies that embed timings,
paths or request ids (``explain``, ``snapshot``) carry no expectation and
are only checked for not being errors.

The generator refuses any script in which a command fails on the
reference engine, and tries the next derived seed instead, so a served
failure is always the server's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.commands import EditCommand, parse_verb
from repro.core.engine import TransformationEngine
from repro.lang.parser import parse_program
from repro.lang.printer import format_program
from repro.transforms.registry import TABLE4_ORDER
from repro.workloads.generator import GeneratorConfig, generate_program

#: E8's three-statement program: ``apply ctp`` / ``undo`` exercise the
#: whole write path while analysis stays trivial.
SMALL_SRC = "c = 1\nx = c + 2\nwrite x\n"

#: verbs that change program state (journaled, latency counted as a write).
WRITE_VERBS = ("apply", "undo", "edit-del")

#: derived seeds tried before a seed is given up on.
MAX_ATTEMPTS = 8

#: writes per second of ``--seconds``, per user: each workload runs a
#: fixed script, sized so that its measured phase lasts one to two times
#: ``--seconds`` on a 2-core host, and a faster service finishes sooner.
#: A fixed write count also puts the kill at the same point of the
#: snapshot cycle for every seed.
CHURN_WRITES_PER_S = 380
AGING_WRITES_PER_S = 270
LARGE_WRITES_PER_S = 64

#: scripted writes between the manual snapshot and the kill (aging).
KILL_TAIL = 8


def wire(text: str) -> str:
    """``text`` as a reply carries it: the protocol frames replies line
    by line, so a trailing newline does not survive."""
    return "\n".join(text.splitlines())


class GenerationError(RuntimeError):
    """A generated command failed on the reference engine."""


@dataclass
class Step:
    """One request of a session, with the reply it must get back."""

    verb: str
    args: str = ""
    #: exact expected reply; ``None`` checks only that it is not an error.
    expect: Optional[str] = None

    @property
    def is_write(self) -> bool:
        return self.verb in WRITE_VERBS

    @property
    def op(self) -> str:
        """The request kind: ``apply <name>``, ``opps <name>``, ``undo``,
        ``source``, ..."""
        if self.verb in ("apply", "opps") and self.args:
            return f"{self.verb} {self.args.split()[0]}"
        return self.verb

    def line(self, session: str) -> str:
        return f"{session} {self.verb} {self.args}".rstrip()


@dataclass
class Script:
    """One session's requests plus the reference state after each write."""

    program: str
    steps: List[Step] = field(default_factory=list)
    #: program text after the i-th write.
    sources: List[str] = field(default_factory=list)
    #: ``log`` line (sorted-key JSON of the encoded command) of write i.
    log: List[str] = field(default_factory=list)
    #: (write index, sid) of every ``edit-del``.
    deletes: List[Tuple[int, int]] = field(default_factory=list)

    def writes_in(self, nsteps: int) -> int:
        """Writes among the first ``nsteps`` steps."""
        return sum(1 for s in self.steps[:nsteps] if s.is_write)

    def steps_for(self, nwrites: int) -> int:
        """Steps up to and including the ``nwrites``-th write."""
        if nwrites <= 0:
            return 0
        seen = 0
        for i, step in enumerate(self.steps):
            seen += step.is_write
            if seen == nwrites:
                return i + 1
        return len(self.steps)

    def source_after(self, nwrites: int) -> str:
        """Program text after ``nwrites`` writes, as ``source`` replies."""
        return wire(self.sources[nwrites - 1] if nwrites else self.program)


@dataclass
class Session:
    name: str
    script: Script
    #: steps acknowledged so far (set by whoever drives the session).
    done: int = 0


@dataclass
class Workload:
    name: str
    connections: List[List[Session]]
    #: writes each user makes in the measured phase.
    measured_writes: int
    #: single-user workloads are killed at a fixed journal tail: a
    #: manual ``snapshot``, then this many more scripted writes.  ``None``
    #: (many short sessions) kills wherever the measured phase ended.
    kill_tail: Optional[int] = None

    def sessions(self) -> List[Session]:
        return [s for conn in self.connections for s in conn]


class Reference:
    """A bare engine that records a script as it executes it."""

    def __init__(self, program: str):
        self.engine = TransformationEngine(parse_program(program))
        self.script = Script(program=program)

    def write(self, verb: str, args: str):
        cmd = parse_verb(verb, args.split())
        try:
            result = self.engine.execute(cmd)
        except Exception as exc:  # any failure rejects the seed
            raise GenerationError(f"{verb} {args}: {exc}") from exc
        if cmd.failed:
            raise GenerationError(f"{verb} {args}: {cmd.describe()}")
        s = self.script
        s.steps.append(Step(verb, args, cmd.describe()))
        s.sources.append(self.engine.source())
        s.log.append(json.dumps(cmd.encode(), sort_keys=True))
        return result

    def opps(self, kind: Optional[str] = None) -> int:
        """Append an ``opps`` read; returns how many ``kind`` offers."""
        names = [kind] if kind else sorted(self.engine.registry)
        found = {k: self.engine.find(k) for k in names}
        reply = "\n".join(f"  {k}[{i}]: {o.description}"
                          for k in names for i, o in enumerate(found[k]))
        self.script.steps.append(
            Step("opps", kind or "", reply or "(no opportunities)"))
        return len(found[kind]) if kind else 0

    def read(self, verb: str, args: str = "",
             expect: Optional[str] = None) -> None:
        self.script.steps.append(Step(verb, args, expect))

    def active(self) -> List[int]:
        """Active transformation stamps (edits excluded), oldest first."""
        return [r.stamp for r in self.engine.history.active()
                if not r.is_edit]

    @property
    def nwrites(self) -> int:
        return len(self.script.log)


# -- small-churn ---------------------------------------------------------------

def _churn_script(pairs: int, every: int) -> Script:
    ref = Reference(SMALL_SRC)
    for i in range(pairs):
        if i % every == every - 1:
            ref.opps()
        rec = ref.write("apply", "ctp 0")
        ref.write("undo", str(rec.stamp))
    return ref.script


def small_churn(seed: int, seconds: float, nconn: int,
                nwrites: Optional[int] = None) -> Workload:
    """``nconn`` users, each on young sessions of the small program."""
    rng = np.random.default_rng([seed, 1])
    cache: Dict[Tuple[int, int], Script] = {}
    budget = nwrites or int(CHURN_WRITES_PER_S * seconds)
    conns: List[List[Session]] = []
    for c in range(nconn):
        sessions, writes = [], 0
        while writes < budget:
            key = (int(rng.integers(8, 25)), int(rng.integers(2, 5)))
            if key not in cache:
                cache[key] = _churn_script(*key)
            script = cache[key]
            sessions.append(Session(f"churn{c}-{len(sessions):04d}", script))
            writes += len(script.log)
        conns.append(sessions)
    return Workload("small-churn", conns, budget)


# -- aging-session ---------------------------------------------------------------

def _aging_script(rng: np.random.Generator, nwrites: int) -> Script:
    ref = Reference(SMALL_SRC)
    stamps: List[int] = []
    while ref.nwrites < nwrites:
        shape = int(rng.integers(0, 4))
        first = ref.write("apply", "ctp 0").stamp
        stamps.append(first)
        if shape == 0:
            ref.write("undo", str(first))
            continue
        second = ref.write("apply", "cfo 0").stamp
        stamps.append(second)
        if shape == 1:
            ref.write("undo", str(first))  # cascades through cfo
        elif shape == 2:
            ref.write("undo", str(second))
            ref.write("undo", str(first))
        else:
            ref.opps()
            ref.write("undo", str(first))
        if rng.random() < 0.25:
            # reads the whole audit log: grows with session age
            pick = stamps[int(rng.integers(0, len(stamps)))]
            ref.read("explain", str(pick))
    return ref.script


def aging_session(seed: int, seconds: float, nwrites: Optional[int] = None
                  ) -> Workload:
    """One long session of the small program, thousands of commands."""
    rng = np.random.default_rng([seed, 2])
    nwrites = nwrites or int(AGING_WRITES_PER_S * seconds)
    # the kill tail runs past the measured writes
    script = _aging_script(rng, nwrites + KILL_TAIL)
    return Workload("aging-session", [[Session("aging", script)]], nwrites,
                    kill_tail=KILL_TAIL)


# -- large-program -------------------------------------------------------------

def large_source(seed: int) -> str:
    """The seeded ~400-statement program the large workload edits."""
    return format_program(generate_program(seed, GeneratorConfig(blocks=64)))


#: live transformations the large-program user keeps at most; the cap
#: keeps the program's size, and so the per-command cost, stationary.
MAX_ACTIVE = 12

#: writes per large-program session: one snapshot cycle.  How much a
#: session costs follows its own choices (which opportunity, which
#: cascade), so one long session made the seed set the run's speed; many
#: short sessions on different programs average the choices out.
LARGE_SESSION_WRITES = 32


def _large_script(rng: np.random.Generator, program: str,
                  nwrites: int) -> Script:
    ref = Reference(program)
    dead = sorted({o.params["sid"] for o in ref.engine.find("dce")})
    deleted: set = set()
    kind = 0
    while ref.nwrites < nwrites:
        roll = rng.random()
        if roll < 0.15:
            ref.read("source", "", wire(ref.engine.source()))
            continue
        active = ref.active()
        if active and ((ref.nwrites + 1) % 3 == 0
                       or len(active) >= MAX_ACTIVE):
            # independent-order undo of the earliest stamp: cascades
            ref.write("undo", str(active[0]))
            continue
        live = [sid for sid in dead if sid not in deleted
                and ref.engine.program.is_attached(sid)]
        if roll < 0.21 and live:
            sid = live[int(rng.integers(0, len(live)))]
            deleted.add(sid)
            ref.script.deletes.append((ref.nwrites, sid))
            ref.write("edit-del", str(sid))
            continue
        name = TABLE4_ORDER[kind % len(TABLE4_ORDER)]
        kind += 1
        n = ref.opps(name)
        if n:
            ref.write("apply", f"{name} {int(rng.integers(0, n))}")
    return ref.script


def large_program(seed: int, seconds: float, nwrites: Optional[int] = None
                  ) -> Workload:
    """One user working through ~400-statement programs in turn, a
    session of ``LARGE_SESSION_WRITES`` writes on each: analysis-bound."""
    nwrites = nwrites or int(LARGE_WRITES_PER_S * seconds)
    sessions = []
    for i in range(math.ceil(nwrites / LARGE_SESSION_WRITES)):
        rng = np.random.default_rng([seed, 3, i])
        program = large_source(int(rng.integers(1 << 31)))
        n = min(LARGE_SESSION_WRITES, nwrites - i * LARGE_SESSION_WRITES)
        sessions.append(Session(f"large{i:02d}",
                                _large_script(rng, program, n)))
    # no tail: replaying a few large-program commands costs anywhere from
    # 1 to 150 ms each, which would drown the snapshot load being timed
    return Workload("large-program", [sessions], nwrites, kill_tail=0)


# -- entry point ---------------------------------------------------------------

def build(name: str, seed: int, seconds: float, nconn: int,
          nwrites: Optional[int] = None) -> Workload:
    """The workload ``name`` for ``seed``; retries derived seeds whose
    script would contain a command failing on the reference engine."""
    last: Optional[GenerationError] = None
    for attempt in range(MAX_ATTEMPTS):
        sub = seed * MAX_ATTEMPTS + attempt
        try:
            if name == "small-churn":
                return small_churn(sub, seconds, nconn, nwrites)
            if name == "aging-session":
                return aging_session(sub, seconds, nwrites)
            if name == "large-program":
                return large_program(sub, seconds, nwrites)
        except GenerationError as exc:
            last = exc
            continue
        raise ValueError(f"unknown workload {name!r}")
    raise GenerationError(f"no clean script for seed {seed}: {last}")


def expected_undo_all(script: Script, nwrites: int) -> str:
    """Original text minus the statements ``edit-del`` removed in the
    first ``nwrites`` writes: what undoing every active transformation
    must leave behind."""
    engine = TransformationEngine(parse_program(script.program))
    for index, sid in script.deletes:
        if index < nwrites:
            engine.execute(EditCommand(kind="delete", sid=sid))
    return wire(engine.source())


def active_stamps(log_lines: List[str]) -> List[int]:
    """Active transformation stamps implied by a session's ``log``."""
    active = set()
    for line in log_lines:
        cmd = json.loads(line)
        if cmd["op"] == "apply":
            active.add(cmd["stamp"])
        elif cmd["op"] in ("undo", "undo_lifo"):
            active.difference_update(cmd["undone"])
    return sorted(active)
