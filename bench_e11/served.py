"""The served path: a real ``python -m repro serve`` over TCP.

:class:`ServerProcess` owns one server subprocess in its own session and
process group; :meth:`ServerProcess.kill` SIGKILLs the whole group (router,
shard workers, multiprocessing's resource tracker) and waits until every
member has ended.  The benchmark process makes itself a child subreaper so
the orphaned workers are reparented to it and can be reaped, instead of
lingering as zombies under an init that may never collect them.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from typing import List, Optional, Tuple

from repro.service.netserver import LineClient

#: ``prctl(PR_SET_CHILD_SUBREAPER, 1)``.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux); False where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _group_members(pgid: int) -> List[Tuple[int, str]]:
    """(pid, state) of every process in group ``pgid``, from /proc."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[2]) == pgid:
            out.append((int(entry), fields[0]))
    return out


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """``python -m repro serve ROOT --port 0 --shards N`` in its own group."""

    def __init__(self, repo: str, root: str, shards: int):
        self.repo = repo
        self.root = root
        self.shards = shards
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.spawned_at = 0.0

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.repo, "src")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.root,
             "--port", "0", "--shards", str(self.shards)],
            cwd=self.repo, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True)
        for line in self.proc.stdout:
            if line.startswith("listening on"):
                self.port = int(line.rsplit(":", 1)[1])
                return self
        self.kill()
        raise RuntimeError("server exited before listening")

    def client(self) -> LineClient:
        return LineClient("127.0.0.1", self.port)

    def kill(self) -> None:
        """SIGKILL the whole group and wait until every member is gone."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            live = [pid for pid, state in _group_members(pgid)
                    if state != "Z"]
            try:  # reap members reparented to this subreaper
                while os.waitpid(-pgid, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            if not live:
                return  # any zombie left belongs to another reaper
            time.sleep(0.01)
        raise RuntimeError(f"process group {pgid} survived SIGKILL")
