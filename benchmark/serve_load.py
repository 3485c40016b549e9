"""Drives a `hotnoc serve` daemon: start, closed-loop clients, restart, drain.

The load comes from this one process: one thread per client, each opening
a fresh unix-socket connection per request (as `hotnoc submit` does) and
sending its next request only after the previous reply arrived.
"""

import os
import re
import socket
import subprocess
import threading
import time

DRAIN_RE = re.compile(r"drained after (\d+) submissions \((\d+) computed, (\d+) cache hits\)")
IO_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 30.0


def round_trip(sock_path, line):
    """Sends one request line on a fresh connection and reads one reply
    line. Returns (t_start, t_connected, t_done, reply bytes)."""
    t0 = time.perf_counter()
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.settimeout(IO_TIMEOUT_S)
        s.connect(sock_path)
        t1 = time.perf_counter()
        s.sendall(line)
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
        t2 = time.perf_counter()
    finally:
        s.close()
    return t0, t1, t2, buf


class Daemon:
    """One `hotnoc serve` process listening on `sock` (a path relative to
    the working directory, which keeps it under the unix-socket length
    limit)."""

    def __init__(self, hotnoc, sock, journal, spool, log, env):
        if os.path.exists(sock):
            os.remove(sock)
        self.sock = sock
        self.log_path = log
        self._log = open(log, "w")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [hotnoc, "serve", "--socket", sock, "--journal", journal, "--threads", "2",
             "--spool", spool],
            stdout=subprocess.DEVNULL, stderr=self._log, env=env,
        )

    def wait_ready(self):
        """Polls until the daemon answers a ping; returns seconds from
        spawn to the pong."""
        deadline = self.t_spawn + READY_TIMEOUT_S
        while True:
            try:
                _, _, t_done, reply = round_trip(self.sock, b'{"op": "ping"}\n')
                if b'"pong": true' not in reply:
                    raise RuntimeError(f"unexpected ping reply {reply!r}")
                return t_done - self.t_spawn
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("daemon did not come up") from None
                time.sleep(0.0005)

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def shutdown(self):
        """Drains the daemon; returns (requests, computed, cache hits) from
        its drain summary."""
        try:
            round_trip(self.sock, b'{"op": "shutdown"}\n')
            self.proc.wait(timeout=IO_TIMEOUT_S)
        finally:
            self.kill()
        with open(self.log_path) as f:
            m = DRAIN_RE.search(f.read())
        if self.proc.returncode != 0 or m is None:
            raise RuntimeError(f"daemon exited {self.proc.returncode} without a drain summary")
        return tuple(int(g) for g in m.groups())

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


def closed_loop(sock, lines, streams):
    """Runs one client thread per stream. streams[c] is a list of
    (spec index, is repeat); lines[i] is spec i's request line. Returns,
    per client, a list of (spec index, is repeat, t0, t1, t2, reply)."""
    results = [[] for _ in streams]
    errors = []

    def client(c):
        try:
            for i, repeat in streams[c]:
                results[c].append((i, repeat) + round_trip(sock, lines[i]))
        except Exception as e:  # reported by the caller, after every join
            errors.append(e)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(len(streams))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results
