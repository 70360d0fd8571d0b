"""Driving the program under test from outside: processes and HTTP.

Every process this module starts is reaped with ``os.wait4``, which also
yields its peak resident set size.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

#: Thread-count variables pinned to 1 in the driver and in every child.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Seconds a child may take to become ready or to exit before it is killed.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0


def program_env(root: str) -> dict:
    """Environment of every child: sources from ``root/src``, one BLAS thread."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = os.path.join(root, "src")
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def _reap(pid: int) -> tuple[int, float]:
    """Wait for ``pid``; returns ``(exit code, peak RSS in MiB)``."""
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


@dataclass
class ChildRun:
    """One finished child: exit code, wall time, stdout and peak RSS."""

    returncode: int
    wall: float
    stdout: str
    rss_mb: float


def run_child(argv: list[str], env: dict, cwd: str, timeout: float = START_TIMEOUT) -> ChildRun:
    """Run ``argv`` to completion, timed from spawn to exit."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=cwd
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        code, rss = _reap(proc.pid)
        wall = time.perf_counter() - started
    finally:
        killer.cancel()
    proc.returncode = code
    return ChildRun(code, wall, out.decode("utf-8", "replace"), rss)


class Program:
    """A long-running child (server or worker) whose output goes to a log file."""

    def __init__(
        self, argv: list[str], env: dict, cwd: str, log_path: str, stop_signal: int
    ) -> None:
        self.log_path = log_path
        self.stop_signal = stop_signal
        self.started = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=cwd
            )
        self.rss_mb = 0.0
        self.returncode: Optional[int] = None

    def wait_for_line(self, needle: str, timeout: float = START_TIMEOUT) -> str:
        """The first log line containing ``needle`` (polls the log file)."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self.log_path, encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    if needle in line:
                        return line
            if self.proc.poll() is not None:
                raise RuntimeError(f"{self.proc.args[3]} exited before printing {needle!r}")
            time.sleep(0.002)
        raise TimeoutError(f"no {needle!r} within {timeout}s")

    def stop(self, sig: Optional[int] = None) -> float:
        """Signal the child, wait for it (kill after a timeout) and reap it.

        Returns its peak RSS in MiB (0 if it had already been reaped).
        """
        if self.returncode is not None:
            return self.rss_mb
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(self.stop_signal if sig is None else sig)
            except ProcessLookupError:
                pass
            killer = threading.Timer(STOP_TIMEOUT, self.proc.kill)
            killer.start()
            try:
                self.returncode, self.rss_mb = _reap(self.proc.pid)
            finally:
                killer.cancel()
        else:
            # Popen.poll already reaped it; no rusage left to read.
            self.returncode = self.proc.returncode
        self.proc.returncode = self.returncode
        return self.rss_mb


def spawn_server(root: str, env: dict, workdir: str, store: str, spool: str, tag: str) -> tuple:
    """Start `repro serve` on an ephemeral port; returns ``(program, port)``."""
    program = Program(
        repro_argv("serve", "--spool", spool, "--results-dir", store, "--port", "0"),
        env, root, os.path.join(workdir, f"serve-{tag}.log"), signal.SIGINT,
    )
    try:
        line = program.wait_for_line("listening on http://")
        port = int(line.strip().rsplit(":", 1)[1])
        wait_healthy(port)
    except BaseException:
        program.stop(signal.SIGKILL)
        raise
    return program, port


def spawn_worker(root: str, env: dict, workdir: str, spool: str, tag: str) -> Program:
    """Start `repro worker` polling the spool every 20 ms."""
    return Program(
        repro_argv("worker", "--spool", spool, "--poll", "0.02"),
        env, root, os.path.join(workdir, f"worker-{tag}.log"), signal.SIGTERM,
    )


def wait_healthy(port: int, timeout: float = START_TIMEOUT) -> None:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                return
        except OSError:
            pass
        finally:
            conn.close()
        time.sleep(0.002)
    raise TimeoutError(f"/healthz on port {port} not ready within {timeout}s")


@dataclass
class Exchange:
    """One HTTP request/response as the client saw it."""

    status: int
    headers: dict
    body: bytes
    started: float
    headers_at: float
    ended: float


class Client:
    """One keep-alive HTTP connection, reopened only after an error."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.port = port
        self.timeout = timeout
        self.conn: Optional[http.client.HTTPConnection] = None

    def exchange(self, method: str, path: str, body: Optional[dict] = None) -> Exchange:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout)
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        started = time.perf_counter()
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            headers_at = time.perf_counter()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return Exchange(
            response.status, dict(response.getheaders()), data,
            started, headers_at, time.perf_counter(),
        )

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
