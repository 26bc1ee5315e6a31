"""Shared plumbing for the benchmark workloads.

- summary statistics (median, interpolated percentiles) and small
  input/result helpers;
- :class:`Daemon`: a ``repro serve`` subprocess, started, pinged and
  drained with SIGTERM;
- :class:`ServiceClient`: one persistent pickle-channel connection that
  counts the bytes it moves;
- peak-RSS readers and the fresh-interpreter set-up probe runner.
"""

from __future__ import annotations

import ctypes
import math
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: start-up probes per run; ``setup_s`` is their median
SETUP_REPEATS = 3


class CheckFailed(AssertionError):
    """A correctness check on the program's output did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: ``src`` importable, nothing else."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile, interpolated between order statistics; ``inf`` entries
    (failed requests) sort last, so they can only raise it."""
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == math.inf:
        return math.inf
    return float(ordered[low] + (position - low) * (ordered[high] - ordered[low]))


# --------------------------------------------------------------------------
# memory
# --------------------------------------------------------------------------


def sorted_uniform(rng: random.Random, lo: float, hi: float, n: int) -> List[float]:
    """*n* seeded draws from U(lo, hi), ascending (a grid axis)."""
    return sorted(rng.uniform(lo, hi) for _ in range(n))


def table(result: Any) -> "np.ndarray":
    """A sweep result's rows as an array, columns in metric order."""
    import numpy as np

    return np.array([[row[m] for m in result.metric_names] for row in result.values])


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of *pid* (default: this process), MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# --------------------------------------------------------------------------
# fresh-interpreter set-up probes
# --------------------------------------------------------------------------


def probe_setup_s(workload: str) -> float:
    """Wall time from spawning ``probe.py WORKLOAD`` to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        check(line.strip() == "ready", f"setup probe said {line!r}")
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    check(proc.returncode == 0, f"setup probe exited {proc.returncode}")
    return elapsed


def probe_setup_median(workload: str) -> float:
    """``setup_s``: the median of :data:`SETUP_REPEATS` set-up probes."""
    return median([probe_setup_s(workload) for _ in range(SETUP_REPEATS)])


def import_profile() -> Dict[str, float]:
    """``import.*`` metrics from ``python -X importtime`` in a fresh
    interpreter, plus the bare interpreter start."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, env=child_env())
    interpreter_s = time.perf_counter() - t0
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.experiments.cli"],
        check=True,
        env=child_env(),
        cwd=ROOT,
        stderr=subprocess.PIPE,
        text=True,
    )
    total_us = 0
    scipy_stats_us = 0
    ancestors: List[str] = []  # names on the path from the top level
    # importtime prints each module after its children: walk it backwards
    # so a module's parents come first
    for line in reversed(proc.stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        del ancestors[depth:]
        if depth == 0:
            total_us += int(cumulative)
        # `from scipy import stats` logs the package's submodules only
        if name.startswith("scipy.stats") and not any(
            a.startswith("scipy.stats") for a in ancestors
        ):
            scipy_stats_us += int(cumulative)
        ancestors.append(name)
    return {
        "import.interpreter_s": interpreter_s,
        "import.total_s": total_us / 1e6,
        "import.scipy_stats_s": scipy_stats_us / 1e6,
    }


# --------------------------------------------------------------------------
# the service daemon
# --------------------------------------------------------------------------


class ServiceClient:
    """One keep-alive connection to the daemon's pickle channel."""

    def __init__(self, address: Sequence[Any], timeout: float = 120.0):
        from repro.sweep.distributed.protocol import PROTOCOL_VERSION
        from repro.sweep.service.session import recv_frame, send_frame

        self._version = PROTOCOL_VERSION
        self._send, self._recv = send_frame, recv_frame
        self._sock = socket.create_connection(tuple(address), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.bytes_sent = 0
        self.bytes_received = 0

    def request(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        message = {"kind": "request", "version": self._version, **payload}
        self._send(self, message)
        return self._recv(self)

    # the frame helpers only call sendall/recv: count bytes as they pass
    def sendall(self, data: bytes) -> None:
        self.bytes_sent += len(data)
        self._sock.sendall(data)

    def recv(self, n: int) -> bytes:
        data = self._sock.recv(n)
        self.bytes_received += len(data)
        return data

    def close(self) -> None:
        self._sock.close()


def _drain_when_orphaned() -> None:
    """In the forked child: ask the kernel for SIGTERM (a drain) when the
    benchmark process dies, even by SIGKILL."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class Daemon:
    """``python -m repro serve`` in its own process group."""

    def __init__(self, args: Sequence[str], log_path: Path):
        self.args = list(args)
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[tuple] = None

    def start(self, workers: int = 0, timeout: float = 60.0) -> float:
        """Spawn and wait until ping answers with *workers* connected;
        returns the seconds that took."""
        t0 = time.perf_counter()
        with open(self.log_path, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *self.args],
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
                start_new_session=True,
                preexec_fn=_drain_when_orphaned,
            )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise CheckFailed(f"daemon did not start: {line!r}")
        hostport = line.split("listening on", 1)[1].split()[0]
        host, port = hostport.rsplit(":", 1)
        self.address = (host, int(port))
        client = ServiceClient(self.address)
        try:
            while True:
                check(client.request({"op": "ping"}).get("ok") is True, "ping failed")
                if workers == 0:
                    break
                stats = client.request({"op": "stats"})["stats"]
                if stats["workers"]["connected"] >= workers:
                    break
                check(time.perf_counter() - t0 < timeout, "workers never connected")
                time.sleep(0.005)
        finally:
            client.close()
        return time.perf_counter() - t0

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM drain; SIGKILL the whole group if it does not finish."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)
        try:  # forked service workers share the group; never leave one behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stdout.close()


def start_daemon_median(
    args: Sequence[str], log_path: Path, workers: int = 0
) -> "tuple[Daemon, float]":
    """Start the daemon :data:`SETUP_REPEATS` times; keep the last one.

    Returns it with the median start-up time (``setup_s``).
    """
    times: List[float] = []
    daemon: Optional[Daemon] = None
    for i in range(SETUP_REPEATS):
        daemon = Daemon(args, log_path)
        try:
            times.append(daemon.start(workers=workers))
        except BaseException:
            daemon.stop()
            raise
        if i < SETUP_REPEATS - 1:
            daemon.stop()
    assert daemon is not None
    return daemon, median(times)
