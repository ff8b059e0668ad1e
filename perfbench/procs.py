"""Child processes of a run: start, wait for readiness, read /proc, stop.

The server and the proxy under test run through the ``tracemock`` command
line, from the checkout's ``src``.  Their standard error goes to a log file
in the run directory; the benchmark reads their bound address and their
per-exchange lines from it.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env(root: Path, cache: Path) -> dict[str, str]:
    """Environment for every child: the checkout's package and kernel cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["XDG_CACHE_HOME"] = str(cache)
    return env


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB of 2**20 bytes."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Child:
    """One child process with its output captured to a log file."""

    def __init__(self, argv: list[str], env: dict[str, str], log: Path,
                 stdin=subprocess.DEVNULL):
        self.log = log
        with open(log, "wb") as fh:
            self.proc = subprocess.Popen(argv, env=env, stdin=stdin,
                                         stdout=fh, stderr=subprocess.STDOUT)

    @classmethod
    def tracemock(cls, args: list[str], env, log: Path) -> "Child":
        return cls([sys.executable, "-m", "tracemock.cli", *args], env, log)

    def wait_for(self, pattern: str) -> re.Match:
        """Block until a line of the log matches ``pattern``."""
        regex = re.compile(pattern)
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            match = regex.search(self.log.read_text(errors="replace"))
            if match:
                return match
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.kill()
        raise RuntimeError(f"{self.log.name}: no line matching {pattern!r}:\n"
                           + self.log.read_text(errors="replace")[-2000:])

    def cpu_s(self) -> float:
        """User plus system CPU time used so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self, sig=signal.SIGINT) -> float:
        """Send ``sig`` and wait for the exit; returns the seconds it took."""
        started = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError(f"{self.log.name}: no exit after {sig!r}")
        return time.perf_counter() - started

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
