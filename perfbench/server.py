"""One ``python -m repro serve`` subprocess: spawn, address, memory, stop."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

_ADDRESS = re.compile(r"on http://([^:/\s]+):(\d+)")


class ServerError(RuntimeError):
    """The server did not start, or exited while the benchmark needed it."""


class ServeProcess:
    """A ``repro serve`` process tree started from the checkout's ``src``.

    ``stdout`` is read only until the start-up line that names the bound
    address; ``stderr`` goes to ``log_path`` so a failed start can be
    reported with the server's own words.
    """

    def __init__(
        self,
        src: Path,
        args: List[str],
        log_path: Path,
        trace_dir: Optional[Path] = None,
    ) -> None:
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        env.pop("PERFBENCH_TRACE_DIR", None)
        if trace_dir is not None:
            hook = Path(__file__).resolve().parent / "tracehook"
            env["PYTHONPATH"] = f"{hook}{os.pathsep}{src}"
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.started_at = time.monotonic()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
                stdout=subprocess.PIPE,
                stderr=self._log,
                env=env,
            )
        except OSError:
            self._log.close()
            raise
        self.address: Optional[Tuple[str, int]] = None

    def wait_address(self, timeout: float = 120.0) -> Tuple[str, int]:
        """Block until the server prints its address; raise if it dies first."""
        deadline = time.monotonic() + timeout
        buffered = b""
        while self.address is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerError(f"server printed no address in {timeout:.0f}s")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                self.proc.wait(timeout=10)
                raise ServerError(
                    f"server exited with status {self.proc.returncode} before "
                    f"serving:\n{self.log_tail()}"
                )
            buffered += chunk
            match = _ADDRESS.search(buffered.decode("utf-8", "replace"))
            if match:
                self.address = (match.group(1), int(match.group(2)))
        return self.address

    def log_tail(self, limit: int = 3000) -> str:
        self._log.flush()
        return self.log_path.read_bytes()[-limit:].decode("utf-8", "replace")

    def descendants(self) -> List[int]:
        """Pids of the process tree (the server and every process below it)."""
        parents = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    stat = handle.read()
            except OSError:
                continue
            # Field 4 (ppid) follows the parenthesised command name.
            parents[int(entry)] = int(stat[stat.rindex(b")") + 2 :].split()[1])
        tree = [self.proc.pid]
        for pid in tree:
            tree.extend(child for child, parent in parents.items() if parent == pid)
        return tree

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) summed over the process tree, in MB."""
        total_kb = 0
        for pid in self.descendants():
            try:
                with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self, timeout: float = 30.0) -> int:
        """SIGINT (the server's clean shutdown), then reap the whole tree.

        Returns the server's exit status.  Processes still alive after the
        timeout are killed, and the call returns only once each has ended.
        """
        tree = self.descendants() if self.proc.poll() is None else [self.proc.pid]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=timeout)
        deadline = time.monotonic() + timeout
        for pid in tree[1:]:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                time.sleep(0.02)
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def _alive(pid: int) -> bool:
    """Is ``pid`` still a running (not zombie) process?"""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2 :].split()[0] != b"Z"
