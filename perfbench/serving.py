"""Lifecycle of the ``repro serve`` subprocess the serve-http workload loads.

A server must never outlive the benchmark: a crashed client once left an
orphaned server holding its output pipe, and the run hung.  So
:class:`ServerProcess`

* sends the server's stdout to ``/dev/null`` and drains its stderr on a
  thread, so no pipe can fill up or be held open by an orphan;
* waits, with a time limit, for the announced port and then for
  ``/healthz``;
* stops it with ``POST /shutdown`` and kills it in a ``finally`` if it
  has not exited within a time limit.
"""

from __future__ import annotations

import os
import queue
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.service.client import CompileClient, ServiceError

_BANNER = re.compile(r"serving on (\S+):(\d+)")
#: Limits on the banner plus ``/healthz`` wait, and on a graceful stop.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
#: Worker threads of the server (``repro serve --jobs``).
JOBS = 2


class ServerError(RuntimeError):
    """The server did not come up, or died."""


class ServerProcess:
    """``python -m repro serve --port 0 --jobs 2`` run as a context."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.port: int | None = None
        self._proc: subprocess.Popen | None = None
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._tail: list[str] = []
        self._reader: threading.Thread | None = None

    @property
    def pid(self) -> int:
        return self._proc.pid

    def _drain(self) -> None:
        for line in self._proc.stderr:
            self._tail = (self._tail + [line.rstrip()])[-20:]
            self._lines.put(line)
        self._lines.put(None)

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--jobs", str(JOBS)],
            cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.port is None:
            remaining = deadline - time.monotonic()
            try:
                line = self._lines.get(timeout=max(0.01, remaining))
            except queue.Empty:
                raise ServerError(
                    f"no 'serving on' banner within "
                    f"{START_TIMEOUT_S:g}s") from None
            if line is None:
                raise ServerError(f"server exited during start-up: "
                                  f"{self._tail[-3:]}")
            match = _BANNER.search(line)
            if match:
                self.port = int(match.group(2))
        probe = CompileClient(port=self.port, retries=0, timeout_s=5.0)
        try:
            while True:
                try:
                    if probe.healthz().get("status") == "ok":
                        return self
                except ServiceError:
                    pass
                if time.monotonic() > deadline:
                    raise ServerError(f"/healthz not ok within "
                                      f"{START_TIMEOUT_S:g}s")
                if self._proc.poll() is not None:
                    raise ServerError(f"server exited: {self._tail[-3:]}")
                time.sleep(0.05)
        finally:
            probe.close()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Shut down gracefully, then kill; always waits for the exit."""
        if self._proc is None:
            return
        try:
            if self._proc.poll() is None and self.port is not None:
                client = CompileClient(port=self.port, retries=0,
                                       timeout_s=STOP_TIMEOUT_S)
                try:
                    client.shutdown(drain=True)
                except ServiceError:
                    pass
                finally:
                    client.close()
            self._proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            if self._reader is not None:
                self._reader.join(timeout=5.0)
            self._proc.stderr.close()

    def __enter__(self) -> "ServerProcess":
        try:
            return self.start()
        except BaseException:
            self.stop()
            raise

    def __exit__(self, *exc_info) -> None:
        self.stop()
