"""Launch, time and stop the server under test in its own process.

The untraced server is the real command line, ``repro serve ...``; the
traced one is ``perfbench/traced_serve.py`` with the same arguments.
Both print a ``serving http://host:port`` banner line; set-up time runs
from the launch to the first 200 from ``/healthz``.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REPRO_MAIN = "import sys; from repro.cli import repro_main; sys.exit(repro_main(sys.argv[1:]))"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    # One thread per BLAS call: the server and the generator share the
    # machine's cores and must not oversubscribe them.
    env.setdefault("OMP_NUM_THREADS", "1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


def serve_command(args: Sequence[str], traced_spans: Optional[Path] = None) -> List[str]:
    """The argv launching the server: the CLI, or the traced harness."""
    if traced_spans is None:
        return [sys.executable, "-c", REPRO_MAIN, "serve", *args]
    return [
        sys.executable, str(ROOT / "perfbench" / "traced_serve.py"),
        "--spans", str(traced_spans), *args,
    ]


class Server:
    """One running server process."""

    def __init__(self, argv: Sequence[str], cwd: Path, timeout_s: float = 60.0):
        self.argv = list(argv)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=str(cwd), env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.banner: List[str] = []
        self.port = self._read_port()
        self._wait_healthy(t0 + timeout_s)
        self.setup_s = time.perf_counter() - t0

    def _read_port(self) -> int:
        # The banner is the first line the server prints once bound; a
        # server that fails to start exits, which ends the read.
        assert self.proc.stdout is not None
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                raise RuntimeError("server exited before serving:\n" + "".join(self.banner))
            self.banner.append(line)
            if line.startswith("serving http://"):
                return int(line.split()[1].rsplit(":", 1)[1])

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5.0)
            try:
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                if resp.status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("server never answered /healthz with 200")

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process, in MB (0 where /proc is absent)."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, timeout_s: float = 30.0) -> str:
        """SIGTERM (the server drains), wait, and return its output."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return "".join(self.banner) + (out or "")


def launch_timed(argv: Sequence[str], cwd: Path, launches: int) -> Tuple[Server, List[float]]:
    """Launch ``launches`` times; keep the last server running.

    Returns the running server and every launch's set-up time.  The
    earlier servers are stopped before the next launch, so launches
    never overlap.
    """
    times: List[float] = []
    server: Optional[Server] = None
    for i in range(launches):
        server = Server(argv, cwd)
        times.append(server.setup_s)
        if i < launches - 1:
            server.stop()
    assert server is not None
    return server, times
