"""The benchmark's load generator: keep-alive HTTP/1.1, closed or open loop.

It runs inside the benchmark process, never inside the server's: the
server is always a separate process (``repro serve`` or the traced
harness).  One thread per connection, and at most ``nproc``
connections.

* **Closed loop** — one connection sends its next request only after
  the previous answer arrived.  Latency is timed from the send.
* **Open loop** — requests are due on a seeded schedule, whatever the
  server's state.  Each connection thread takes the next due request
  in schedule order, sleeps until it is due, and sends it.  Latency is
  timed from the *due* time, so a stall also charges every request it
  delayed; the send lag (send time minus due time) is recorded per
  request, and a lag that grows is the backlog the knee rule detects.
"""

from __future__ import annotations

import http.client
import os
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: A request as the generator sends it: (path, body bytes).
Request = Tuple[str, bytes]


@dataclass
class Sample:
    """One request's outcome, timed on the generator's monotonic clock."""

    index: int
    due: float
    sent: float
    done: float
    status: int  # HTTP status, or 0 for a transport error
    body: bytes
    request_id: str
    bytes_in: int = 0  # request body size
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.due)

    @property
    def send_lag_ms(self) -> float:
        return 1000.0 * (self.sent - self.due)


class Connection:
    """One keep-alive connection to the server; reconnects after errors."""

    def __init__(self, port: int, host: str = "127.0.0.1", timeout_s: float = 30.0):
        self.host, self.port, self.timeout_s = host, port, timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def request(
        self, method: str, path: str, body: Optional[bytes], request_id: str
    ) -> Tuple[int, bytes]:
        headers = {"X-Request-Id": request_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        if self._conn is None:
            self._conn = self._connect()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            resp = self._conn.getresponse()
            data = resp.read()
            if resp.getheader("X-Request-Id") != request_id:
                return 0, b"request id not echoed"
            return resp.status, data
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _send(conn: Connection, req: Request, index: int, due: float, tag: str) -> Sample:
    path, body = req
    rid = f"{tag}-{index}"
    sent = time.perf_counter()
    try:
        status, data = conn.request("POST", path, body, rid)
        error = ""
    except (OSError, http.client.HTTPException) as exc:
        status, data, error = 0, b"", f"{type(exc).__name__}: {exc}"
    return Sample(index, due, sent, time.perf_counter(), status, data, rid, len(body), error)


def closed_loop(
    port: int,
    next_request: Callable[[int], Request],
    duration_s: float,
    tag: str,
) -> List[Sample]:
    """One connection, serial requests, for ``duration_s`` seconds."""
    conn = Connection(port)
    samples: List[Sample] = []
    try:
        end = time.perf_counter() + duration_s
        i = 0
        while time.perf_counter() < end:
            now = time.perf_counter()
            samples.append(_send(conn, next_request(i), i, now, tag))
            i += 1
    finally:
        conn.close()
    return samples


def poisson_schedule(rng: random.Random, rate: float, count: int) -> List[float]:
    """``count`` Poisson arrival offsets (seconds) at ``rate`` per second.

    A fixed count rather than a fixed duration keeps the sample count,
    and so the reported tail percentile, the same on every run.
    """
    times: List[float] = []
    t = 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        times.append(t)
    return times


def open_loop(
    port: int,
    schedule: Sequence[float],
    requests: Sequence[Request],
    connections: int,
    tag: str,
    stop_after: Optional[float] = None,
) -> List[Sample]:
    """Send ``requests[i]`` at ``schedule[i]`` seconds after the start.

    ``connections`` threads share the schedule; a request whose turn
    comes while every connection is busy is sent late, and its latency
    still counts from its due time.  ``stop_after`` (seconds) abandons
    requests not yet sent by then — the ladder uses it to cut a rung
    whose backlog would otherwise run on.
    """
    connections = max(1, min(connections, os.cpu_count() or 1))
    lock = threading.Lock()
    cursor = [0]
    results: List[Optional[Sample]] = [None] * len(schedule)
    t0 = time.perf_counter() + 0.05

    def worker() -> None:
        conn = Connection(port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= len(schedule):
                        return
                    cursor[0] = i + 1
                due = t0 + schedule[i]
                now = time.perf_counter()
                if stop_after is not None and now > t0 + stop_after:
                    return
                if due > now:
                    time.sleep(due - now)
                results[i] = _send(conn, requests[i], i, due, tag)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [s for s in results if s is not None]
