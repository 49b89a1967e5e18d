"""Open-loop HTTP load generator for the serve-ladder workload.

One thread drives at most ``n_conns`` keep-alive connections with
``selectors``.  Requests arrive on a seeded Poisson schedule that does
not wait for the server: a request that comes due while every
connection is busy waits in the generator's backlog, and its latency
still counts from the moment it was due.  Per request (keyed by its
index) the generator records:

* ``due``  -- when the schedule said to send it;
* ``late`` -- how far behind the generator itself ran: the send time
  minus the later of ``due`` and the moment a connection was free;
* ``done`` -- when the whole response had arrived;
* ``ok``   -- HTTP 200 and a body equal to the oracle's answer.

Non-200 answers, resets, timeouts and refused connections are failures
and count as SLO misses; nothing is dropped.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

#: A request stuck longer than this fails as a timeout.
REQUEST_TIMEOUT_S = 10.0


@dataclass
class Outcome:
    index: int
    due: float
    sent: float = 0.0
    late: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str = ""


@dataclass
class RungResult:
    rate: float
    outcomes: List[Outcome]
    backlog_first: int
    backlog_last: int
    window_end: float

    def completion_rate(self) -> float:
        """Answers per second while the rung's schedule ran: the spacing
        of the good answers that arrived before the window closed."""
        done = sorted(
            o.done for o in self.outcomes if o.ok and o.done <= self.window_end
        )
        if len(done) < 2 or done[-1] <= done[0]:
            return 0.0
        return (len(done) - 1) / (done[-1] - done[0])


class _Conn:
    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buf = bytearray()
        self.current: Optional[Outcome] = None
        self.free_since = 0.0

    def open(self) -> None:
        self.sock = socket.create_connection((self.host, self.port), timeout=5)
        self.sock.settimeout(None)
        self.buf.clear()

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def take_response(self) -> Optional[Tuple[int, bytes]]:
        """One complete ``(status, body)`` from the buffer, if any."""
        head_end = self.buf.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = bytes(self.buf[:head_end]).decode("latin-1").split("\r\n")
        status = int(head[0].split()[1])
        length = 0
        for line in head[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        end = head_end + 4 + length
        if len(self.buf) < end:
            return None
        body = bytes(self.buf[head_end + 4 : end])
        del self.buf[:end]
        return status, body


def request_bytes(host: str, port: int, method: str, path: str,
                  body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class LoadGenerator:
    """Keeps ``n_conns`` connections to ``host:port`` across rungs."""

    def __init__(self, host: str, port: int, n_conns: int) -> None:
        self.host = host
        self.port = port
        self.conns = [_Conn(host, port) for _ in range(n_conns)]
        for conn in self.conns:
            conn.open()
        self.sel = selectors.DefaultSelector()
        for conn in self.conns:
            self.sel.register(conn.sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        self.sel.close()
        for conn in self.conns:
            conn.close()

    def _reconnect(self, conn: _Conn) -> None:
        if conn.sock is not None:
            self.sel.unregister(conn.sock)
        conn.close()
        try:
            conn.open()
        except OSError:
            return  # refused: the next send on it fails again
        self.sel.register(conn.sock, selectors.EVENT_READ, conn)

    def get_json(self, path: str) -> Dict[str, object]:
        """Blocking GET on the first connection, between rungs."""
        conn = self.conns[0]
        conn.sock.sendall(request_bytes(self.host, self.port, "GET", path))
        while True:
            got = conn.take_response()
            if got is not None:
                status, body = got
                if status != 200:
                    raise RuntimeError(f"GET {path} answered {status}")
                return json.loads(body)
            chunk = conn.sock.recv(65536)
            if not chunk:
                raise RuntimeError(f"connection closed during GET {path}")
            conn.buf.extend(chunk)

    def rung(
        self,
        rate: float,
        arrivals: Sequence[float],
        duration: float,
        payload: Callable[[int], bytes],
        check: Callable[[int, bytes], bool],
    ) -> RungResult:
        """Send request ``i`` at ``start + arrivals[i]`` (a schedule of
        nominal ``rate`` over ``duration`` s); wait for every answer.

        ``payload(i)`` is the JSON body of request ``i`` and
        ``check(i, body)`` tells whether its answer is right.
        """
        start = time.perf_counter() + 0.01
        outcomes = [Outcome(i, start + a) for i, a in enumerate(arrivals)]
        backlog: Deque[Outcome] = deque()
        next_i = 0
        in_flight = 0
        window_end = start + duration
        quarter = duration / 4.0
        backlog_first = 0
        backlog_last = 0
        for conn in self.conns:
            conn.free_since = start
        while True:
            now = time.perf_counter()
            while next_i < len(outcomes) and outcomes[next_i].due <= now:
                backlog.append(outcomes[next_i])
                next_i += 1
                waiting = len(backlog) + in_flight
                offset = now - start
                if offset < quarter:
                    backlog_first = max(backlog_first, waiting)
                elif offset >= duration - quarter:
                    backlog_last = max(backlog_last, waiting)
            for conn in self.conns:
                if not backlog:
                    break
                if conn.current is not None:
                    continue
                out = backlog.popleft()
                self._send(conn, out, payload(out.index))
                if conn.current is not None:
                    in_flight += 1
            if next_i >= len(outcomes) and not backlog and in_flight == 0:
                break
            now = time.perf_counter()
            timeout = REQUEST_TIMEOUT_S
            if next_i < len(outcomes):
                timeout = max(0.0, outcomes[next_i].due - now)
            for conn in self.conns:
                if conn.current is not None:
                    timeout = min(
                        timeout,
                        max(0.0, conn.current.sent + REQUEST_TIMEOUT_S - now),
                    )
            for key, _mask in self.sel.select(timeout):
                conn = key.data
                if self._receive(conn, check) is not None:
                    in_flight -= 1
            now = time.perf_counter()
            for conn in self.conns:
                current = conn.current
                if current is not None and now - current.sent > REQUEST_TIMEOUT_S:
                    current.error = "timeout"
                    current.done = now
                    conn.current = None
                    in_flight -= 1
                    self._reconnect(conn)
                    conn.free_since = now
        return RungResult(
            rate=rate,
            outcomes=outcomes,
            backlog_first=backlog_first,
            backlog_last=backlog_last,
            window_end=window_end,
        )

    def _send(self, conn: _Conn, out: Outcome, body: bytes) -> None:
        data = request_bytes(self.host, self.port, "POST", "/v1/recognize", body)
        out.sent = time.perf_counter()
        out.late = out.sent - max(out.due, conn.free_since)
        if conn.sock is None:
            self._reconnect(conn)
        if conn.sock is None:
            out.error = "refused"
            out.done = out.sent
            return
        try:
            conn.sock.sendall(data)
        except OSError as exc:
            out.error = f"send: {exc.__class__.__name__}"
            out.done = time.perf_counter()
            self._reconnect(conn)
            return
        conn.current = out

    def _receive(
        self, conn: _Conn, check: Callable[[int, bytes], bool]
    ) -> Optional[Outcome]:
        try:
            chunk = conn.sock.recv(65536)
        except OSError as exc:
            chunk = b""
            reason = f"recv: {exc.__class__.__name__}"
        else:
            reason = "reset"
        now = time.perf_counter()
        current = conn.current
        if not chunk:
            self._reconnect(conn)
            conn.free_since = now
            if current is None:
                return None
            current.error = reason
            current.done = now
            conn.current = None
            return current
        conn.buf.extend(chunk)
        got = conn.take_response()
        if got is None or current is None:
            return None
        status, body = got
        current.done = now
        conn.current = None
        conn.free_since = now
        if status != 200:
            current.error = f"http {status}"
        elif not check(current.index, body):
            current.error = "wrong answer"
        else:
            current.ok = True
        return current
