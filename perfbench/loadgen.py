"""Single-threaded load generator over length-prefixed TCP connections.

Every request is framed with a 4-byte big-endian length, as
``--framing length:4`` expects.  One thread drives all connections with
``select.select``, whose timeout has microsecond resolution, so the open
loop can send close to its schedule without a second thread.

A phase always sends whole rounds of the request list, so a request that
fails on every attempt fails the same share of every run.
"""

import gc
import math
import select
import socket
import statistics
import time
from collections import deque

DRAIN_TIMEOUT_S = 10.0  # how long a phase waits for its last replies


class Exchange:
    """One request sent on one connection, and what came back."""

    __slots__ = ("request", "conn", "seq", "due", "sent", "done", "reply")

    def __init__(self, request: int, conn: "Conn", due: float):
        self.request = request  # position in the phase's request list
        self.conn = conn
        self.seq = None  # position among all requests sent on the connection
        self.due = due
        self.sent = None
        self.done = None
        self.reply = None  # None when the reply is missing


class Conn:
    """A non-blocking client connection with framed, in-order replies."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=5.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.port = self.sock.getsockname()[1]
        self.alive = True
        self.sent_total = 0  # requests sent on this connection, all phases
        self._out = bytearray()
        self._in = bytearray()
        self._inflight: deque[Exchange] = deque()

    @property
    def busy(self) -> int:
        return len(self._inflight)

    def send(self, exchange: Exchange, payload: bytes, now: float) -> None:
        exchange.sent = now
        exchange.seq = self.sent_total
        self._out += len(payload).to_bytes(4, "big") + payload
        self._inflight.append(exchange)
        self.sent_total += 1
        self.flush()

    def flush(self) -> None:
        if self._out and self.alive:
            try:
                del self._out[:self.sock.send(self._out)]
            except BlockingIOError:
                pass
            except OSError:
                self.fail()

    def receive(self, now: float) -> list[Exchange]:
        """Replies completed by the bytes now readable."""
        try:
            data = self.sock.recv(65536)
        except BlockingIOError:
            return []
        except OSError:
            data = b""
        if not data:
            self.fail()
            return []
        self._in += data
        done = []
        while len(self._in) >= 4:
            end = 4 + int.from_bytes(self._in[:4], "big")
            if len(self._in) < end or not self._inflight:
                break
            exchange = self._inflight.popleft()
            exchange.reply = bytes(self._in[4:end])
            exchange.done = now
            del self._in[:end]
            done.append(exchange)
        return done

    def fail(self) -> None:
        """Drop the connection; its outstanding requests stay missing."""
        self.alive = False
        self._inflight.clear()
        self._out.clear()

    def close(self) -> None:
        self.sock.close()


class _NoCollection:
    """Keep the generator's own garbage collection out of the timings."""

    def __enter__(self):
        gc.disable()

    def __exit__(self, *exc):
        gc.enable()


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def throughput(exchanges: list[Exchange]) -> float:
    """Replies per second, from the first send to the last reply."""
    done = [e.done for e in exchanges if e.reply is not None]
    return len(done) / (max(done) - min(e.sent for e in exchanges if e.sent))


def whole_rounds(count: float, round_size: int) -> int:
    return max(1, math.ceil(count / round_size)) * round_size


def _wait(conns: list[Conn], timeout: float | None) -> list[Conn]:
    live = [c for c in conns if c.alive]
    if not live:
        return []
    writers = [c.sock for c in live if c._out]
    readable, writable, _ = select.select([c.sock for c in live], writers, [],
                                          timeout)
    for c in live:
        if c.sock in writable:
            c.flush()
    return [c for c in live if c.sock in readable]


def _drain(conns: list[Conn]) -> None:
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while any(c.alive and c.busy for c in conns):
        left = deadline - time.perf_counter()
        if left <= 0:
            break
        for c in _wait(conns, left):
            c.receive(time.perf_counter())


def open_loop(conns: list[Conn], requests: list[bytes], rate: float,
              seconds: float) -> list[Exchange]:
    """Send on a fixed schedule, round-robin over the connections.

    Request k is due at ``start + k / rate`` whatever the replies do; its
    latency is measured from when it was due.
    """
    count = whole_rounds(rate * seconds, len(requests))
    with _NoCollection():
        return _open_loop(conns, requests, rate, count)


def _open_loop(conns, requests, rate, count) -> list[Exchange]:
    start = time.perf_counter() + 0.005
    out = []
    k = 0
    while k < count:
        now = time.perf_counter()
        while k < count and start + k / rate <= now:
            conn = conns[k % len(conns)]
            exchange = Exchange(k % len(requests), conn, start + k / rate)
            out.append(exchange)
            if conn.alive:
                conn.send(exchange, requests[exchange.request], now)
            k += 1
        if k < count:
            timeout = max(0.0, start + k / rate - time.perf_counter())
            for c in _wait(conns, timeout):
                c.receive(time.perf_counter())
    _drain(conns)
    return out


def closed_loop(conns: list[Conn], requests: list[bytes], window: int,
                seconds: float = 0.0, count: int = 0) -> list[Exchange]:
    """Keep ``window`` requests outstanding on each connection.

    Sends at least ``count`` requests, and goes on sending until
    ``seconds`` have passed, always ending on a whole round of the request
    list.
    """
    with _NoCollection():
        return _closed_loop(conns, requests, window, seconds, count)


def _closed_loop(conns, requests, window, seconds, count) -> list[Exchange]:
    out = []
    start = time.perf_counter()
    deadline = start + seconds
    k = 0

    def send_next(conn: Conn, now: float) -> None:
        nonlocal k
        if not conn.alive or (k >= count and now >= deadline
                              and k and k % len(requests) == 0):
            return
        exchange = Exchange(k % len(requests), conn, now)
        out.append(exchange)
        conn.send(exchange, requests[exchange.request], now)
        k += 1

    for conn in conns:
        for _ in range(window):
            send_next(conn, start)
    progress = start
    while any(c.alive and c.busy for c in conns):
        if time.perf_counter() - progress > DRAIN_TIMEOUT_S:
            break  # nothing arrived for DRAIN_TIMEOUT_S: the rest is missing
        for c in _wait(conns, DRAIN_TIMEOUT_S):
            now = time.perf_counter()
            for _ in c.receive(now):
                progress = now
                send_next(c, now)
    return out
