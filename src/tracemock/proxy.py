"""Recording proxy: capture request/response exchanges on the wire.

Sits between a client and the real service and forwards framed messages
both ways.  As soon as a request is paired with its response and the
reply is forwarded, one trace record is appended to the open trace file.
Pairing is strictly sequential per connection (the wire gives no other
signal for an unknown protocol).  Requests whose response never arrives
are dropped and logged, not recorded.  Indices are assigned sequentially
from 0 in pairing order across all connections, and records reach the file
in index order.  Nothing is kept in memory, so memory stays bounded however
long the recording runs, and a kill loses at most the file's unflushed
buffer.

``record_proxy`` binds the listening address first, then opens the trace
file, then listens.  A busy address therefore fails before an existing
trace is truncated, and an unwritable path fails before anything listens.
"""

import contextlib
import logging
import socket
import threading
import time
from typing import TextIO

from .errors import (FramingProtocolError, FramingTimeoutError,
                     TargetUnreachableError)
from .framing import FramingConfig, MessageStream
from .trace import format_record

logger = logging.getLogger(__name__)

DEFAULT_RESPONSE_TIMEOUT_MS = 5000


class RecordingProxy:
    """Threaded TCP proxy that records framed exchanges to a trace file.

    ``bind()`` binds the listening address; ``start(out)`` listens and
    appends each paired exchange to ``out`` as one trace record, given its
    index under a lock, so indices stay unique and the file holds them in
    pairing order even with concurrent clients.  No transaction is kept in
    memory.  Each connection's thread is tracked only while it runs.
    ``stop()`` closes ``out``.
    """

    def __init__(self, listen: tuple[str, int], target: tuple[str, int],
                 framing: FramingConfig,
                 response_timeout_ms: int = DEFAULT_RESPONSE_TIMEOUT_MS):
        self.target = target
        self.framing = framing
        self.response_timeout_ms = response_timeout_ms
        self._listen = listen
        self._out: TextIO | None = None
        self._count = 0
        self._lock = threading.Lock()  # guards _out, _count and _live
        self._live: dict[threading.Thread, list[socket.socket]] = {}
        self._sock: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._stopping = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        if self._sock is None:
            raise RuntimeError("proxy not started")
        return self._sock.getsockname()[:2]

    def bind(self) -> tuple[str, int]:
        """Bind the listening address; no connection is accepted yet."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(self._listen)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        return self.address

    def start(self, out: TextIO) -> tuple[str, int]:
        """Listen, binding first if ``bind()`` was not called, and record
        every exchange to ``out``."""
        if self._sock is None:
            self.bind()
        self._out = out
        self._sock.listen(64)
        self._acceptor = threading.Thread(target=self._accept_loop, daemon=True,
                                          name="proxy-accept")
        self._acceptor.start()
        logger.info("recording %s:%d -> %s:%d", *self.address, *self.target)
        return self.address

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                conn, peer = self._sock.accept()
            except OSError:
                return
            worker = threading.Thread(target=self._handle, args=(conn, peer),
                                      daemon=True)
            with self._lock:  # stop() reads _live only after joining this thread
                self._live[worker] = [conn]
            worker.start()

    def _connect_target(self) -> socket.socket:
        try:
            return socket.create_connection(self.target, timeout=5.0)
        except OSError as exc:
            raise TargetUnreachableError(
                f"cannot connect to {self.target[0]}:{self.target[1]}: {exc}")

    def _handle(self, conn: socket.socket, peer):
        try:
            upstream = self._connect_target()
            with self._lock:
                self._live[threading.current_thread()].append(upstream)
                if self._stopping.is_set():  # stop() may be past its sweep
                    _shutdown(upstream)
            client = MessageStream(conn, self.framing)
            target = MessageStream(upstream, self.framing)
            while not self._stopping.is_set():
                request = client.read()
                if request is None:
                    return
                target.write(request)
                try:
                    response = target.read(
                        initial_timeout_ms=self.response_timeout_ms)
                except FramingTimeoutError:
                    logger.warning("peer=%s dropped request (%d bytes): no "
                                   "response within %d ms", peer, len(request),
                                   self.response_timeout_ms)
                    return
                if response is None:
                    logger.error("peer=%s target closed before replying", peer)
                    return
                client.write(response)
                with self._lock:
                    if self._out.closed:  # stop() gave up joining this thread
                        return
                    try:
                        self._out.write(
                            format_record(self._count, request, response))
                    except OSError as exc:
                        logger.error("peer=%s trace write error: %s", peer, exc)
                        return
                    self._count += 1
        except TargetUnreachableError as exc:
            logger.error("peer=%s %s", peer, exc)
        except (ConnectionError, OSError, FramingProtocolError) as exc:
            logger.warning("peer=%s connection error: %s", peer, exc)
        finally:
            with self._lock:
                for sock in self._live.pop(threading.current_thread()):
                    sock.close()

    def stop(self) -> int:
        """Stop accepting, end every connection, close the trace file and
        return the number of transactions recorded.

        close() wakes neither a blocked accept() nor recv() on Linux, so the
        sockets are shut down first.  Handlers append a reply they have
        forwarded before they end, and stop() joins them, so the file holds
        it.  The file is closed under the lock, so a handler that outlives
        its join never writes to a closed file.
        """
        self._stopping.set()
        if self._sock is not None:
            _shutdown(self._sock)
            self._sock.close()
        if self._acceptor is not None:
            self._acceptor.join(timeout=2.0)
        with self._lock:
            for sock in (s for socks in self._live.values() for s in socks):
                _shutdown(sock)
            handlers = list(self._live)
        for t in handlers:
            t.join(timeout=2.0)
        with self._lock:
            if self._out is not None:
                self._out.close()
            return self._count


def _shutdown(sock: socket.socket) -> None:
    with contextlib.suppress(OSError):  # already closed, or never connected
        sock.shutdown(socket.SHUT_RDWR)


def record_proxy(listen: tuple[str, int], target: tuple[str, int],
                 framing: FramingConfig, out) -> int:
    """Record to the trace file ``out`` until interrupted.

    The address is bound before ``out`` is opened (and so truncated), and
    ``out`` is opened before the proxy listens.  Returns the number of
    transactions; the file is closed when this returns.
    """
    proxy = RecordingProxy(listen, target, framing)
    proxy.bind()
    try:
        fh = open(out, "w", encoding="ascii", newline="")
    except OSError:
        proxy.stop()
        raise
    try:
        proxy.start(fh)
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        count = proxy.stop()  # closes fh
        logger.info("recorded %d transactions to %s", count, out)
    return count
