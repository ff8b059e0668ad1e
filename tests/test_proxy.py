import io
import logging
import socket
import threading
import time

from tracemock.framing import FramingConfig, MessageStream
from tracemock.proxy import RecordingProxy
from tracemock.trace import load_library


class EchoServer:
    """Loopback fixture: echoes each framed message, optionally transformed."""

    def __init__(self, framing, transform=lambda m: b"echo:" + m,
                 close_before_reply=False):
        self.framing = framing
        self.transform = transform
        self.close_before_reply = close_before_reply
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.address = self._sock.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._handle, args=(conn,),
                             daemon=True).start()

    def _handle(self, conn):
        stream = MessageStream(conn, self.framing)
        try:
            while True:
                msg = stream.read()
                if msg is None:
                    return
                if self.close_before_reply:
                    return
                stream.write(self.transform(msg))
        except OSError:
            pass
        finally:
            stream.close()

    def close(self):
        self._sock.close()


FRAMING = FramingConfig("length", length_prefix_bytes=4)


def start_recording(target, path):
    """A started proxy recording to ``path``, and its address; the proxy's
    stop() closes the file."""
    proxy = RecordingProxy(("127.0.0.1", 0), target, FRAMING)
    return proxy, proxy.start(open(path, "w", encoding="ascii", newline=""))


def stop_and_read(proxy, path):
    """Stop the proxy and read its trace back; stop() returns its length."""
    count = proxy.stop()
    library = load_library(path)
    assert len(library) == count
    return library


def test_single_exchange_recorded_byte_exact(tmp_path):
    trace = tmp_path / "recorded.trace"
    echo = EchoServer(FRAMING)
    proxy, (host, port) = start_recording(echo.address, trace)
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = MessageStream(sock, FRAMING)
            stream.write(b"payload-123")
            assert stream.read() == b"echo:payload-123"
        time.sleep(0.1)
        library = stop_and_read(proxy, trace)
    finally:
        echo.close()
    assert len(library) == 1
    assert library[0].index == 0
    assert library[0].request == b"payload-123"
    assert library[0].response == b"echo:payload-123"


def test_pipelined_requests_recorded_in_order(tmp_path):
    trace = tmp_path / "recorded.trace"
    echo = EchoServer(FRAMING)
    proxy, (host, port) = start_recording(echo.address, trace)
    sent = [b"msg-%02d" % i for i in range(10)]
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = MessageStream(sock, FRAMING)
            for payload in sent:
                stream.write(payload)
                assert stream.read() == b"echo:" + payload
        time.sleep(0.1)
        library = stop_and_read(proxy, trace)
    finally:
        echo.close()
    assert [t.request for t in library] == sent
    assert [t.index for t in library] == list(range(10))


def test_target_closing_before_reply_records_nothing(tmp_path):
    trace = tmp_path / "recorded.trace"
    echo = EchoServer(FRAMING, close_before_reply=True)
    proxy, (host, port) = start_recording(echo.address, trace)
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = MessageStream(sock, FRAMING)
            stream.write(b"doomed")
            assert stream.read() is None  # proxy surfaces the failure by closing
        library = stop_and_read(proxy, trace)
    finally:
        echo.close()
    assert len(library) == 0


def test_unreachable_target_closes_client(tmp_path):
    trace = tmp_path / "recorded.trace"
    # grab a port that is certainly closed
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_address = probe.getsockname()[:2]
    probe.close()

    proxy, (host, port) = start_recording(dead_address, trace)
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = MessageStream(sock, FRAMING)
            assert stream.read() is None
        library = stop_and_read(proxy, trace)
    finally:
        pass
    assert len(library) == 0


def test_concurrent_clients_unique_indices(tmp_path):
    trace = tmp_path / "recorded.trace"
    echo = EchoServer(FRAMING)
    proxy, (host, port) = start_recording(echo.address, trace)
    errors = []

    def client(worker):
        try:
            with socket.create_connection((host, port), timeout=10) as sock:
                stream = MessageStream(sock, FRAMING)
                for i in range(6):
                    payload = b"w%d-%d" % (worker, i)
                    stream.write(payload)
                    if stream.read() != b"echo:" + payload:
                        errors.append((worker, i))
        except Exception as exc:  # noqa: BLE001
            errors.append((worker, repr(exc)))

    threads = [threading.Thread(target=client, args=(w,)) for w in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    time.sleep(0.2)
    library = stop_and_read(proxy, trace)
    echo.close()
    assert errors == []
    assert len(library) == 36
    assert [t.index for t in library] == list(range(36))  # file order
    for t in library:
        assert t.response == b"echo:" + t.request


def test_sequential_connections_leave_no_finished_threads_tracked(tmp_path):
    trace = tmp_path / "recorded.trace"
    echo = EchoServer(FRAMING)
    proxy, (host, port) = start_recording(echo.address, trace)
    try:
        for i in range(200):
            with socket.create_connection((host, port), timeout=5) as sock:
                stream = MessageStream(sock, FRAMING)
                stream.write(b"seq-%d" % i)
                assert stream.read() == b"echo:seq-%d" % i
            with proxy._lock:
                tracked = list(proxy._live)
            assert all(t.is_alive() for t in tracked)
        deadline = time.monotonic() + 5
        while proxy._live and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not proxy._live
        library = stop_and_read(proxy, trace)
    finally:
        echo.close()
    assert len(library) == 200


def test_stop_with_idle_peers_is_prompt_and_keeps_replies(tmp_path):
    trace = tmp_path / "recorded.trace"
    echo = EchoServer(FRAMING)
    proxy, (host, port) = start_recording(echo.address, trace)
    peers = []
    try:
        for i in range(2):
            sock = socket.create_connection((host, port), timeout=5)
            peers.append(sock)
            stream = MessageStream(sock, FRAMING)
            stream.write(b"idle-%d" % i)
            assert stream.read() == b"echo:idle-%d" % i
        started = time.perf_counter()
        library = stop_and_read(proxy, trace)
        assert time.perf_counter() - started < 1.0
        assert sorted(t.request for t in library) == [b"idle-0", b"idle-1"]
        assert not proxy._live
        for sock in peers:
            sock.settimeout(5)
            assert sock.recv(1) == b""
    finally:
        echo.close()
        for sock in peers:
            sock.close()


class FailingTrace(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_trace_write_failure_is_logged_as_such(caplog):
    echo = EchoServer(FRAMING)
    proxy = RecordingProxy(("127.0.0.1", 0), echo.address, FRAMING)
    host, port = proxy.start(FailingTrace())
    try:
        with caplog.at_level(logging.WARNING, logger="tracemock.proxy"):
            with socket.create_connection((host, port), timeout=5) as sock:
                stream = MessageStream(sock, FRAMING)
                stream.write(b"unrecorded")
                assert stream.read() == b"echo:unrecorded"
                assert stream.read() is None  # the proxy stops recording it
            assert proxy.stop() == 0
    finally:
        echo.close()
    messages = [r.getMessage() for r in caplog.records]
    assert any("trace write error" in m for m in messages)
    assert not any("connection error" in m for m in messages)
