import socket
import threading
import time

from tracemock.framing import FramingConfig, MessageStream
from tracemock.proxy import RecordingProxy


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


def test_single_exchange_recorded_byte_exact():
    echo = EchoServer(FRAMING)
    proxy = RecordingProxy(("127.0.0.1", 0), echo.address, FRAMING)
    host, port = proxy.start()
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = MessageStream(sock, FRAMING)
            stream.write(b"payload-123")
            assert stream.read() == b"echo:payload-123"
        time.sleep(0.1)
        library = proxy.stop()
    finally:
        echo.close()
    assert len(library) == 1
    assert library[0].index == 0
    assert library[0].request == b"payload-123"
    assert library[0].response == b"echo:payload-123"


def test_pipelined_requests_recorded_in_order():
    echo = EchoServer(FRAMING)
    proxy = RecordingProxy(("127.0.0.1", 0), echo.address, FRAMING)
    host, port = proxy.start()
    sent = [b"msg-%02d" % i for i in range(10)]
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = MessageStream(sock, FRAMING)
            for payload in sent:
                stream.write(payload)
                assert stream.read() == b"echo:" + payload
        time.sleep(0.1)
        library = proxy.stop()
    finally:
        echo.close()
    assert [t.request for t in library] == sent
    assert [t.index for t in library] == list(range(10))


def test_target_closing_before_reply_records_nothing():
    echo = EchoServer(FRAMING, close_before_reply=True)
    proxy = RecordingProxy(("127.0.0.1", 0), echo.address, FRAMING)
    host, port = proxy.start()
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = MessageStream(sock, FRAMING)
            stream.write(b"doomed")
            assert stream.read() is None  # proxy surfaces the failure by closing
        library = proxy.stop()
    finally:
        echo.close()
    assert len(library) == 0


def test_unreachable_target_closes_client():
    # grab a port that is certainly closed
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_address = probe.getsockname()[:2]
    probe.close()

    proxy = RecordingProxy(("127.0.0.1", 0), dead_address, FRAMING)
    host, port = proxy.start()
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = MessageStream(sock, FRAMING)
            assert stream.read() is None
        library = proxy.stop()
    finally:
        pass
    assert len(library) == 0


def test_concurrent_clients_unique_indices():
    echo = EchoServer(FRAMING)
    proxy = RecordingProxy(("127.0.0.1", 0), echo.address, FRAMING)
    host, port = proxy.start()
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
    library = proxy.stop()
    echo.close()
    assert errors == []
    assert len(library) == 36
    assert sorted(t.index for t in library) == list(range(36))
    for t in library:
        assert t.response == b"echo:" + t.request


def test_sequential_connections_leave_no_finished_threads_tracked():
    echo = EchoServer(FRAMING)
    proxy = RecordingProxy(("127.0.0.1", 0), echo.address, FRAMING)
    host, port = proxy.start()
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
        library = proxy.stop()
    finally:
        echo.close()
    assert len(library) == 200


def test_stop_with_idle_peers_is_prompt_and_keeps_replies():
    echo = EchoServer(FRAMING)
    proxy = RecordingProxy(("127.0.0.1", 0), echo.address, FRAMING)
    host, port = proxy.start()
    peers = []
    try:
        for i in range(2):
            sock = socket.create_connection((host, port), timeout=5)
            peers.append(sock)
            stream = MessageStream(sock, FRAMING)
            stream.write(b"idle-%d" % i)
            assert stream.read() == b"echo:idle-%d" % i
        started = time.perf_counter()
        library = proxy.stop()
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
