import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import tracemock
from tracemock.cli import main
from tracemock.framing import FramingConfig, MessageStream
from tracemock.harness import PAPER_EXAMPLE_ROWS
from tracemock.trace import TransactionLibrary, load_library, save_library

from test_proxy import EchoServer

SRC = Path(tracemock.__file__).resolve().parents[1]
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CHILD_ENV.pop("PYTHONUNBUFFERED", None)  # buffered, so a lost flush shows


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_paper_example_trace(self, tmp_path, capsys):
        out = tmp_path / "paper.trace"
        assert run_cli("gen", "--paper-example", "-o", out) == 0
        lib = load_library(out)
        assert [(t.index, t.request, t.response) for t in lib] \
            == list(PAPER_EXAMPLE_ROWS)

    def test_synthetic_deterministic(self, tmp_path):
        a = tmp_path / "a.trace"
        b = tmp_path / "b.trace"
        run_cli("gen", "-n", 40, "--seed", 3, "-o", a)
        run_cli("gen", "-n", 40, "--seed", 3, "-o", b)
        assert a.read_bytes() == b.read_bytes()


def tracemock_argv(*argv) -> list[str]:
    return [sys.executable, "-m", "tracemock.cli", *map(str, argv)]


def tracemock_process(*argv) -> subprocess.Popen:
    """``tracemock`` as a child process, its standard error piped."""
    return subprocess.Popen(
        tracemock_argv(*argv), env=CHILD_ENV, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def tracemock_run(*argv) -> subprocess.CompletedProcess:
    """``tracemock`` run to completion, its output captured."""
    return subprocess.run(tracemock_argv(*argv), env=CHILD_ENV,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=60)


def read_address(proc, pattern: str) -> tuple[str, int]:
    """Read ``proc``'s standard error until a line gives its bound address."""
    while True:
        line = proc.stderr.readline()
        assert line, "the process exited before it listened"
        found = re.search(pattern, line)
        if found:
            return found.group(1), int(found.group(2))


class TestRecordCommand:
    FRAMING = FramingConfig("length", length_prefix_bytes=4)

    def test_sigint_with_open_connections_leaves_the_whole_trace(self, tmp_path):
        echo = EchoServer(self.FRAMING)
        out = tmp_path / "recorded.trace"
        proc = tracemock_process("record", "--listen", "127.0.0.1:0",
                                 "--target", "%s:%d" % echo.address,
                                 "--framing", "length:4", "-o", out)
        watchdog = threading.Timer(30, proc.kill)  # unblocks the reads below
        watchdog.start()
        conns = []
        try:
            address = read_address(proc, r"recording ([\d.]+):(\d+) ->")
            conns = [socket.create_connection(address, timeout=5)
                     for _ in range(2)]
            streams = [MessageStream(c, self.FRAMING) for c in conns]
            sent = []  # (connection, request, response)
            for i in range(24):  # alternate the connections, one at a time
                request = b"req-%02d\t\x00\\" % i
                stream = streams[i % 2]
                stream.write(request)
                response = stream.read()
                assert response == b"echo:" + request
                sent.append((i % 2, request, response))
            proc.send_signal(signal.SIGINT)  # both connections still open
            _, err = proc.communicate(timeout=30)
        finally:
            watchdog.cancel()
            for conn in conns:
                conn.close()
            echo.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err
        assert "recorded 24 transactions" in err
        recorded = list(load_library(out))
        assert [t.index for t in recorded] == list(range(24))
        assert sorted((t.request, t.response) for t in recorded) \
            == sorted((q, r) for _, q, r in sent)
        # A handler appends after it forwards the reply, so pairing order
        # across connections is the proxy's; within one it is the wire's.
        connection = {q: c for c, q, _ in sent}
        for c in (0, 1):
            assert [t.request for t in recorded if connection[t.request] == c] \
                == [q for cc, q, _ in sent if cc == c]
        expected = tmp_path / "expected.trace"
        save_library(TransactionLibrary(tuple(recorded)), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_unwritable_output_fails_before_listening(self, tmp_path):
        proc = tracemock_process("record", "--listen", "127.0.0.1:0",
                                 "--target", "127.0.0.1:9",
                                 "-o", tmp_path / "no" / "such" / "x.trace")
        try:
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 1, err
        assert "error:" in err
        assert "recording" not in err

    def test_busy_listen_address_leaves_an_existing_trace(self, tmp_path):
        out = tmp_path / "keep.trace"
        kept = bytes(range(100))
        out.write_bytes(kept)
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            result = tracemock_run("record", "--listen",
                                   "%s:%d" % holder.getsockname(),
                                   "--target", "127.0.0.1:9", "-o", out)
        assert result.returncode == 1, result.stderr
        assert "error:" in result.stderr
        assert out.read_bytes() == kept

    def test_record_path_loads_neither_numpy_nor_asyncio(self):
        probe = ("import json, sys; import tracemock; "
                 "package = sorted(m for m in sys.modules "
                 "if m.startswith('tracemock.')); import tracemock.cli; "
                 "print(json.dumps([package, sorted({'numpy', 'asyncio'} "
                 "& set(sys.modules))]))")
        result = subprocess.run([sys.executable, "-c", probe], env=CHILD_ENV,
                                capture_output=True, text=True, timeout=30)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [[], []]


class TestProcessExit:
    """The command ends the process without interpreter teardown; what it
    wrote is flushed first, and its exit code is kept."""

    def test_gen_with_piped_stdout_prints_and_writes_everything(self, tmp_path):
        out = tmp_path / "piped.trace"
        result = tracemock_run("gen", "-n", 300, "--seed", 4, "-o", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"wrote 300 transactions to {out}\n"
        expected = tmp_path / "expected.trace"
        assert run_cli("gen", "-n", 300, "--seed", 4, "-o", expected) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_serve_exits_zero_on_sigint_with_a_connection_open(self, tmp_path):
        trace = tmp_path / "paper.trace"
        model_path = tmp_path / "paper.model"
        run_cli("gen", "--paper-example", "-o", trace)
        assert run_cli("build", "-i", trace, "-o", model_path,
                       "--clusters", 2) == 0
        proc = tracemock_process("serve", "-m", model_path, "--listen",
                                 "127.0.0.1:0", "--framing", "delimiter")
        framing = FramingConfig("delimiter", delimiter=b"}")
        watchdog = threading.Timer(30, proc.kill)  # unblocks the reads below
        watchdog.start()
        try:
            address = read_address(proc, r"serving .* on ([\d.]+):(\d+)")
            with socket.create_connection(address, timeout=5) as conn:
                stream = MessageStream(conn, framing)
                stream.write(b"{id:37,op:A,sn:Durand}")
                assert stream.read() == b"{id:37,op:AddRsp,result:Ok}"
                proc.send_signal(signal.SIGINT)  # the connection still open
                _, err = proc.communicate(timeout=30)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err
        assert "exchange peer=" in err  # logged after the serving line

    def test_usage_error_exits_two(self, tmp_path):
        result = tracemock_run("build", "-i", tmp_path / "t.trace",
                               "-o", tmp_path / "m.model")
        assert result.returncode == 2
        assert "--clusters" in result.stderr

    def test_operational_error_exits_one(self, tmp_path):
        result = tracemock_run("build", "-i", tmp_path / "missing.trace",
                               "-o", tmp_path / "m.model", "--clusters", 2)
        assert result.returncode == 1
        assert "error:" in result.stderr


class TestBuildAndServe:
    def test_build_then_serve_answers_paper_request(self, tmp_path):
        trace = tmp_path / "paper.trace"
        model_path = tmp_path / "paper.model"
        run_cli("gen", "--paper-example", "-o", trace)
        assert run_cli("build", "-i", trace, "-o", model_path,
                       "--clusters", 2, "--threshold", 0.8) == 0

        from tracemock.emulator import EmulatorServer
        from tracemock.model import load_model
        server = EmulatorServer(load_model(model_path), ("127.0.0.1", 0),
                                FramingConfig("delimiter", delimiter=b"}"))
        host, port = server.start()
        try:
            with socket.create_connection((host, port), timeout=5) as sock:
                stream = MessageStream(sock, FramingConfig("delimiter",
                                                           delimiter=b"}"))
                stream.write(b"{id:37,op:A,sn:Durand}")
                assert stream.read() == b"{id:37,op:AddRsp,result:Ok}"
        finally:
            server.stop()

    def test_build_requires_clusters_flag(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        run_cli("gen", "--paper-example", "-o", trace)
        with pytest.raises(SystemExit) as exc:
            run_cli("build", "-i", trace, "-o", tmp_path / "m.model")
        assert exc.value.code == 2  # usage error


class TestValidateCommand:
    def test_reports_are_reproducible(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        run_cli("gen", "-n", 60, "--seed", 5, "-o", trace)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code = run_cli("validate", "-i", trace, "--responder", "hash",
                           "--folds", 5, "--repeats", 2, "--seed", 7,
                           "--json", out)
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["responder"] == "hash"
        assert report["total_requests"] == 60 * 2

    def test_prototype_validation_small(self, tmp_path):
        trace = tmp_path / "t.trace"
        run_cli("gen", "-n", 80, "--seed", 5, "-o", trace)
        out = tmp_path / "r.json"
        assert run_cli("validate", "-i", trace, "--responder", "prototype",
                       "--clusters", 5, "--folds", 4, "--repeats", 1,
                       "--seed", 1, "--json", out) == 0
        report = json.loads(out.read_text())
        assert report["accuracy"] >= 0.9


class TestBenchCommand:
    def test_bench_emits_all_responders(self, tmp_path):
        trace = tmp_path / "t.trace"
        run_cli("gen", "-n", 80, "--seed", 2, "-o", trace)
        out = tmp_path / "bench.json"
        assert run_cli("bench", "-i", trace, "--clusters", 5,
                       "--requests", 40, "--seed", 1, "--json", out) == 0
        report = json.loads(out.read_text())
        assert {t["name"] for t in report["timings"]} \
            == {"hash", "whole-library", "prototype"}


class TestErrors:
    def test_missing_trace_file_exits_one(self, capsys):
        assert run_cli("build", "-i", "/nonexistent/x.trace",
                       "-o", "/tmp/m.model", "--clusters", 2) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_corrupt_model_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_bytes(b"not a model at all")
        assert run_cli("serve", "-m", bad, "--listen", "127.0.0.1:0") == 1
