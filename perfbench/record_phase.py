"""The record phase: ``tracemock record`` between the load and a stub upstream.

Set-up starts the stub (its own process, answering from a seeded library),
starts ``tracemock record --framing length:4`` in front of it, connects two
connections and warms up on them.  The load is a closed loop with one
request outstanding on each connection.  The proxy is then stopped with
SIGINT while both client connections are still open, and the trace file
it writes at exit is checked against what was sent.
"""

import json
import statistics
import sys
import time
from pathlib import Path

from tracemock.harness import synthetic_library
from tracemock.trace import load_library, save_library

from checks import trace_faults
from loadgen import Conn, closed_loop, percentile, throughput, whole_rounds
from procs import Child

LIBRARY_TX = 500     # stub library; one round of the load sends each once
PER_SECOND = 1000    # requests sent per second of --seconds (fixed work)
CONNECTIONS = 2
WARMUP = 100         # requests sent in set-up, one at a time
STUB = Path(__file__).with_name("stub.py")


class Setup:
    """A stub, a recording proxy in front of it and warmed-up connections."""

    def __init__(self, run, spec, n: int):
        library, _ = synthetic_library(spec, LIBRARY_TX, run.sub_seed(3))
        self.requests = library.requests()
        self.answers = dict(zip(self.requests, library.responses()))
        stub_file = run.dir / f"stub-{n}.json"
        stub_file.write_text(json.dumps([[q.hex(), r.hex()]
                                         for q, r in self.answers.items()]))
        self.trace_path = run.dir / f"recorded-{n}.trace"
        self.children, self.conns = [], []
        try:
            self.stub = Child([sys.executable, str(STUB), str(stub_file)],
                              run.env, run.dir / f"stub-{n}.log")
            self.children.append(self.stub)
            stub_port = int(self.stub.wait_for(r"listening on (\d+)").group(1))
            self.stub_address = ("127.0.0.1", stub_port)
            self.proxy = Child.tracemock(
                ["record", "--listen", "127.0.0.1:0",
                 "--target", f"127.0.0.1:{stub_port}", "--framing", "length:4",
                 "-o", str(self.trace_path)], run.env, run.dir / f"record-{n}.log")
            self.children.append(self.proxy)
            host, port = self.proxy.wait_for(r"recording ([\d.]+):(\d+) ->").groups()
            self.conns = [Conn((host, int(port))) for _ in range(CONNECTIONS)]
            self.warmup = closed_loop(self.conns, self.requests[:WARMUP], 1)
        except BaseException:
            self.close()
            raise

    def warmup_faults(self):
        return (self.fault(e) for e in self.warmup)

    def fault(self, exchange) -> str | None:
        """Why a reply through the proxy is wrong: it must be the stub's."""
        if exchange.reply is None:
            return "missing"
        if exchange.reply != self.answers[self.requests[exchange.request]]:
            return "wrong-reply"
        return None

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        for child in self.children:
            child.kill()


def measure(run, setup: Setup) -> dict:
    """A fixed count of requests through the proxy, then its stop.

    A fixed count, not a fixed time: the trace written at stop then has the
    same size however fast the proxy is.  The traced run first sends half
    as many straight to the stub, for the proxy's added latency.
    """
    total = whole_rounds(PER_SECOND * run.seconds, LIBRARY_TX)
    direct = []
    if run.traced:
        conns = [Conn(setup.stub_address) for _ in range(CONNECTIONS)]
        try:
            direct = closed_loop(conns, setup.requests, 1,
                                 count=whole_rounds(total / 2, LIBRARY_TX))
        finally:
            for conn in conns:
                conn.close()
    cpu_before = setup.proxy.cpu_s()
    proxied = closed_loop(setup.conns, setup.requests, 1, count=total)
    cpu_s = setup.proxy.cpu_s() - cpu_before
    stop_s = setup.proxy.stop()  # SIGINT with both connections open
    setup.stub.stop()
    return {"direct": direct, "proxied": proxied, "cpu_s": cpu_s,
            "stop_s": stop_s}


def report(run, setup: Setup, result: dict) -> None:
    """Check the replies and the recorded trace, then add the metrics."""
    proxied = result["proxied"]
    run.count(setup.fault(e) for e in proxied)
    recorded = load_library(setup.trace_path)
    missing, extra, repeated = trace_faults(
        [(setup.requests[e.request], e.reply) for e in setup.warmup + proxied
         if e.reply is not None],
        [(t.index, t.request, t.response) for t in recorded])
    run.failed += missing  # answered, but the trace lost the exchange
    for name, n in (("trace-missing", missing), ("trace-extra", extra),
                    ("trace-repeated-index", repeated)):
        if n:
            run.faults[name] += n

    if not run.traced:
        run.metrics["record_stop_s"] = result["stop_s"]
        return

    answered = [e for e in proxied if e.reply is not None]
    latency_ms = [(e.done - e.sent) * 1e3 for e in answered]
    direct_ms = [(e.done - e.sent) * 1e3 for e in result["direct"]
                 if e.reply is not None]
    save_path = run.dir / "resaved.trace"
    plain_s, traced_s = [], []
    for _ in range(3):
        started = time.perf_counter()
        save_library(recorded, save_path)
        plain_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        with run.tracer.root("trace.save"):
            save_library(recorded, save_path)
        traced_s.append(time.perf_counter() - started)
    run.metrics.update({
        "proxy.added_us": (statistics.median(latency_ms)
                           - statistics.median(direct_ms)) * 1e3,
        "proxy.cpu_ms_per_req": result["cpu_s"] * 1e3 / len(answered),
        "loadgen.record_rps": throughput(proxied),
        "loadgen.record_p50_ms": statistics.median(latency_ms),
        "loadgen.record_p99_ms": percentile(latency_ms, 99),
        "trace.save_s": run.tracer.median_ns("trace.save") / 1e9,
    })
    run.overhead.append((statistics.median(traced_s), statistics.median(plain_s)))
