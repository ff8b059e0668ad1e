"""The serve phase: ``tracemock serve`` under live load.

Set-up builds a 5-node model from a seeded library, saves it, starts
``tracemock serve --framing length:4`` in its own process at the default
log level, connects two connections and warms up on them.  Held-out
requests from another seed then arrive in two steps on the same two
connections: an open loop at a fixed rate (latency), then a closed loop
with a fixed window on each connection (throughput).
"""

import re
import statistics
import time
from contextlib import nullcontext

import tracemock.emulator as tm_emulator
import tracemock.fields as tm_fields
import tracemock.framing as tm_framing
from tracemock.emulator import RequestMatcher
from tracemock.framing import FramingConfig
from tracemock.harness import synthetic_library
from tracemock.model import build_model, load_model, save_model

from checks import reply_fault
from loadgen import Conn, closed_loop, open_loop, percentile, throughput
from procs import Child

MODEL_TX = 150       # library the model is built from
HELD_OUT = 500       # requests in one round of the load
RATE = {"standard": 1200.0, "long": 1000.0}  # open-loop requests per second
SETTLE_S = 0.5       # untimed open loop first (at least one round)
WINDOW = 8           # closed-loop requests outstanding per connection
CONNECTIONS = 2
WARMUP = 100         # requests sent in set-up, one at a time
FRAMING = "length:4"

# What the in-process passes wrap: (owner, attribute, span name), where
# ``respond`` and the exchange loop look each function up.
LAYERS = (
    (RequestMatcher, "match", "emulator.match"),
    (tm_emulator, "generate_response", "emulator.generate"),
    (tm_fields, "global_align", "alignment.global_align"),
    (tm_framing.FrameDecoder, "feed", "framing.decode"),
    (tm_framing, "encode", "framing.encode"),
)

_EXCHANGE = re.compile(r"exchange peer=\('[^']*', (\d+)\).*? latency_us=(\d+)")


class Setup:
    """A started server with warmed-up connections."""

    def __init__(self, run, spec, profile: str, n: int):
        self.rate = RATE[profile]
        library, _ = synthetic_library(spec, MODEL_TX, run.sub_seed(1))
        held, self.labels = synthetic_library(spec, HELD_OUT, run.sub_seed(2))
        self.requests = held.requests()
        self.model_path = run.dir / f"model-{n}.osvm"
        save_model(build_model(library, 5), self.model_path)
        self.server = Child.tracemock(
            ["serve", "-m", str(self.model_path), "--listen", "127.0.0.1:0",
             "--framing", FRAMING], run.env, run.dir / f"serve-{n}.log")
        self.conns = []
        try:
            host, port = self.server.wait_for(
                r"serving \d+-node model on ([\d.]+):(\d+)").groups()
            self.conns = [Conn((host, int(port))) for _ in range(CONNECTIONS)]
            self.warmup = closed_loop(self.conns, self.requests[:WARMUP], 1)
        except BaseException:
            self.close()
            raise

    def warmup_faults(self):
        return (reply_fault(self.requests[e.request], self.labels[e.request],
                            e.reply) for e in self.warmup)

    def close(self) -> None:
        """Close the connections and kill the server if it still runs."""
        for conn in self.conns:
            conn.close()
        self.server.kill()


def measure(setup: Setup, open_s: float, single_s: float,
            closed_s: float) -> dict:
    """The open loop, then a closed loop with one request outstanding on
    each connection, then one with ``WINDOW`` outstanding.

    An untimed round of the open loop goes first: the connections have been
    idle since set-up, and the first replies after an idle spell are not
    held back the way later ones are (see README).  The server's CPU time
    is read before and after the first two loops, in which it handles one
    request per wake-up, and around the last one.
    """
    settled = open_loop(setup.conns, setup.requests, setup.rate, SETTLE_S)
    cpu = [setup.server.cpu_s()]
    opened = open_loop(setup.conns, setup.requests, setup.rate, open_s)
    single = closed_loop(setup.conns, setup.requests, 1, seconds=single_s)
    cpu.append(setup.server.cpu_s())
    closed = closed_loop(setup.conns, setup.requests, WINDOW, seconds=closed_s)
    cpu.append(setup.server.cpu_s())
    rss_mb = setup.server.peak_rss_mb()
    setup.server.stop()
    return {"settled": settled, "opened": opened, "single": single,
            "closed": closed, "cpu_s": cpu[1] - cpu[0],
            "closed_cpu_s": cpu[2] - cpu[1], "rss_mb": rss_mb}


def report(run, setup: Setup, result: dict) -> None:
    """Check every reply, then add this phase's metrics to ``run``."""
    opened, single, closed = result["opened"], result["single"], result["closed"]
    run.count(reply_fault(setup.requests[e.request], setup.labels[e.request],
                          e.reply) for phase in ("settled", "opened", "single",
                                                 "closed")
              for e in result[phase])

    answered = [e for e in opened if e.reply is not None]
    if not run.traced:
        run.metrics.update({
            "serve_cpu_ms": result["cpu_s"] * 1e3 / sum(
                e.reply is not None for e in opened + single),
            "server_rss_mb": result["rss_mb"],
        })
        return

    logged = {}
    for port, latency_us in _EXCHANGE.findall(setup.server.log.read_text()):
        logged.setdefault(int(port), []).append(int(latency_us))
    exchange_us = [logged[e.conn.port][e.seq] for e in answered]
    run.metrics.update({
        "loadgen.serve_p50_ms": statistics.median(
            (e.done - e.due) * 1e3 for e in answered),
        "loadgen.serve_p99_ms": percentile(
            [(e.done - e.due) * 1e3 for e in answered], 99),
        "emulator.exchange_us": statistics.median(exchange_us),
        "emulator.queue_wait_p99_ms": percentile(
            [(e.done - e.sent) * 1e3 - us / 1e3
             for e, us in zip(answered, exchange_us)], 99),
        "loadgen.serve_rtt_ms": statistics.median(
            (e.done - e.sent) * 1e3 for e in single if e.reply is not None),
        "loadgen.serve_rps": throughput(closed),
        "server.cpu_ms_per_req": result["closed_cpu_s"] * 1e3 / sum(
            e.reply is not None for e in closed),
        "loadgen.late_p99_ms": percentile(
            [(e.sent - e.due) * 1e3 for e in opened if e.sent is not None], 99),
    })
    _in_process(run, setup)


def _in_process(run, live: Setup) -> None:
    """Per-layer costs of the same requests, called in this process.

    Each request goes through what the server does for it: the decoder,
    ``RequestMatcher.respond`` and ``encode``.  The traced passes wrap the
    public functions those calls look up; the untraced passes give the
    tracing overhead.
    """
    tracer = run.tracer
    load_s = []
    for _ in range(5):
        started = time.perf_counter()
        model = load_model(live.model_path)
        load_s.append(time.perf_counter() - started)
    matcher = RequestMatcher(model)
    cfg = FramingConfig.parse(FRAMING)
    frames = [tm_framing.encode(cfg, r) for r in live.requests]

    def exchanges(root):
        decoder = tm_framing.FrameDecoder(cfg)
        for frame in frames:
            with root():
                for request in decoder.feed(frame):
                    response, _ = matcher.respond(request)
                    tm_framing.encode(cfg, response)

    plain_s, traced_s = [], []
    for rep in range(3):
        started = time.perf_counter()
        exchanges(nullcontext)
        plain_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        with tracer.patch(LAYERS):
            exchanges(lambda: tracer.root("exchange"))
        traced_s.append(time.perf_counter() - started)
    run.metrics["model.load_s"] = statistics.median(load_s)
    for _, _, name in LAYERS:
        run.metrics[name + "_us"] = tracer.median_ns(name) / 1e3
    run.overhead.append((statistics.median(traced_s), statistics.median(plain_s)))
