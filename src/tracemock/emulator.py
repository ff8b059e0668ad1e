"""Playback runtime: match a live request, generate and serve the response.

Matching computes the relative distance of the request against every
node's prototype and picks the argmin (ties go to the lowest cluster id).
Generation aligns the live request with the chosen node's centroid request
and splices the symmetric-field projections into the centroid response.

The server listens on TCP and runs one asyncio event loop on one thread.
That thread accepts and reads every connection, splits the bytes into
messages with a FrameDecoder, and answers each request inline, in order,
emitting one structured log line per exchange.  There are no
per-connection threads: the DP kernels release the GIL, so the loop
thread computes a response while client threads in the same process run.
The model is immutable and shared read-only.
"""

import asyncio
import logging
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

from .alignment import (DEFAULT_SCORING, PrototypeScorer, ScoringConfig,
                        as_symbols)
from .errors import EmptyInputError, FramingProtocolError
from .fields import substitute_response
from .framing import (MODE_IDLE, READ_CHUNK, FrameDecoder, FramingConfig,
                      encode)
from .model import MatchingNode, OpaqueServiceModel

__all__ = [
    "MatchOutcome", "RequestMatcher", "match_request", "generate_response",
    "EmulatorServer", "serve",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MatchOutcome:
    """Relative distance per node plus the chosen cluster id."""

    distances: tuple[tuple[int, float], ...]
    chosen: int


class RequestMatcher:
    """Reusable matcher holding the model's precomputed scoring arrays.

    Each node's centroid request is turned into symbols here, once, for
    the alignment that generation runs per request.
    """

    def __init__(self, model: OpaqueServiceModel):
        self.model = model
        self.nodes = sorted(model.nodes, key=lambda n: n.cluster_id)
        self._ids = [n.cluster_id for n in self.nodes]
        self._by_id = {n.cluster_id: n for n in self.nodes}
        self._centroid_symbols = {n.cluster_id: as_symbols(n.centroid.request)
                                  for n in self.nodes}
        self._scorer = PrototypeScorer(
            [n.prototype.symbols for n in self.nodes],
            [n.weights for n in self.nodes],
            model.scoring)

    def match(self, request: bytes) -> MatchOutcome:
        if not request:
            raise EmptyInputError("cannot match an empty request")
        rel = self._scorer.relative_distances(request)
        chosen = self._ids[int(np.argmin(rel))]
        return MatchOutcome(tuple(zip(self._ids, rel.tolist())), chosen)

    def node_for(self, cluster_id: int) -> MatchingNode:
        return self._by_id[cluster_id]

    def respond(self, request: bytes) -> tuple[bytes, MatchOutcome]:
        outcome = self.match(request)
        node = self.node_for(outcome.chosen)
        return generate_response(node, request, self.model.scoring,
                                 self._centroid_symbols[outcome.chosen]), outcome


def match_request(model: OpaqueServiceModel, request: bytes) -> MatchOutcome:
    """One-shot matching; build a RequestMatcher for hot loops."""
    return RequestMatcher(model).match(request)


def generate_response(node: MatchingNode, live_request: bytes,
                      cfg: ScoringConfig = DEFAULT_SCORING,
                      centroid_symbols: np.ndarray | None = None) -> bytes:
    """Centroid response with symmetric fields projected from the live request.

    ``centroid_symbols`` may hold ``as_symbols(node.centroid.request)``,
    made once by the caller.
    """
    recorded = node.centroid.request if centroid_symbols is None else centroid_symbols
    return substitute_response(live_request, recorded, node.centroid.response,
                               node.fields, cfg)


class EmulatorServer:
    """TCP server playing back an OpaqueServiceModel on one event-loop thread.

    ``start()`` binds, starts the loop thread and returns the bound
    address; ``stop()`` closes the listener and every open connection, then
    joins the loop thread.
    """

    def __init__(self, model: OpaqueServiceModel,
                 listen: tuple[str, int] = ("127.0.0.1", 0),
                 framing: FramingConfig = FramingConfig()):
        self.model = model
        self.framing = framing
        self._matcher = RequestMatcher(model)
        self._listen = listen
        self._sock: socket.socket | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        # Touched by the loop thread only.
        self._writers: set[asyncio.StreamWriter] = set()
        self._closing = False

    @property
    def address(self) -> tuple[str, int]:
        if self._sock is None:
            raise RuntimeError("server not started")
        return self._sock.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        # asyncio sets TCP_NODELAY on accepted sockets only if proto is TCP.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(self._listen)
        sock.listen(128)
        self._sock = sock
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        daemon=True, name="emulator-loop")
        self._thread.start()
        self._server = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(self._client, sock=sock), self._loop).result()
        logger.info("serving %d-node model on %s:%d",
                    len(self.model.nodes), *self.address)
        return self.address

    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter):
        """Read, answer and write one connection's messages in order."""
        peer = writer.get_extra_info("peername")
        decoder = FrameDecoder(self.framing)
        idle_s = (self.framing.idle_timeout_ms / 1000.0
                  if self.framing.mode == MODE_IDLE else None)
        self._writers.add(writer)
        try:
            while not decoder.eof:
                try:
                    chunk = await asyncio.wait_for(
                        reader.read(READ_CHUNK),
                        idle_s if decoder.pending else None)
                    if self._closing:
                        return  # stop() aborted the connection
                    requests = decoder.feed(chunk)
                except asyncio.TimeoutError:
                    requests = [decoder.flush()]  # silence ends the message
                except FramingProtocolError as exc:
                    logger.warning("peer=%s framing error: %s", peer, exc)
                    return
                for request in requests:
                    self._exchange(request, writer, peer)
                await writer.drain()
        except (ConnectionError, OSError):
            return
        finally:
            self._writers.discard(writer)
            writer.close()

    def _exchange(self, request: bytes, writer: asyncio.StreamWriter, peer):
        started = time.perf_counter()
        response, outcome = self._matcher.respond(request)
        writer.write(encode(self.framing, response))
        if not logger.isEnabledFor(logging.INFO):
            return
        elapsed_us = int((time.perf_counter() - started) * 1e6)
        distance = next(d for cid, d in outcome.distances if cid == outcome.chosen)
        logger.info(
            "exchange peer=%s cluster=%d distance=%.4f latency_us=%d "
            "request_bytes=%d response_bytes=%d",
            peer, outcome.chosen, distance, elapsed_us, len(request), len(response))

    async def _shutdown(self):
        self._closing = True
        self._server.close()
        # Aborting a transport ends its handler's pending read.  A connection
        # accepted just before close() starts its handler a few loop steps
        # later, so abort again on each pass until the loop holds no task
        # but this one.
        while tasks := asyncio.all_tasks() - {asyncio.current_task()}:
            for writer in self._writers:
                writer.transport.abort()
            await asyncio.wait(tasks, timeout=0.05)
        await self._server.wait_closed()
        await asyncio.sleep(0)  # run the connection_lost callbacks abort() queued

    def stop(self):
        if self._loop is None:
            return
        loop, self._loop = self._loop, None
        try:
            asyncio.run_coroutine_threadsafe(self._shutdown(), loop).result()
        finally:
            loop.call_soon_threadsafe(loop.stop)
            self._thread.join()
            loop.close()

    def serve_forever(self):
        """Block until interrupted; used by the CLI.

        An interrupt that lands while ``start()`` still logs its ready line
        (already readable by whoever waits for it) also stops cleanly.
        """
        try:
            if self._sock is None:
                self.start()
            while True:
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()


def serve(model: OpaqueServiceModel, listen: tuple[str, int],
          framing: FramingConfig = FramingConfig()) -> None:
    """Serve the model until interrupted (blocking convenience wrapper)."""
    EmulatorServer(model, listen, framing).serve_forever()
