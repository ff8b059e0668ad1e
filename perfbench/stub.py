"""Stub upstream for the record phase: answers each request from a library.

    python3 perfbench/stub.py LIBRARY.json

LIBRARY.json is a list of [request hex, response hex] pairs.  The stub
listens on an ephemeral loopback port, prints ``listening on PORT`` and
answers length-prefixed (4-byte) requests in order on each connection.  It
does not use tracemock, so the proxy under test is the only tracemock code
on the recorded path.
"""

import asyncio
import json
import signal
import sys


class _Upstream(asyncio.Protocol):
    def __init__(self, answers: dict[bytes, bytes]):
        self.answers = answers
        self.buffer = bytearray()

    def connection_made(self, transport):
        self.transport = transport

    def data_received(self, data):
        self.buffer += data
        out = bytearray()
        while len(self.buffer) >= 4:
            end = 4 + int.from_bytes(self.buffer[:4], "big")
            if len(self.buffer) < end:
                break
            reply = self.answers.get(bytes(self.buffer[4:end]), b"{unknown}")
            out += len(reply).to_bytes(4, "big") + reply
            del self.buffer[:end]
        if out:
            self.transport.write(out)


async def _serve(answers: dict[bytes, bytes]) -> None:
    loop = asyncio.get_running_loop()
    stopped = loop.create_future()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stopped.set_result, None)
    server = await loop.create_server(lambda: _Upstream(answers), "127.0.0.1", 0)
    print(f"listening on {server.sockets[0].getsockname()[1]}", flush=True)
    await stopped
    server.close()


def main() -> None:
    with open(sys.argv[1]) as fh:
        pairs = json.load(fh)
    asyncio.run(_serve({bytes.fromhex(q): bytes.fromhex(r) for q, r in pairs}))


if __name__ == "__main__":
    main()
