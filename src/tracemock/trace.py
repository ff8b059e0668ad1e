"""Transaction data model and the on-disk trace format.

A trace file is line oriented: one record per line, three tab-separated
fields ``index<TAB>request<TAB>response``.  Request and response bytes are
armored so arbitrary octets (including tabs, newlines and NULs) survive:

* printable ASCII 0x20..0x7e except backslash is written literally,
* backslash is written ``\\\\``,
* every other octet is written ``\\xNN`` with two lowercase hex digits.

The armor is reversible byte-for-byte, keeps files diff-able, and lets the
recording proxy append records as exchanges complete.  Write failures
surface as the stdlib OSError hierarchy.
"""

from dataclasses import dataclass

from .errors import (DuplicateIndexError, EmptyRequestOrResponseError,
                     TraceFormatError)


@dataclass(frozen=True)
class Transaction:
    """One recorded request/response byte pair."""

    index: int
    request: bytes
    response: bytes

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("transaction index must be non-negative")


@dataclass(frozen=True)
class TransactionLibrary:
    """Ordered, immutable collection of transactions with unique indices."""

    transactions: tuple[Transaction, ...]

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self):
        return iter(self.transactions)

    def __getitem__(self, position: int) -> Transaction:
        return self.transactions[position]

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(t.index for t in self.transactions)

    def requests(self) -> list[bytes]:
        return [t.request for t in self.transactions]

    def responses(self) -> list[bytes]:
        return [t.response for t in self.transactions]


# Printable ASCII stands for itself, a backslash is doubled, and every
# other byte value is written as \xHH.
_ESCAPES = {b: f"\\x{b:02x}" for b in range(256) if not 0x20 <= b <= 0x7E}
_ESCAPES[0x5C] = "\\\\"


def encode_field(data: bytes) -> str:
    text = data.decode("latin-1")  # one character per byte value
    if text.isascii() and text.isprintable():
        return text.replace("\\", "\\\\")
    return text.translate(_ESCAPES)


_HEX_DIGITS = set("0123456789abcdefABCDEF")


def decode_field(text: str, record: int) -> bytes:
    out = bytearray()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == "\\":
                out.append(0x5C)
                i += 2
                continue
            hexpart = text[i + 2:i + 4]
            if nxt == "x" and len(hexpart) == 2 and set(hexpart) <= _HEX_DIGITS:
                out.append(int(hexpart, 16))
                i += 4
                continue
            raise TraceFormatError(record, f"bad escape at offset {i}")
        code = ord(ch)
        if not 0x20 <= code <= 0x7E:
            raise TraceFormatError(record, f"raw control character {code:#x}")
        out.append(code)
        i += 1
    return bytes(out)


def format_record(index: int, request: bytes, response: bytes) -> str:
    return "\t".join((str(index), encode_field(request),
                      encode_field(response))) + "\n"


def parse_record(line: str, record: int) -> Transaction:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise TraceFormatError(record, f"expected 3 tab-separated fields, got {len(parts)}")
    try:
        index = int(parts[0], 10)
    except ValueError:
        raise TraceFormatError(record, f"bad index {parts[0]!r}")
    if index < 0:
        raise TraceFormatError(record, f"negative index {index}")
    request = decode_field(parts[1], record)
    response = decode_field(parts[2], record)
    if not request or not response:
        which = "request" if not request else "response"
        raise EmptyRequestOrResponseError(record, f"empty {which}")
    return Transaction(index, request, response)


def load_library(path) -> TransactionLibrary:
    """Load a trace file, preserving record order.

    Raises TraceFormatError (with the 1-based record number) for malformed
    records, including empty requests/responses and duplicate indices.
    """
    transactions = []
    seen: set[int] = set()
    with open(path, "r", encoding="ascii") as fh:
        for record, line in enumerate(fh, start=1):
            if line.strip() == "":
                raise TraceFormatError(record, "blank line")
            tx = parse_record(line, record)
            if tx.index in seen:
                raise DuplicateIndexError(record, f"duplicate index {tx.index}")
            seen.add(tx.index)
            transactions.append(tx)
    return TransactionLibrary(tuple(transactions))


def save_library(library: TransactionLibrary, path) -> None:
    """Write a trace file; load_library(save_library(L)) reproduces L exactly."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        for tx in library:
            fh.write(format_record(tx.index, tx.request, tx.response))
