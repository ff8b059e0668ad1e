"""Symmetric fields: byte runs shared by a transaction's request and response.

At playback the shared runs are replaced with the corresponding bytes of
the live request, so identifiers echo back correctly.  Discovery picks
maximal common substrings of a minimum length, longest first, keeping the
chosen response ranges disjoint.
"""

from dataclasses import dataclass

import numpy as np

from .alignment import (ADVANCE_B, DEFAULT_SCORING, Alignment, ScoringConfig,
                        global_align)

DEFAULT_MIN_FIELD_LENGTH = 4


@dataclass(frozen=True)
class SymmetricField:
    """Matching byte ranges inside a transaction's request and response."""

    request_offset: int
    request_length: int
    response_offset: int
    response_length: int


def find_symmetric_fields(request: bytes, response: bytes,
                          min_length: int = DEFAULT_MIN_FIELD_LENGTH
                          ) -> tuple[SymmetricField, ...]:
    """Maximal common substrings of length >= min_length.

    Candidates are ranked longest first (ties by leftmost response offset,
    then leftmost request offset) and accepted greedily when their response
    range does not overlap an earlier pick.  Result is sorted by response
    offset.  Deterministic.

    Runs are counted one request byte at a time from the previous byte's
    row, kept only where the bytes are equal, so memory is O(|response| +
    candidates) and time O(n + m + equal byte pairs).
    """
    if min_length < 1:
        raise ValueError("min_length must be at least 1")
    n, m = len(request), len(response)
    at: dict[int, list[int]] = {}  # response offsets of each byte value
    for j, byte in enumerate(response):
        at.setdefault(byte, []).append(j)
    candidates = []
    run: dict[int, int] = {}  # j -> length of the common run ending at (i, j)
    for i, byte in enumerate(request):
        run = {j: run.get(j - 1, 0) + 1 for j in at.get(byte, ())}
        following = request[i + 1] if i + 1 < n else None
        for j, length in run.items():
            if length < min_length:
                continue
            if j + 1 < m and response[j + 1] == following:
                continue  # not maximal, extends further down the diagonal
            candidates.append((-length, j - length + 1, i - length + 1, length))

    chosen: list[SymmetricField] = []
    taken: list[tuple[int, int]] = []
    for neg_len, rsp_off, req_off, length in sorted(candidates):
        if any(rsp_off < end and start < rsp_off + length for start, end in taken):
            continue
        taken.append((rsp_off, rsp_off + length))
        chosen.append(SymmetricField(req_off, length, rsp_off, length))
    chosen.sort(key=lambda f: f.response_offset)
    return tuple(chosen)


def project_field(alignment: Alignment, field: SymmetricField) -> bytes:
    """Live-request bytes covering a field of the aligned recorded request.

    ``alignment`` must be global_align(live_request, recorded_request).
    The projection spans from the column holding the field's first recorded
    byte to the column holding its last one, widened over the live-only
    columns that directly border it, so a live value longer than the
    recorded one is taken whole.  A field outside the recorded request
    projects to nothing.

    The widened span runs from just after the previous recorded byte's
    column to just before the next one's, so it is read from the moves as
    positions and cut from the live request as one slice; the gap-padded
    rows are never built.
    """
    moves = alignment.moves
    recorded = (moves & ADVANCE_B).nonzero()[0]  # the column of each recorded byte
    first = field.request_offset
    stop = first + field.request_length
    if first < 0 or stop <= first or stop > len(recorded):
        return b""
    start_col = int(recorded[first - 1]) + 1 if first else 0
    stop_col = int(recorded[stop]) if stop < len(recorded) else len(moves)
    # Each column holds a live byte unless it advances the recorded side only.
    codes = moves.tobytes()
    live_start = start_col - codes.count(ADVANCE_B, 0, start_col)
    live_stop = stop_col - codes.count(ADVANCE_B, 0, stop_col)
    return alignment.a[live_start:live_stop].astype(np.uint8).tobytes()


def substitute_response(live_request: bytes, recorded_request: bytes | np.ndarray,
                        recorded_response: bytes,
                        fields: tuple[SymmetricField, ...],
                        cfg: ScoringConfig = DEFAULT_SCORING) -> bytes:
    """Splice live-request projections into the recorded response.

    Aligns the live request with the recorded one (bytes, or the same as
    symbols from ``as_symbols``) once, then projects each field from that
    alignment's moves.  Bytes outside field ranges are preserved; a field
    whose projection is empty keeps its recorded bytes so the response
    stays parseable.  Variable-length projections shift the remaining
    response bytes.
    """
    if not fields:
        return recorded_response
    aln = global_align(live_request, recorded_request, cfg)
    pieces = []
    cursor = 0
    for field in fields:
        pieces.append(recorded_response[cursor:field.response_offset])
        projected = project_field(aln, field)
        if not projected:
            projected = recorded_response[field.response_offset:
                                          field.response_offset + field.response_length]
        pieces.append(projected)
        cursor = field.response_offset + field.response_length
    pieces.append(recorded_response[cursor:])
    return b"".join(pieces)
