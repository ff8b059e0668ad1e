"""Symmetric fields: byte runs shared by a transaction's request and response.

At playback the shared runs are replaced with the corresponding bytes of
the live request, so identifiers echo back correctly.  Discovery picks
maximal common substrings of a minimum length, longest first, keeping the
chosen response ranges disjoint.
"""

from dataclasses import dataclass

import numpy as np

from .alignment import DEFAULT_SCORING, GAP, ScoringConfig, global_align

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
    """
    req = np.frombuffer(request, dtype=np.uint8)
    rsp = np.frombuffer(response, dtype=np.uint8)
    n, m = len(req), len(rsp)
    if n == 0 or m == 0:
        return ()
    eq = req[:, None] == rsp[None, :]
    runs = np.zeros((n, m), dtype=np.int32)
    runs[0] = eq[0]
    for i in range(1, n):
        runs[i, 0] = eq[i, 0]
        runs[i, 1:] = (runs[i - 1, :-1] + 1) * eq[i, 1:]

    candidates = []
    ends = np.argwhere(runs >= min_length)
    for i, j in ends:
        if i + 1 < n and j + 1 < m and eq[i + 1, j + 1]:
            continue  # not maximal, extends further down the diagonal
        length = int(runs[i, j])
        candidates.append((-length, int(j) - length + 1, int(i) - length + 1, length))

    chosen: list[SymmetricField] = []
    taken: list[tuple[int, int]] = []
    for neg_len, rsp_off, req_off, length in sorted(candidates):
        if any(rsp_off < end and start < rsp_off + length for start, end in taken):
            continue
        taken.append((rsp_off, rsp_off + length))
        chosen.append(SymmetricField(req_off, length, rsp_off, length))
    chosen.sort(key=lambda f: f.response_offset)
    return tuple(chosen)


def project_field(alignment, field: SymmetricField) -> bytes:
    """Live-request bytes covering a field of the aligned recorded request.

    ``alignment`` must be global_align(live_request, recorded_request).
    The projection spans from the column holding the field's first recorded
    byte to the column holding its last one, widened over the live-only
    columns (recorded GAP) that directly border it, so a live value longer
    than the recorded one is taken whole.  Gap positions are dropped.
    """
    live, recorded = alignment.aligned_a, alignment.aligned_b
    first = field.request_offset
    last = field.request_offset + field.request_length - 1
    span_start = span_end = None
    pos = 0
    for col, sym in enumerate(recorded):
        if sym == GAP:
            continue
        if pos == first:
            span_start = col
        if pos == last:
            span_end = col
            break
        pos += 1
    if span_start is None or span_end is None:
        return b""
    while span_start > 0 and recorded[span_start - 1] == GAP:
        span_start -= 1
    while span_end + 1 < len(recorded) and recorded[span_end + 1] == GAP:
        span_end += 1
    return bytes(s for s in live[span_start:span_end + 1] if s != GAP)


def substitute_response(live_request: bytes, recorded_request: bytes,
                        recorded_response: bytes,
                        fields: tuple[SymmetricField, ...],
                        cfg: ScoringConfig = DEFAULT_SCORING) -> bytes:
    """Splice live-request projections into the recorded response.

    Bytes outside field ranges are preserved; a field whose projection is
    empty keeps its recorded bytes so the response stays parseable.
    Variable-length projections shift the remaining response bytes.
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
