"""Independent brute-force oracles used by the tests.

Everything here enumerates alignments explicitly, or keeps an earlier,
plainer form of a fast path, and never touches the package's DP code
paths, so agreement is meaningful evidence.
"""

import itertools

import numpy as np

from tracemock.alignment import GAP, WILDCARD, ScoringConfig
from tracemock.fields import SymmetricField


def enumerate_alignments(la: int, lb: int):
    """Yield every monotone global alignment as a list of (i, j) moves.

    A move advances a (i=1), b (j=1) or both.  Generated recursively from
    the front; the count follows the Delannoy numbers.
    """
    if la == 0 and lb == 0:
        yield []
        return
    if la > 0:
        for rest in enumerate_alignments(la - 1, lb):
            yield [(1, 0)] + rest
    if lb > 0:
        for rest in enumerate_alignments(la, lb - 1):
            yield [(0, 1)] + rest
    if la > 0 and lb > 0:
        for rest in enumerate_alignments(la - 1, lb - 1):
            yield [(1, 1)] + rest


def brute_force_score(a, b, cfg: ScoringConfig) -> float:
    """Maximum global alignment score by exhaustive path enumeration."""
    a = list(a)
    b = list(b)
    best = None
    for moves in enumerate_alignments(len(a), len(b)):
        score = 0.0
        i = j = 0
        for da, db in moves:
            if da and db:
                score += cfg.match_score if a[i] == b[j] else cfg.mismatch_penalty
            else:
                score += cfg.gap_penalty
            i += da
            j += db
        if best is None or score > best:
            best = score
    return best


def brute_force_weighted_score(prototype, weights, request,
                               cfg: ScoringConfig) -> float:
    """Exhaustive maximum of the weighted wildcard scheme.

    Costs mirror the package contract: literal pairs score w*match or
    w*mismatch, wildcard pairs w*wildcard; skipping a wildcard position
    costs w*wildcard, skipping a literal w*gap; inserting a request byte
    next to a wildcard costs that wildcard's w*wildcard, elsewhere
    mean(w)*gap.
    """
    p = list(prototype)
    w = list(weights)
    r = list(request)
    mean_w = sum(w) / len(w)

    def insert_cost(consumed: int) -> float:
        nxt = p[consumed] if consumed < len(p) else None
        prev = p[consumed - 1] if consumed > 0 else None
        if nxt == WILDCARD:
            return w[consumed] * cfg.wildcard_score
        if prev == WILDCARD:
            return w[consumed - 1] * cfg.wildcard_score
        return mean_w * cfg.gap_penalty

    best = None
    for moves in enumerate_alignments(len(p), len(r)):
        score = 0.0
        i = j = 0
        for dp, dr in moves:
            if dp and dr:
                if p[i] == WILDCARD:
                    score += w[i] * cfg.wildcard_score
                elif p[i] == r[j]:
                    score += w[i] * cfg.match_score
                else:
                    score += w[i] * cfg.mismatch_penalty
            elif dp:
                if p[i] == WILDCARD:
                    score += w[i] * cfg.wildcard_score
                else:
                    score += w[i] * cfg.gap_penalty
            else:
                score += insert_cost(i)
            i += dp
            j += dr
        if best is None or score > best:
            best = score
    return best


def recursive_weighted_score(prototype, weights, request,
                             cfg: ScoringConfig) -> float:
    """Same cost model as brute_force_weighted_score via memoised recursion.

    Path enumeration is exponential; this top-down formulation stays exact
    at the 12-byte example length while remaining independent of the
    package's bottom-up vectorised DP.
    """
    p = list(prototype)
    w = list(weights)
    r = list(request)
    mean_w = sum(w) / len(w)

    def pair_score(i, j):
        if p[i] == WILDCARD:
            return w[i] * cfg.wildcard_score
        return w[i] * (cfg.match_score if p[i] == r[j] else cfg.mismatch_penalty)

    def skip_proto(i):
        if p[i] == WILDCARD:
            return w[i] * cfg.wildcard_score
        return w[i] * cfg.gap_penalty

    def insert_cost(consumed):
        nxt = p[consumed] if consumed < len(p) else None
        prev = p[consumed - 1] if consumed > 0 else None
        if nxt == WILDCARD:
            return w[consumed] * cfg.wildcard_score
        if prev == WILDCARD:
            return w[consumed - 1] * cfg.wildcard_score
        return mean_w * cfg.gap_penalty

    memo = {}

    def best(i, j):
        if (i, j) in memo:
            return memo[i, j]
        if i == len(p) and j == len(r):
            value = 0.0
        elif i == len(p):
            value = insert_cost(i) + best(i, j + 1)
        elif j == len(r):
            value = skip_proto(i) + best(i + 1, j)
        else:
            value = max(pair_score(i, j) + best(i + 1, j + 1),
                        skip_proto(i) + best(i + 1, j),
                        insert_cost(i) + best(i, j + 1))
        memo[i, j] = value
        return value

    return best(0, 0)


def consensus_by_cases(columns, rows: int, threshold: float):
    """Clause-by-clause consensus evaluation on raw occurrence columns.

    Returns the prototype symbols; truncated columns are dropped.  Mirrors
    the published rule directly: take the modal symbol (gap loses ties,
    byte ties broken by smaller value), emit it when its relative frequency
    reaches the threshold and it is not a gap, delete gap-modal columns at
    frequency >= 1/2, wildcard otherwise.
    """
    out = []
    for column in columns:
        non_gap = {s: c for s, c in column.items() if s != GAP}
        mode = None
        if non_gap:
            top = max(non_gap.values())
            mode = min(s for s, c in non_gap.items() if c == top)
        gap_count = column.get(GAP, 0)
        if mode is None or gap_count > non_gap[mode]:
            if gap_count / rows >= 0.5:
                continue
            out.append(WILDCARD)
        elif non_gap[mode] / rows >= threshold:
            out.append(mode)
        else:
            out.append(WILDCARD)
    return tuple(out)


def all_sequences(alphabet, max_len: int):
    """Every tuple over ``alphabet`` with length 0..max_len."""
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def matrix_symmetric_fields(request: bytes, response: bytes, min_length: int
                            ) -> tuple[SymmetricField, ...]:
    """find_symmetric_fields over the full n x m run-length matrix.

    Run lengths of common substrings end at each (i, j); a run is maximal
    when the next cell down its diagonal differs.  Candidates are taken
    longest first, then by response and request offset, keeping response
    ranges disjoint.
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
    for i, j in np.argwhere(runs >= min_length):
        if i + 1 < n and j + 1 < m and eq[i + 1, j + 1]:
            continue
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


def walk_project_field(live, recorded, field: SymmetricField) -> bytes:
    """project_field by walking the gap-padded aligned rows.

    ``live`` and ``recorded`` are aligned_a and aligned_b of
    global_align(live_request, recorded_request).  The span runs from the
    column of the field's first recorded byte to that of its last one,
    widened over directly bordering columns where recorded is GAP.
    """
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


def loop_encode_field(data: bytes) -> str:
    """encode_field one byte at a time."""
    out = []
    for b in data:
        if b == 0x5C:
            out.append("\\\\")
        elif 0x20 <= b <= 0x7E:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)
