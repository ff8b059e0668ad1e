"""Global sequence alignment over raw bytes.

Two DP kernels run the linear-gap Needleman-Wunsch recurrence:

* the scoring kernel, ``PrototypeScorer``, scores one request against many
  sequences from per-column tables (match and no-match values, a gap
  prefix, insert costs) and keeps no traceback.  Prototype matching uses
  weighted wildcard tables; the distance matrices and the whole-library
  baseline use plain ones (``PrototypeScorer.plain``).
* the traceback kernel fills one pair's table from a full score matrix
  with per-row gap costs and records how each cell was reached
  (``_dp_fill``), then walks those records back into the moves of one
  optimal path (``_traceback``), for ``global_align`` and the profile
  merge of ``msa``.

They stay apart because their costs have different shapes and only one
keeps a traceback; a shared kernel would branch on its caller.

Within a row the "consume b against a gap" transition is a running maximum
over prefix sums, exact for linear gap costs.  Traceback reads choice
records made while filling, never re-derived float comparisons, so
tie-breaking (diagonal, then gap-in-b, then gap-in-a) is deterministic.

A path is a uint8 array with one move per alignment column: ADVANCE_A,
ADVANCE_B, or both bits.  Callers read positions from it directly (the MSA
merge places rows with it, field projection slices the live request with
it); ``Alignment`` builds the gap-padded rows only when they are read.

The scoring kernel is inter-sequence SIMD (Rognes, BMC Bioinformatics
12:221, 2011): it scores ``LANES`` (8) sequences at once, one per float64
lane of a 512-bit vector.  ``PrototypeScorer`` groups the sequences in
blocks of 8 in their given order and stores each table once, lane-fastest
(block, column, lane).  ``_dp.c`` runs its AVX-512 body when the CPU has
AVX-512F, chosen at run time, and otherwise the same lane loop in plain C.
Each lane performs the scalar recurrence's float operations in the same
order, every select is a bitwise blend on a compare mask (or ``vmaxpd``
with its operands ordered to give ``a >= b ? a : b``), and the build
contracts nothing into fused multiply-adds, so both bodies equal the numpy
reference bit for bit.

Both kernels run natively (``native.py``) when they could be built.  The
numpy fill, ``PrototypeScorer._scores_numpy`` and the Python walk
``_trace_moves`` stay as their bit-identical reference and fallback.
"""

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import native
from .errors import EmptyInputError, LengthMismatchError

# Sentinel symbols outside the 256 byte values.  GAP marks alignment padding,
# WILDCARD marks a high-variability prototype position.
GAP = 256
WILDCARD = 257

_SYMBOL_SPACE = 258  # bytes + GAP + WILDCARD


@dataclass(frozen=True)
class ScoringConfig:
    """Alignment scoring constants.

    ``wildcard_score`` only matters for prototype matching; plain alignment
    never sees a wildcard symbol.
    """

    match_score: float = 1.0
    mismatch_penalty: float = -1.0
    gap_penalty: float = -1.0
    wildcard_score: float = 0.0

    def __post_init__(self):
        if self.match_score <= 0:
            raise ValueError("match_score must be positive")
        if self.mismatch_penalty >= self.match_score:
            raise ValueError("mismatch_penalty must be below match_score")
        if self.gap_penalty > 0:
            raise ValueError("gap_penalty must be <= 0")


DEFAULT_SCORING = ScoringConfig()


# Bits of one traceback move: the column consumes a symbol of a, of b, or both.
ADVANCE_A = 1
ADVANCE_B = 2


@dataclass(frozen=True, eq=False)
class Alignment:
    """A global alignment of two sequences.

    ``moves`` holds one uint8 per column (ADVANCE_A, ADVANCE_B or both);
    ``a`` and ``b`` are the input sequences as symbols.  ``aligned_a`` and
    ``aligned_b`` are built when first read: they have equal length,
    contain byte values plus GAP, and never hold GAP in the same position.
    Removing GAPs reproduces the inputs exactly.  Equality and hashing
    follow (aligned_a, aligned_b, score).
    """

    moves: np.ndarray
    a: np.ndarray
    b: np.ndarray
    score: float

    @functools.cached_property
    def aligned_a(self) -> tuple[int, ...]:
        return _padded_row(self.moves, self.a, ADVANCE_A)

    @functools.cached_property
    def aligned_b(self) -> tuple[int, ...]:
        return _padded_row(self.moves, self.b, ADVANCE_B)

    def _key(self):
        return self.aligned_a, self.aligned_b, self.score

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _padded_row(moves: np.ndarray, symbols: np.ndarray, bit: int) -> tuple[int, ...]:
    row = np.full(len(moves), GAP, dtype=np.int16)
    row[(moves & bit) != 0] = symbols
    return tuple(row.tolist())


def as_symbols(data: bytes | bytearray | Iterable[int]) -> np.ndarray:
    """Normalise input to an int16 numpy array of symbols."""
    if isinstance(data, (bytes, bytearray)):
        return np.frombuffer(bytes(data), dtype=np.uint8).astype(np.int16)
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data, dtype=np.int16)
    arr = np.asarray(list(data), dtype=np.int16)
    return arr


def degap(aligned: Sequence[int]) -> bytes:
    """Strip GAP symbols from an aligned row, returning the raw bytes."""
    return bytes(s for s in aligned if s != GAP)


# ---------------------------------------------------------------------------
# Traceback kernel


def _dp_fill(scores: np.ndarray, up_costs: np.ndarray, left_costs: np.ndarray,
             want_path: bool):
    """Fill the DP table for one (a, b) pair.

    ``scores[i, j]`` is the value of pairing a_i with b_j; ``up_costs[i]``
    the value of consuming a_i against a gap; ``left_costs[j]`` of consuming
    b_j against a gap.  Returns the final H row and, when requested, the
    per-row traceback records (origin column K and diagonal-vs-up flags).
    """
    lib = native.kernels()
    if lib is None:
        return _dp_fill_numpy(scores, up_costs, left_costs, want_path)
    n, m = scores.shape
    if np.shape(up_costs) != (n,) or np.shape(left_costs) != (m,):
        raise LengthMismatchError("gap costs do not match the score table")
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    up_costs = np.ascontiguousarray(up_costs, dtype=np.float64)
    left_costs = np.ascontiguousarray(left_costs, dtype=np.float64)
    work = np.empty(2 * (m + 1))  # the final row, then the gap prefix
    k_rows = np.empty((n, m + 1), dtype=np.int32) if want_path else None
    du_rows = np.empty((n, m), dtype=bool) if want_path else None
    ptr = native.pointer
    lib.dp_fill(ptr(scores), ptr(up_costs), ptr(left_costs), n, m, ptr(work),
                ptr(k_rows) if want_path else None,
                ptr(du_rows) if want_path else None)
    return work[:m + 1], k_rows, du_rows


def _dp_fill_numpy(scores: np.ndarray, up_costs: np.ndarray,
                   left_costs: np.ndarray, want_path: bool):
    """Reference implementation of _dp_fill, and its fallback."""
    n, m = scores.shape
    left_cum = np.empty(m + 1)
    left_cum[0] = 0.0
    np.cumsum(left_costs, out=left_cum[1:])

    h = left_cum.copy()
    cols = np.arange(m + 1)
    k_rows = np.empty((n, m + 1), dtype=np.int32) if want_path else None
    du_rows = np.empty((n, m), dtype=bool) if want_path else None

    t = np.empty(m + 1)
    for i in range(n):
        diag = h[:m] + scores[i]
        upv = h[1:] + up_costs[i]
        du = diag >= upv  # tie prefers the diagonal
        cand = np.where(du, diag, upv)
        t[0] = h[0] + up_costs[i]
        t[1:] = cand - left_cum[1:]
        run = np.maximum.accumulate(t)
        if want_path:
            # Last column achieving the running max = fewest gap-in-a moves.
            arg = np.where(t >= run, cols, 0)
            k_rows[i] = np.maximum.accumulate(arg)
            du_rows[i] = du
        h = run + left_cum
    return h, k_rows, du_rows


def _traceback(k_rows, du_rows, n: int, m: int) -> np.ndarray:
    """The moves of the path that _dp_fill's records pick, in forward order."""
    lib = native.kernels()
    if lib is None:
        return _trace_moves(k_rows, du_rows, n, m)
    moves = np.empty(n + m, dtype=np.uint8)
    count = lib.dp_trace(native.pointer(k_rows), native.pointer(du_rows), n, m,
                         native.pointer(moves))
    return moves[:count]


def _trace_moves(k_rows, du_rows, n: int, m: int) -> np.ndarray:
    """Reference implementation of _traceback, and its fallback."""
    moves: list[int] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i == 0:
            moves.append(ADVANCE_B)
            j -= 1
            continue
        k = int(k_rows[i - 1][j])
        if k < j:
            moves.extend([ADVANCE_B] * (j - k))
            j = k
            continue
        if j == 0 or not du_rows[i - 1][j - 1]:
            moves.append(ADVANCE_A)
            i -= 1
        else:
            moves.append(ADVANCE_A | ADVANCE_B)
            i -= 1
            j -= 1
    moves.reverse()
    return np.array(moves, dtype=np.uint8)


def _dp_moves(scores: np.ndarray, up_costs: np.ndarray, left_costs: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """The final H row and the moves of one optimal path."""
    n, m = scores.shape
    h, k_rows, du_rows = _dp_fill(scores, up_costs, left_costs, want_path=True)
    return h, _traceback(k_rows, du_rows, n, m)


# ---------------------------------------------------------------------------
# Plain Needleman-Wunsch


def global_align(a, b, cfg: ScoringConfig = DEFAULT_SCORING) -> Alignment:
    """Optimal global alignment of two byte sequences.

    Runs in O(|a|*|b|); empty inputs are allowed and align against gaps.
    The result holds the traceback's moves; its padded rows are built only
    when read.
    """
    sa = as_symbols(a)
    sb = as_symbols(b)
    n, m = len(sa), len(sb)
    scores = np.where(sa[:, None] == sb[None, :],
                      cfg.match_score, cfg.mismatch_penalty)
    gaps = np.full(max(n, m), cfg.gap_penalty)
    h, moves = _dp_moves(scores, gaps[:n], gaps[:m])
    return Alignment(moves, sa, sb, float(h[m]))


def distance(a, b, cfg: ScoringConfig = DEFAULT_SCORING) -> float:
    """Normalised alignment distance in [0, 1]; 0 iff the inputs are equal.

    Defined as 1 - score / (match_score * max(|a|, |b|)), clamped.
    """
    sa = as_symbols(a)
    sb = as_symbols(b)
    if len(sa) == 0 or len(sb) == 0:
        raise EmptyInputError("distance requires non-empty inputs")
    return float(plain_distances(PrototypeScorer.plain([sb], cfg), sa)[0])


def plain_distances(scorer: "PrototypeScorer", request, start: int = 0) -> np.ndarray:
    """distance() of the request to each sequence of a plain scorer, from ``start`` on."""
    r = as_symbols(request)
    scores = scorer.scores(r, start)
    longest = np.maximum(len(r), scorer._lengths[start:])
    d = 1.0 - scores / (scorer.cfg.match_score * longest)
    return np.clip(d, 0.0, 1.0, out=d)


def pairwise_distances(seqs: Sequence[bytes], cfg: ScoringConfig = DEFAULT_SCORING) -> np.ndarray:
    """Symmetric matrix of distance() over all pairs, zero diagonal."""
    arrs = [as_symbols(s) for s in seqs]
    if any(len(s) == 0 for s in arrs):
        raise EmptyInputError("pairwise distances require non-empty inputs")
    n = len(arrs)
    out = np.zeros((n, n))
    if n < 2:
        return out
    scorer = PrototypeScorer.plain(arrs, cfg)
    for i in range(n - 1):
        d = plain_distances(scorer, arrs[i], i + 1)
        out[i, i + 1:] = d
        out[i + 1:, i] = d
    return out


# ---------------------------------------------------------------------------
# Scoring kernel: one request against many prototypes


LANES = 8  # sequences per kernel block, one per float64 lane of a 512-bit vector


def _interleave(table: np.ndarray) -> np.ndarray:
    """A (rows, columns) table as (blocks, columns, LANES), lane-fastest.

    Row r lands in lane r % LANES of block r // LANES; the lanes after the
    last row are zeros, finite for the kernel to run over.
    """
    rows, columns = table.shape
    out = np.zeros((-(-rows // LANES), columns, LANES), table.dtype)
    for lane in range(LANES):
        lane_rows = table[lane::LANES]
        out[:len(lane_rows), :, lane] = lane_rows
    return out


def _pad_sequences(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack int16 symbol arrays into a -1 padded matrix plus lengths."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    width = int(lengths.max()) if len(seqs) else 0
    padded = np.full((len(seqs), max(width, 1)), -1, dtype=np.int16)
    for row, s in enumerate(seqs):
        padded[row, :len(s)] = s
    return padded, lengths


class PrototypeScorer:
    """Batched scorer for one or more (prototype, weights) pairs.

    Precomputes the padded symbol matrix and per-column cost tables so a
    hot matching loop only pays the per-request DP.

    A wildcard run marks an arbitrary payload section, so it matches any
    number of request bytes including zero: skipping a wildcard position
    and inserting a request byte next to a wildcard both cost
    w*wildcard_score (zero under the defaults).  Skipping a literal
    position costs w*gap_penalty and inserting a byte between literals
    costs mean(w)*gap_penalty.

    ``PrototypeScorer.plain`` builds the tables of plain Needleman-Wunsch
    instead, which the distance matrices use.
    """

    def __init__(self, prototypes: Sequence[Sequence[int]],
                 weight_sets: Sequence[Sequence[float]],
                 cfg: ScoringConfig = DEFAULT_SCORING):
        if len(prototypes) != len(weight_sets):
            raise LengthMismatchError("one weight set per prototype required")
        for p, w in zip(prototypes, weight_sets):
            if len(w) != len(p):
                raise LengthMismatchError(f"{len(w)} weights for a {len(p)}-symbol prototype")
            if len(p) == 0:
                raise EmptyInputError("prototypes must be non-empty")
        arrs = [np.asarray(list(p), dtype=np.int16) for p in prototypes]
        padded, lengths = _pad_sequences(arrs)
        count, width = padded.shape
        weights = np.zeros((count, width))
        for row, w in enumerate(weight_sets):
            weights[row, :len(w)] = np.asarray(w, dtype=float)

        wild = padded == WILDCARD
        match = weights * cfg.match_score
        nomatch = np.where(wild, weights * cfg.wildcard_score,
                           weights * cfg.mismatch_penalty)
        gap_cols = np.where(wild, weights * cfg.wildcard_score,
                            weights * cfg.gap_penalty)
        left_cum = np.zeros((count, width + 1))
        np.cumsum(gap_cols, axis=1, out=left_cum[:, 1:])

        # Insertion cost between prototype positions j-1 and j: free-ish when
        # either neighbour is a wildcard (the byte lands inside a payload
        # section), mean-weight gap penalty otherwise.
        mean_w = weights.sum(axis=1) / lengths
        edge, no_weight = np.zeros((count, 1), dtype=bool), np.zeros((count, 1))
        wild_x = weights * cfg.wildcard_score
        insert = np.where(
            np.hstack([wild, edge]), np.hstack([wild_x, no_weight]),
            np.where(np.hstack([edge, wild]), np.hstack([no_weight, wild_x]),
                     (mean_w * cfg.gap_penalty)[:, None]))
        self._set_tables(cfg, lengths, *map(_interleave, (padded, match, nomatch,
                                                          left_cum, insert)))

    @classmethod
    def plain(cls, sequences: Sequence, cfg: ScoringConfig = DEFAULT_SCORING
              ) -> "PrototypeScorer":
        """Scorer of plain Needleman-Wunsch against each sequence.

        Every weight is 1, there are no wildcards and the insert cost is
        constant.  The gap prefix is gap_penalty * j: a running sum would
        round differently for a non-integer penalty.
        """
        padded, lengths = _pad_sequences([as_symbols(s) for s in sequences])
        blocks = -(-len(lengths) // LANES)
        width = padded.shape[1]
        g = cfg.gap_penalty

        def lanes(column):  # the same column of values in every lane
            return np.tile(column[:, None], (blocks, 1, LANES))

        scorer = cls.__new__(cls)
        scorer._set_tables(
            cfg, lengths, _interleave(padded), lanes(np.full(width, cfg.match_score)),
            lanes(np.full(width, cfg.mismatch_penalty)), lanes(g * np.arange(width + 1)),
            lanes(np.full(width + 1, g)))
        return scorer

    def _set_tables(self, cfg, lengths, *tables):
        """Keep the lane-fastest tables in the kernel's argument order, and their pointers."""
        self.cfg = cfg
        self._lengths = lengths
        self._count = len(lengths)
        self._width = tables[0].shape[1]
        self._tables = tuple(np.ascontiguousarray(a, dtype) for a, dtype in zip(
            (*tables, _interleave(lengths[:, None])),
            (np.int16, np.float64, np.float64, np.float64, np.float64, np.int64)))
        self._native_args = tuple(a.ctypes.data for a in self._tables)
        self._block_bytes = tuple(a.strides[0] for a in self._tables)

    @functools.cached_property
    def _rows(self) -> tuple[np.ndarray, ...]:
        """padded, match, nomatch, left_cum and insert row-major, one row per sequence."""
        return tuple(t.transpose(0, 2, 1).reshape(-1, t.shape[1])[:self._count]
                     for t in self._tables[:5])

    @functools.cached_property
    def max_scores(self) -> np.ndarray:
        """Best gap-free score per prototype, accumulated as the DP's diagonal.

        Each step is ((v + s_j) - lc[j]) + lc[j].  Rounding is monotone, so
        a request that can take this path, such as an exact match, scores at
        least this much and sits at relative distance 0.
        """
        padded, match, nomatch, left_cum, _ = self._rows
        best = np.where(padded == WILDCARD, nomatch, match)
        v = np.zeros(self._count)
        for j in range(self._width):
            lc = left_cum[:, j + 1]
            v = np.where(j < self._lengths, ((v + best[:, j]) - lc) + lc, v)
        return v

    @functools.cached_property
    def min_scores(self) -> np.ndarray:
        """Worst gap-free score per prototype: every literal mismatched."""
        padded, _, nomatch, _, _ = self._rows
        wild = padded == WILDCARD
        literal = ~wild & (padded >= 0)
        return np.where(literal, nomatch, 0.0).sum(axis=1) + \
            np.where(wild, nomatch, 0.0).sum(axis=1)

    def scores(self, request, start: int = 0) -> np.ndarray:
        """Maximum alignment score of the request per prototype, from ``start`` on."""
        if not 0 <= start <= self._count:
            raise IndexError(f"start {start} outside 0..{self._count}")
        lib = native.kernels()
        if lib is None:
            return self._scores_numpy(request, start)
        return self._scores_native(lib.prototype_scores, request, start)

    def _scores_native(self, kernel, request, start: int) -> np.ndarray:
        """scores() through ``kernel``, from the block that holds ``start`` on."""
        r = as_symbols(request)
        block, skip = divmod(start, LANES)
        blocks = len(self._tables[0]) - block
        # The scores, then one DP row from the next 64-byte boundary on.
        out = np.empty((blocks + self._width + 2) * LANES)
        args = self._native_args if block == 0 else tuple(
            base + block * size for base, size in zip(self._native_args, self._block_bytes))
        kernel(native.pointer(r), len(r), *args, blocks, self._width, native.pointer(out))
        return out[skip:skip + self._count - start]

    def _scores_numpy(self, request, start: int = 0) -> np.ndarray:
        """Reference implementation of scores(), and its fallback."""
        r = as_symbols(request)
        padded, match, nomatch, left_cum, ins = (t[start:] for t in self._rows)
        count, width = padded.shape
        h = left_cum.copy()
        t = np.empty((count, width + 1))
        for sym in r:
            s = np.where(padded == sym, match, nomatch)
            cand = np.maximum(h[:, :width] + s, h[:, 1:] + ins[:, 1:])
            t[:, :1] = h[:, :1] + ins[:, :1]
            t[:, 1:] = cand - left_cum[:, 1:]
            np.maximum.accumulate(t, axis=1, out=t)
            h = t + left_cum
        return h[np.arange(count), self._lengths[start:]]

    def relative_distances(self, request) -> np.ndarray:
        """d_rel per prototype, each clamped to [0, 1]; degenerate -> 1.0."""
        low, span = self._score_range
        out = 1.0 - (self.scores(request) - low) / span
        return np.clip(out, 0.0, 1.0, out=out)

    @functools.cached_property
    def _score_range(self) -> tuple[np.ndarray, np.ndarray]:
        """min_scores, and the span up to max_scores with +inf where it is not positive.

        A finite score over an infinite span is +-0.0, so a degenerate
        prototype gets exactly 1.0, and a positive span runs the float
        operations of the masked form unchanged.
        """
        span = self.max_scores - self.min_scores
        return self.min_scores, np.where(span > 0, span, np.inf)


def relative_distance(prototype: Sequence[int], weights: Sequence[float], request,
                      cfg: ScoringConfig = DEFAULT_SCORING) -> float:
    """Score-normalised match distance in [0, 1]; 0 is the best possible match.

    An all-wildcard prototype has no score range; it is reported as
    distance 1.0 (the caller is expected to have been warned at model build
    time).
    """
    return float(PrototypeScorer([prototype], [weights], cfg).relative_distances(request)[0])
