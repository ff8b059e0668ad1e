"""Progressive multiple sequence alignment of request messages.

A UPGMA guide tree over pairwise alignment distances fixes the merge
order; profiles are then merged pairwise with a profile-profile DP whose
column score is the frequency-weighted average of the pairwise scheme
(gap-vs-symbol scores the gap penalty, gap-vs-gap scores zero).  Gaps
introduced by an earlier merge are never removed.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alignment import (ADVANCE_A, ADVANCE_B, DEFAULT_SCORING, GAP,
                        ScoringConfig, _dp_moves, as_symbols,
                        pairwise_distances)
from .linkage import average_linkage_merges

_BINS = 257  # 256 byte values + GAP


@dataclass(frozen=True)
class GuideTree:
    """Binary merge tree; leaves carry sequence ids, internal nodes heights."""

    height: float
    label: int | None = None
    children: tuple["GuideTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaf_labels(self) -> tuple[int, ...]:
        if self.is_leaf:
            return (self.label,)
        out: tuple[int, ...] = ()
        for child in self.children:
            out += child.leaf_labels()
        return out


@dataclass(frozen=True)
class AlignmentProfile:
    """Equal-length gap-padded rows; degapping a row restores its sequence."""

    rows: tuple[tuple[int, ...], ...]
    row_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.row_ids):
            raise ValueError("one id per profile row required")
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("profile rows must share one length")

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def matrix(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int16)


def build_guide_tree(sequences: Sequence[bytes],
                     cfg: ScoringConfig = DEFAULT_SCORING,
                     ids: Sequence[int] | None = None,
                     distances: np.ndarray | None = None) -> GuideTree:
    """UPGMA tree over pairwise distances; node height is half the linkage."""
    if not sequences:
        raise ValueError("guide tree requires at least one sequence")
    if ids is None:
        ids = range(len(sequences))
    ids = list(ids)
    if distances is None:
        distances = pairwise_distances(sequences, cfg)
    nodes = {slot: GuideTree(0.0, label=ids[slot]) for slot in range(len(sequences))}
    for a, b, height in average_linkage_merges(distances):
        nodes[a] = GuideTree(height / 2.0, children=(nodes[a], nodes.pop(b)))
    return nodes[min(nodes)]


def _column_counts(mat: np.ndarray) -> np.ndarray:
    """(width, 257) symbol counts per column of a profile matrix."""
    rows, width = mat.shape
    offsets = mat.astype(np.int64) + _BINS * np.arange(width, dtype=np.int64)
    return np.bincount(offsets.ravel(), minlength=_BINS * width).reshape(width, _BINS)


def _merge_matrices(mat_p: np.ndarray, mat_q: np.ndarray,
                    cfg: ScoringConfig) -> np.ndarray:
    """Align two profile matrices column-wise and stack the padded rows."""
    rows_p, width_p = mat_p.shape
    rows_q, width_q = mat_q.shape
    counts_p = _column_counts(mat_p)
    counts_q = _column_counts(mat_q)
    gaps_p = counts_p[:, GAP].astype(float)
    gaps_q = counts_q[:, GAP].astype(float)
    filled_p = rows_p - gaps_p
    filled_q = rows_q - gaps_q
    bytes_p = counts_p[:, :GAP].astype(float)
    bytes_q = counts_q[:, :GAP].astype(float)

    m, d, g = cfg.match_score, cfg.mismatch_penalty, cfg.gap_penalty
    cross = (d * np.outer(filled_p, filled_q)
             + (m - d) * (bytes_p @ bytes_q.T)
             + g * (np.outer(gaps_p, filled_q) + np.outer(filled_p, gaps_q)))
    scores = cross / (rows_p * rows_q)
    up = g * filled_p / rows_p      # consume a p column against an all-gap q column
    left = g * filled_q / rows_q    # and vice versa

    _, moves = _dp_moves(scores, up, left)
    merged = np.full((rows_p + rows_q, len(moves)), GAP, dtype=np.int16)
    merged[:rows_p, np.flatnonzero(moves & ADVANCE_A)] = mat_p
    merged[rows_p:, np.flatnonzero(moves & ADVANCE_B)] = mat_q
    return merged


def align_profiles(p: AlignmentProfile, q: AlignmentProfile,
                   cfg: ScoringConfig = DEFAULT_SCORING) -> AlignmentProfile:
    """Merge two profiles, padding rows consistently; row order is p then q."""
    merged = _merge_matrices(p.matrix(), q.matrix(), cfg)
    rows = tuple(tuple(int(s) for s in row) for row in merged)
    return AlignmentProfile(rows, p.row_ids + q.row_ids)


def progressive_align(sequences: Sequence[bytes],
                      cfg: ScoringConfig = DEFAULT_SCORING,
                      ids: Sequence[int] | None = None,
                      distances: np.ndarray | None = None) -> AlignmentProfile:
    """Align all sequences following guide-tree merge order.

    Output rows are returned in input order regardless of merge order.
    ``ids`` (default positional) become the profile row ids; ``distances``
    may supply a precomputed pairwise matrix.
    """
    if not sequences:
        raise ValueError("progressive alignment requires at least one sequence")
    if ids is None:
        ids = range(len(sequences))
    ids = list(ids)
    if len(ids) != len(sequences):
        raise ValueError("one id per sequence required")

    mats = {slot: as_symbols(seq)[None, :] for slot, seq in enumerate(sequences)}
    owners = {slot: [slot] for slot in range(len(sequences))}
    if len(sequences) > 1:
        if distances is None:
            distances = pairwise_distances(sequences, cfg)
        for a, b, _ in average_linkage_merges(distances):
            mats[a] = _merge_matrices(mats[a], mats.pop(b), cfg)
            owners[a].extend(owners.pop(b))
    final_slot = min(mats)
    mat = mats[final_slot]
    order = np.argsort(owners[final_slot], kind="stable")
    rows = tuple(tuple(int(s) for s in mat[r]) for r in order)
    return AlignmentProfile(rows, tuple(ids[owners[final_slot][r]] for r in order))
