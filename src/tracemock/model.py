"""Deriving and serialising the deployable service model.

The offline pipeline: cluster transactions by response similarity, align
each cluster's requests, count symbols per column, collapse the columns
into a consensus prototype (conserved byte, wildcard, or deletion of
majority-gap columns), weight each kept column by inverse Shannon entropy,
and pick the cluster centroid whose response feeds playback substitution.

The model file is a small versioned binary container:

    magic  b"OSVM"
    u16    format version (currently 1)
    u32    CRC-32 of the payload
    u64    payload length
    payload (big-endian struct fields, see _pack_model)

Unknown versions are refused; checksum mismatches raise ModelFormatError.
"""

import logging
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alignment import (DEFAULT_SCORING, GAP, WILDCARD, ScoringConfig,
                        pairwise_distances)
from .clustering import cluster, response_distance_matrix
from .errors import (EmptyLibraryError, ModelFormatError, ModelVersionError)
from .fields import (DEFAULT_MIN_FIELD_LENGTH, SymmetricField,
                     find_symmetric_fields)
from .msa import AlignmentProfile, _column_counts, progressive_align
from .trace import Transaction, TransactionLibrary

logger = logging.getLogger(__name__)

MODEL_MAGIC = b"OSVM"
MODEL_VERSION = 1


@dataclass(frozen=True)
class OccurrenceTable:
    """Per-column symbol counts of an alignment profile."""

    columns: tuple[dict[int, int], ...]
    rows: int


@dataclass(frozen=True)
class Prototype:
    """Consensus symbols over bytes and WILDCARD, never GAP.

    ``source_columns`` maps each symbol back to its profile column (needed
    for entropy weighting after truncated columns were deleted).
    """

    symbols: tuple[int, ...]
    source_columns: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.symbols)

    def wildcard_positions(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.symbols) if s == WILDCARD)

    def as_text(self, wildcard_char: str = "?") -> str:
        """Printable rendering; non-ASCII bytes become hex escapes."""
        out = []
        for s in self.symbols:
            if s == WILDCARD:
                out.append(wildcard_char)
            elif 0x20 <= s <= 0x7E:
                out.append(chr(s))
            else:
                out.append(f"\\x{s:02x}")
        return "".join(out)


@dataclass(frozen=True)
class MatchingNode:
    """Everything playback needs for one operation type."""

    cluster_id: int
    prototype: Prototype
    weights: tuple[float, ...]
    centroid: Transaction
    fields: tuple[SymmetricField, ...]


@dataclass(frozen=True)
class OpaqueServiceModel:
    nodes: tuple[MatchingNode, ...]
    scoring: ScoringConfig
    threshold: float
    version: int = MODEL_VERSION

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("a model needs at least one node")
        ids = [n.cluster_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node cluster ids must be unique")


def occurrence_table(profile: AlignmentProfile) -> OccurrenceTable:
    """Exact symbol counts for every profile column."""
    columns = tuple({int(s): int(row[s]) for s in np.flatnonzero(row)}
                    for row in _column_counts(profile.matrix()))
    return OccurrenceTable(columns, len(profile.rows))


def _modal_symbol(column: dict[int, int]) -> tuple[int, int]:
    """(symbol, count) of the most frequent symbol; GAP loses all ties."""
    best_sym = None
    best_count = -1
    for sym in sorted(column):
        count = column[sym]
        if sym == GAP:
            continue
        if count > best_count:
            best_sym, best_count = sym, count
    gap_count = column.get(GAP, 0)
    if gap_count > best_count:
        return GAP, gap_count
    return best_sym, best_count


def consensus_prototype(table: OccurrenceTable, threshold: float = 0.8) -> Prototype:
    """Collapse an occurrence table into a prototype.

    Per column: emit the modal symbol when its relative frequency reaches
    the threshold (and it is not a gap); delete the column when the mode is
    a gap at frequency >= 1/2; otherwise emit a wildcard.
    """
    if not 0.5 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0.5, 1]")
    if not table.columns:
        raise ValueError("occurrence table has no columns")
    symbols: list[int] = []
    sources: list[int] = []
    for col_index, column in enumerate(table.columns):
        mode, count = _modal_symbol(column)
        q = count / table.rows
        if mode != GAP and q >= threshold:
            symbols.append(mode)
            sources.append(col_index)
        elif mode == GAP and q >= 0.5:
            continue  # truncated
        else:
            symbols.append(WILDCARD)
            sources.append(col_index)
    return Prototype(tuple(symbols), tuple(sources))


def entropy_weights(profile: AlignmentProfile,
                    source_columns: Sequence[int]) -> tuple[float, ...]:
    """Inverse-entropy weight 1/(1+H) per kept column, H in nats.

    The gap symbol counts as an ordinary symbol; a fully conserved column
    has H = 0 and weight 1.  Weights always lie in (0, 1].
    """
    rows = len(profile.rows)
    table = _column_counts(profile.matrix())
    weights = []
    for col in source_columns:
        counts = table[col]
        h = 0.0
        for c in counts[counts > 0]:
            p = c / rows
            h -= p * math.log(p)
        weights.append(1.0 / (1.0 + h))
    return tuple(weights)


def build_model(library: TransactionLibrary, cluster_count: int,
                threshold: float = 0.8,
                scoring: ScoringConfig = DEFAULT_SCORING,
                min_field_length: int = DEFAULT_MIN_FIELD_LENGTH,
                *, response_matrix=None, request_matrix=None) -> OpaqueServiceModel:
    """Run the full offline pipeline and return a deployable model.

    ``response_matrix`` / ``request_matrix`` accept precomputed pairwise
    distance matrices (library order) purely as a performance hook.
    """
    if len(library) == 0:
        raise EmptyLibraryError("cannot build a model from an empty library")
    if response_matrix is None:
        response_matrix = response_distance_matrix(library, scoring)
    clusters = cluster(response_matrix, cluster_count)

    position = {index: pos for pos, index in enumerate(library.indices)}
    by_index = {t.index: t for t in library}
    nodes = []
    for cluster_id, grp in enumerate(clusters):
        positions = [position[i] for i in grp.members]
        requests = [library[p].request for p in positions]
        sub = None
        if request_matrix is not None:
            sub = request_matrix[np.ix_(positions, positions)]
        profile = progressive_align(requests, scoring, ids=grp.members,
                                    distances=sub)
        table = occurrence_table(profile)
        prototype = consensus_prototype(table, threshold)
        if not prototype.symbols:
            raise ValueError(f"cluster {cluster_id} collapsed to an empty prototype")
        weights = entropy_weights(profile, prototype.source_columns)
        if all(s == WILDCARD for s in prototype.symbols):
            logger.warning("cluster %d prototype is all wildcards; matching "
                           "against it degenerates to distance 1", cluster_id)
        centre = by_index[grp.centroid]
        fields = find_symmetric_fields(centre.request, centre.response,
                                       min_field_length)
        nodes.append(MatchingNode(cluster_id, prototype, weights, centre, fields))
    return OpaqueServiceModel(tuple(nodes), scoring, threshold)


def library_request_distances(library: TransactionLibrary,
                              scoring: ScoringConfig = DEFAULT_SCORING) -> np.ndarray:
    """Pairwise request distances in library order (build_model cache input)."""
    return pairwise_distances(library.requests(), scoring)


# ---------------------------------------------------------------------------
# Serialisation

_HEADER = struct.Struct(">4sHIQ")


def _pack_bytes(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        s = struct.Struct(">" + fmt)
        if self.pos + s.size > len(self.data):
            raise ModelFormatError("truncated model payload")
        values = s.unpack_from(self.data, self.pos)
        self.pos += s.size
        return values

    def take_bytes(self) -> bytes:
        (length,) = self.take("I")
        if self.pos + length > len(self.data):
            raise ModelFormatError("truncated byte field")
        out = self.data[self.pos:self.pos + length]
        self.pos += length
        return out

    def take_array(self, dtype: str, count: int) -> np.ndarray:
        width = np.dtype(dtype).itemsize
        if self.pos + width * count > len(self.data):
            raise ModelFormatError("truncated array field")
        out = np.frombuffer(self.data, dtype=dtype, count=count, offset=self.pos)
        self.pos += width * count
        return out


def _pack_model(model: OpaqueServiceModel) -> bytes:
    out = [struct.pack(">4dH", model.scoring.match_score,
                       model.scoring.mismatch_penalty,
                       model.scoring.gap_penalty,
                       model.scoring.wildcard_score,
                       len(model.nodes))]
    out.append(struct.pack(">d", model.threshold))
    for node in model.nodes:
        out.append(struct.pack(">II", node.cluster_id, len(node.prototype)))
        out.append(np.asarray(node.prototype.symbols, dtype=">u2").tobytes())
        out.append(np.asarray(node.prototype.source_columns, dtype=">u4").tobytes())
        out.append(np.asarray(node.weights, dtype=">f8").tobytes())
        out.append(struct.pack(">Q", node.centroid.index))
        out.append(_pack_bytes(node.centroid.request))
        out.append(_pack_bytes(node.centroid.response))
        out.append(struct.pack(">I", len(node.fields)))
        for f in node.fields:
            out.append(struct.pack(">IIII", f.request_offset, f.request_length,
                                   f.response_offset, f.response_length))
    return b"".join(out)


def _unpack_model(payload: bytes) -> OpaqueServiceModel:
    r = _Reader(payload)
    m, d, g, x, node_count = r.take("4dH")
    (threshold,) = r.take("d")
    scoring = ScoringConfig(m, d, g, x)
    nodes = []
    for _ in range(node_count):
        cluster_id, proto_len = r.take("II")
        symbols = r.take_array(">u2", proto_len)
        sources = r.take_array(">u4", proto_len)
        weights = r.take_array(">f8", proto_len)
        (index,) = r.take("Q")
        request = r.take_bytes()
        response = r.take_bytes()
        (field_count,) = r.take("I")
        fields = []
        for _ in range(field_count):
            ro, rl, po, pl = r.take("IIII")
            if ro + rl > len(request) or po + pl > len(response):
                raise ModelFormatError("symmetric field range out of bounds")
            fields.append(SymmetricField(ro, rl, po, pl))
        prototype = Prototype(tuple(int(s) for s in symbols),
                              tuple(int(s) for s in sources))
        nodes.append(MatchingNode(cluster_id, prototype,
                                  tuple(float(w) for w in weights),
                                  Transaction(index, request, response),
                                  tuple(fields)))
    if r.pos != len(payload):
        raise ModelFormatError("trailing bytes after model payload")
    return OpaqueServiceModel(tuple(nodes), scoring, threshold)


def save_model(model: OpaqueServiceModel, path) -> None:
    payload = _pack_model(model)
    header = _HEADER.pack(MODEL_MAGIC, MODEL_VERSION,
                          zlib.crc32(payload), len(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_model(path) -> OpaqueServiceModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ModelFormatError("file too short for a model header")
    magic, version, checksum, length = _HEADER.unpack_from(blob)
    if magic != MODEL_MAGIC:
        raise ModelFormatError("bad magic bytes")
    if version != MODEL_VERSION:
        raise ModelVersionError(f"unsupported model version {version}")
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        raise ModelFormatError("payload length mismatch")
    if zlib.crc32(payload) != checksum:
        raise ModelFormatError("payload checksum mismatch")
    return _unpack_model(payload)
