"""The three response strategies compared by the evaluation harness.

* hash lookup -- replay the recorded response of a byte-identical request,
  nothing on a miss;
* whole library -- nearest recorded request by alignment distance, its
  response transformed by symmetric-field substitution;
* prototype -- match against the per-operation consensus prototypes and
  transform the cluster centroid's response.
"""

import numpy as np

from ..alignment import (DEFAULT_SCORING, PrototypeScorer, ScoringConfig,
                         plain_distances)
from ..emulator import RequestMatcher
from ..errors import EmptyLibraryError
from ..fields import (DEFAULT_MIN_FIELD_LENGTH, find_symmetric_fields,
                      substitute_response)
from ..model import OpaqueServiceModel
from ..trace import TransactionLibrary


class HashLookupResponder:
    """Exact-request replay; the no-knowledge record-and-replay baseline."""

    name = "hash"

    def __init__(self, library: TransactionLibrary):
        table: dict[bytes, bytes] = {}
        for tx in library:
            table.setdefault(tx.request, tx.response)  # first recording wins
        self._table = table

    def answer(self, request: bytes) -> bytes | None:
        return self._table.get(request)


class WholeLibraryResponder:
    """Nearest raw recorded request, transformed like playback."""

    name = "whole-library"

    def __init__(self, library: TransactionLibrary,
                 scoring: ScoringConfig = DEFAULT_SCORING,
                 min_field_length: int = DEFAULT_MIN_FIELD_LENGTH):
        if len(library) == 0:
            raise EmptyLibraryError("whole-library responder needs transactions")
        self.library = library
        self.scoring = scoring
        self.min_field_length = min_field_length
        self._scorer = PrototypeScorer.plain(library.requests(), scoring)
        self._indices = np.array(library.indices)
        self._fields_cache: dict[int, tuple] = {}

    def _nearest_position(self, request: bytes) -> int:
        dist = plain_distances(self._scorer, request)
        best = dist.min()
        tied = np.flatnonzero(dist == best)
        return int(tied[np.argmin(self._indices[tied])])  # lowest tx index

    def answer(self, request: bytes) -> bytes:
        pos = self._nearest_position(request)
        tx = self.library[pos]
        fields = self._fields_cache.get(pos)
        if fields is None:
            fields = find_symmetric_fields(tx.request, tx.response,
                                           self.min_field_length)
            self._fields_cache[pos] = fields
        return substitute_response(request, tx.request, tx.response, fields,
                                   self.scoring)


class PrototypeResponder:
    """Consensus-prototype matching plus centroid transformation."""

    name = "prototype"

    def __init__(self, model: OpaqueServiceModel):
        self._matcher = RequestMatcher(model)

    def answer(self, request: bytes) -> bytes:
        response, _ = self._matcher.respond(request)
        return response

