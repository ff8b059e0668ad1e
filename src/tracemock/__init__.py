"""tracemock: protocol-agnostic service emulation from recorded byte traces.

Record request/response exchanges, group them by operation type, distil a
wildcard consensus prototype per operation, and serve live responses by
weighted alignment matching plus symmetric-field substitution.
"""

from .alignment import (DEFAULT_SCORING, GAP, WILDCARD, Alignment,
                        ScoringConfig, distance, global_align,
                        pairwise_distances, relative_distance)
from .clustering import (Cluster, ClusterSet, DistanceMatrix, centroid,
                         cluster, response_distance_matrix)
from .emulator import (EmulatorServer, MatchOutcome, RequestMatcher,
                       generate_response, match_request, serve)
from .fields import SymmetricField, find_symmetric_fields, substitute_response
from .framing import FramingConfig, MessageStream
from .model import (MatchingNode, OccurrenceTable, OpaqueServiceModel,
                    Prototype, build_model, consensus_prototype,
                    entropy_weights, load_model, occurrence_table, save_model)
from .msa import (AlignmentProfile, GuideTree, align_profiles,
                  build_guide_tree, progressive_align)
from .proxy import RecordingProxy, record_proxy
from .trace import (Transaction, TransactionLibrary, load_library,
                    save_library)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
