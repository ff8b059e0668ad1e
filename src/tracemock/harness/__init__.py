"""Evaluation harness: cross-validation, baselines, synthetic traces, timing."""

from .bench import BenchmarkReport, ResponderTiming, benchmark
from .crossval import (AccuracyReport, FoldResult, HashResponderFactory,
                       PrototypeResponderFactory, WholeLibraryResponderFactory,
                       cross_validate, partition_positions)
from .responders import (HashLookupResponder, PrototypeResponder,
                         WholeLibraryResponder)
from .synthetic import (PAPER_ADD_INDICES, PAPER_EXAMPLE_ROWS,
                        PAPER_SEARCH_INDICES, OperationTemplate,
                        SyntheticProtocolSpec, confusion_protocol_spec,
                        default_protocol_spec, long_payload_protocol_spec,
                        paper_example_library, synthetic_library)
from .validator import (INVALID, REASON_NONE, REASON_PARSE, REASON_WRONG_OP,
                        VALID, ValidationOutcome, directory_validator,
                        parse_directory_message)

__all__ = [name for name in dir() if not name.startswith("_")]
