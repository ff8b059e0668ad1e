"""tracemock: protocol-agnostic service emulation from recorded byte traces.

Record request/response exchanges, group them by operation type, distil a
wildcard consensus prototype per operation, and serve live responses by
weighted alignment matching plus symmetric-field substitution.
"""

__version__ = "0.1.0"
