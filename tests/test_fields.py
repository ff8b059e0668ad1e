"""Symmetric-field discovery and projection against their plainer oracles.

find_symmetric_fields keeps one run-length row, and project_field slices
the live request by positions read from the alignment's moves; both must
agree exactly with the full-matrix and the tuple-walking forms in
``oracles.py``, and whole replies with a splice built on the latter.
"""

from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import matrix_symmetric_fields, walk_project_field
from tracemock import native
from tracemock.alignment import global_align
from tracemock.emulator import RequestMatcher
from tracemock.fields import (SymmetricField, find_symmetric_fields,
                              project_field)
from tracemock.harness import (confusion_protocol_spec, default_protocol_spec,
                               long_payload_protocol_spec, synthetic_library)
from tracemock.model import build_model

# Few distinct bytes, so runs repeat and overlap.
messages = st.one_of(
    st.lists(st.sampled_from(b"ab"), max_size=24),
    st.lists(st.sampled_from(b"aaab"), max_size=24),
    st.lists(st.sampled_from(b"{id:0123,}"), max_size=40)).map(bytes)


@given(messages, messages, st.integers(1, 6))
@example(b"", b"abcd", 1)
@example(b"abcd", b"", 1)
@example(b"aaaaaaa", b"aaaa", 2)
@example(b"abcdefabcdef", b"abcdefabcdef", 4)
def test_find_symmetric_fields_equals_matrix_oracle(request, response, min_length):
    assert (find_symmetric_fields(request, response, min_length)
            == matrix_symmetric_fields(request, response, min_length))


def test_find_symmetric_fields_rejects_empty_runs():
    with pytest.raises(ValueError):
        find_symmetric_fields(b"abcd", b"abcd", 0)


@st.composite
def projections(draw):
    recorded = draw(st.lists(st.sampled_from(b"abc,"), max_size=14).map(bytes))
    live = draw(st.lists(st.sampled_from(b"abcz,"), max_size=18).map(bytes))
    offset = draw(st.integers(-1, len(recorded) + 1))
    length = draw(st.integers(-1, len(recorded) + 2))
    return live, recorded, SymmetricField(offset, length, 0, max(length, 0))


@given(projections())
@example((b"abcz", b"abc", SymmetricField(0, 2, 0, 2)))          # offset 0
@example((b"zabcc", b"abc", SymmetricField(1, 2, 0, 2)))         # ends on the last byte
@example((b"a,zzzzzzbc,", b"a,b,", SymmetricField(2, 1, 0, 1)))  # live value longer
@example((b"", b"abc", SymmetricField(0, 3, 0, 3)))              # empty projection
@example((b"abc", b"abc", SymmetricField(1, 0, 0, 0)))
def test_project_field_equals_tuple_walk(case):
    live, recorded, field = case
    aln = global_align(live, recorded)
    assert (project_field(aln, field)
            == walk_project_field(aln.aligned_a, aln.aligned_b, field))


@pytest.mark.parametrize("live, recorded, field, want", [
    (b"", b"abc", SymmetricField(0, 3, 0, 3), b""),     # no live bytes
    (b"abc", b"abc", SymmetricField(2, 2, 0, 2), b""),  # past the recorded end
])
def test_project_field_examples(live, recorded, field, want):
    aln = global_align(live, recorded)
    assert project_field(aln, field) == want
    assert walk_project_field(aln.aligned_a, aln.aligned_b, field) == want


def oracle_reply(node, live_request, cfg):
    """The reply spliced from the numpy DP's padded rows by tuple walking."""
    with mock.patch.object(native, "kernels", lambda: None):
        aln = global_align(live_request, node.centroid.request, cfg)
    rsp = node.centroid.response
    pieces, cursor = [], 0
    for f in node.fields:
        stop = f.response_offset + f.response_length
        pieces.append(rsp[cursor:f.response_offset])
        pieces.append(walk_project_field(aln.aligned_a, aln.aligned_b, f)
                      or rsp[f.response_offset:stop])
        cursor = stop
    return b"".join(pieces) + rsp[cursor:]


@pytest.mark.parametrize("spec", [default_protocol_spec(),
                                  long_payload_protocol_spec(),
                                  confusion_protocol_spec(0.6)],
                         ids=["standard", "long", "confusion"])
def test_respond_equals_oracle_path(spec):
    lib, _ = synthetic_library(spec, 150, seed=101)
    matcher = RequestMatcher(build_model(lib, 5))
    held, _ = synthetic_library(spec, 300, seed=102)
    for request in held.requests():
        reply, outcome = matcher.respond(request)
        node = matcher.node_for(outcome.chosen)
        assert reply == oracle_reply(node, request, matcher.model.scoring), request
