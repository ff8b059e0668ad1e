"""Tests of the benchmark's own checks, on tiny hand-made cases.

    python3 -m pytest perfbench/test_checks.py
"""

import itertools
from pathlib import Path

from checks import (cluster_faults, nw_distance, nw_score, parse_message,
                    reply_fault, trace_faults)
from run import Run


def _alignments(a: bytes, b: bytes):
    """Every global alignment of a and b, as lists of (x, y) columns."""
    if not a and not b:
        yield []
        return
    if a and b:
        for rest in _alignments(a[1:], b[1:]):
            yield [(a[0], b[0])] + rest
    if a:
        for rest in _alignments(a[1:], b):
            yield [(a[0], None)] + rest
    if b:
        for rest in _alignments(a, b[1:]):
            yield [(None, b[0])] + rest


def _brute_score(a: bytes, b: bytes, match=1, mismatch=-1, gap=-1) -> int:
    return max(sum(gap if x is None or y is None else
                   (match if x == y else mismatch) for x, y in columns)
               for columns in _alignments(a, b))


def test_reference_nw_equals_enumeration():
    words = [bytes(w) for n in range(4) for w in itertools.product(b"ab", repeat=n)]
    for a, b in itertools.product(words, repeat=2):
        assert nw_score(a, b) == _brute_score(a, b), (a, b)
    assert nw_score(b"kitten", b"sitting") == _brute_score(b"kitten", b"sitting")
    assert nw_score(b"acgt", b"agt", 2, -3, -2) == _brute_score(b"acgt", b"agt", 2, -3, -2)


def test_reference_distance_is_normalised_and_clamped():
    assert nw_distance(b"abcd", b"abcd") == 0.0
    assert nw_distance(b"abcd", b"abce") == 1.0 - 2 / 4
    assert nw_distance(b"aaaa", b"bbbbbb") == 1.0  # score -6 would give 2


def test_parse_message():
    assert parse_message(b"{id:7,op:AddRsp,result:Ok}") == {
        "id": "7", "op": "AddRsp", "result": "Ok"}
    for bad in (b"id:7,op:AddRsp", b"{id:7,op}", b"{id:7,{op:A}", b"{\xff:1}", b"{}"):
        assert parse_message(bad) is None, bad


REQUEST = b"{id:42,op:D,sn:Du}"


def test_reply_checker_accepts_a_right_reply():
    assert reply_fault(REQUEST, "delete", b"{id:42,op:DeleteRsp,removed:Du}") is None
    # Payload fields other than op and id are not checked.
    assert reply_fault(REQUEST, "delete", b"{id:42,op:DeleteRsp,removed:D}") is None


def test_reply_checker_counts_wrong_replies_as_failed():
    run = Run(0, 1.0, False, Path("."), {})
    run.count([
        reply_fault(REQUEST, "delete", b"{id:42,op:SearchRsp,sn:Du}"),
        reply_fault(REQUEST, "delete", b"{id:43,op:DeleteRsp,removed:Du}"),
        reply_fault(REQUEST, "delete", b"{id:42,op:DeleteRsp"),
        reply_fault(REQUEST, "delete", None),
        reply_fault(REQUEST, "delete", b"{id:42,op:DeleteRsp}"),
    ])
    assert (run.attempted, run.failed) == (5, 4)
    assert run.faults == {"wrong-operation": 1, "wrong-id": 1, "unparsable": 1}


PAIRS = [(b"{id:1,op:S}", b"{id:1,op:SearchRsp}"),
         (b"{id:2,op:A}", b"{id:2,op:AddRsp}"),
         (b"{id:1,op:S}", b"{id:1,op:SearchRsp}")]


def test_trace_checker_accepts_exactly_the_pairs_sent():
    recorded = [(i, q, r) for i, (q, r) in enumerate(PAIRS)]
    assert trace_faults(PAIRS, recorded[::-1]) == (0, 0, 0)


def test_trace_checker_finds_missing_extra_and_repeated():
    recorded = [(i, q, r) for i, (q, r) in enumerate(PAIRS)]
    assert trace_faults(PAIRS, recorded[:2]) == (1, 0, 0)
    assert trace_faults(PAIRS[:2], recorded) == (0, 1, 0)
    assert trace_faults(PAIRS, recorded[:2] + [(0, *PAIRS[2])]) == (0, 0, 1)
    swapped = recorded[:2] + [(2, PAIRS[0][0], PAIRS[1][1])]
    assert trace_faults(PAIRS, swapped) == (1, 1, 0)


def test_cluster_checker():
    label_of = {10: "add", 11: "add", 12: "search"}
    assert cluster_faults([[10, 11], [12]], label_of) == []
    assert cluster_faults([[10, 12], [11]], label_of) == ["cluster 0 mixes ['add', 'search']"]
    assert cluster_faults([[10, 11]], {10: "add", 11: "add", 12: "search"}) == [
        "clusters cover ['add']"]
