import dataclasses
import random
from collections import Counter

import pytest

from tracemock.errors import TooFewTransactionsError
from tracemock.harness import (HashLookupResponder, HashResponderFactory,
                               PrototypeResponderFactory,
                               WholeLibraryResponder,
                               WholeLibraryResponderFactory, benchmark,
                               confusion_protocol_spec, cross_validate,
                               default_protocol_spec, directory_validator,
                               paper_example_library, parse_directory_message,
                               synthetic_library)
from tracemock.harness.crossval import partition_positions
from tracemock.model import build_model
from tracemock.trace import Transaction, TransactionLibrary


@pytest.fixture(scope="module")
def small_synthetic():
    return synthetic_library(default_protocol_spec(), 200, seed=21)


class TestValidator:
    def test_paper_valid_rows(self):
        expected = b"{id:15,op:SearchRsp,result:Ok,gn:Miao,sn:Du}"
        for emulated in (b"{id:15,op:SearchRsp,result:Ok,gn:Miao,sn:Du}",
                         b"{id:15,op:SearchRsp,result:Ok,gn:Menka,sn:Du}"):
            outcome = directory_validator(expected, emulated)
            assert outcome.is_valid and outcome.reason == "none"

    def test_paper_invalid_rows(self):
        expected = b"{id:15,op:SearchRsp,result:Ok,gn:Miao,sn:Du}"
        wrong_op = directory_validator(expected, b"{id:15,op:AddRsp,result:Ok}")
        assert not wrong_op.is_valid and wrong_op.reason == "wrong-operation"
        unbalanced = directory_validator(
            expected, b"{id:15,op:SearchRsp,result:Ok,gn:Miao},sn:Du")
        assert not unbalanced.is_valid and unbalanced.reason == "parse-failure"

    @pytest.mark.parametrize("bad", [b"", b"nobraces", b"{}", b"{nocolon}",
                                     b"{:empty}", b"{a:1}{b:2}", b"\xff\x00"])
    def test_parse_failures(self, bad):
        assert parse_directory_message(bad) is None

    def test_missing_op_field_is_parse_failure(self):
        out = directory_validator(b"{op:X}", b"{id:3,result:Ok}")
        assert out.reason == "parse-failure"


class TestHashResponder:
    def test_exact_hit_replays_without_transformation(self):
        lib = paper_example_library()
        request = b"{id:24,op:A,sn:Schneider,mobile:123456}"
        assert HashLookupResponder(lib).answer(request) == b"{id:24,op:AddRsp,result:Ok}"

    def test_single_byte_difference_misses(self):
        lib = paper_example_library()
        miss = b"{id:25,op:A,sn:Schneider,mobile:123456}"
        assert HashLookupResponder(lib).answer(miss) is None

    def test_first_recording_wins_on_duplicates(self):
        lib = TransactionLibrary((Transaction(0, b"q", b"first"),
                                  Transaction(1, b"q", b"second")))
        assert HashLookupResponder(lib).answer(b"q") == b"first"

    def test_low_hit_rate_on_held_out_data(self, small_synthetic):
        lib, _ = small_synthetic
        half = TransactionLibrary(lib.transactions[:100])
        responder = HashLookupResponder(half)
        hits = sum(responder.answer(t.request) is not None
                   for t in lib.transactions[100:])
        assert hits / 100 < 0.05


class TestWholeLibraryResponder:
    def test_known_request_returns_its_response(self):
        lib = paper_example_library()
        out = WholeLibraryResponder(lib).answer(b"{id:1,op:S,sn:Du}")
        assert out == b"{id:1,op:SearchRsp,result:Ok,gn:Miao,sn:Du,mobile:5362634}"

    def test_transforms_nearest_response(self):
        lib = paper_example_library()
        out = WholeLibraryResponder(lib).answer(b"{id:2488,op:A,sn:Wilt}")
        # nearest is transaction 2487; symmetric field carries the new id
        assert out.startswith(b"{id:2488,op:AddRsp")

    def test_wrong_operation_on_lookalike_payload(self):
        # a recorded delete decoy (same surname, adjacent id) sits closer to
        # the live search request than any recorded search does
        lib = TransactionLibrary((
            Transaction(0, b"{id:98760,op:S,sn:Keller}",
                        b"{id:98760,op:SearchRsp,result:Ok,gn:A,sn:Keller,mobile:1234567}"),
            Transaction(1, b"{id:41,op:D,sn:Keller}",
                        b"{id:41,op:DeleteRsp,removed:Keller,status:Gone}"),
            Transaction(2, b"{id:98765,op:S,sn:Moreau}",
                        b"{id:98765,op:SearchRsp,result:Ok,gn:B,sn:Moreau,mobile:7654321}"),
        ))
        live = b"{id:43,op:S,sn:Keller}"
        out = WholeLibraryResponder(lib).answer(live)
        verdict = directory_validator(
            b"{id:43,op:SearchRsp,result:Ok,gn:C,sn:Keller,mobile:1111111}", out)
        assert not verdict.is_valid and verdict.reason == "wrong-operation"

    def test_tie_breaks_by_lowest_transaction_index(self):
        lib = TransactionLibrary((Transaction(9, b"aaaa", b"high"),
                                  Transaction(2, b"aaaa", b"low")))
        assert WholeLibraryResponder(lib).answer(b"aaaa") == "low".encode()


class TestPartition:
    def test_folds_disjoint_and_exhaustive(self):
        rng = random.Random(0)
        folds = partition_positions(103, 10, rng)
        seen = sorted(p for fold in folds for p in fold)
        assert seen == list(range(103))
        sizes = {len(f) for f in folds}
        assert max(sizes) - min(sizes) <= 1


class TestCrossValidate:
    def test_degenerate_identical_library_is_perfect(self):
        tx = tuple(Transaction(i, b"{id:9,op:A,sn:K}", b"{id:9,op:AddRsp,result:Ok}")
                   for i in range(10))
        lib = TransactionLibrary(tx)
        report = cross_validate(lib, PrototypeResponderFactory(1),
                                folds=5, repeats=2, seed=1)
        assert report.accuracy == 1.0
        assert report.total_requests == 10 * 2

    def test_deterministic_reports(self, small_synthetic):
        lib, _ = small_synthetic
        a = cross_validate(lib, HashResponderFactory(), folds=5, repeats=2, seed=7)
        b = cross_validate(lib, HashResponderFactory(), folds=5, repeats=2, seed=7)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_seed_changes_partition(self, small_synthetic):
        lib, _ = small_synthetic
        a = cross_validate(lib, HashResponderFactory(), folds=5, repeats=1, seed=1)
        b = cross_validate(lib, HashResponderFactory(), folds=5, repeats=1, seed=2)
        assert a.seed != b.seed

    def test_every_transaction_held_out_once_per_repeat(self, small_synthetic):
        lib, _ = small_synthetic
        report = cross_validate(lib, HashResponderFactory(), folds=10,
                                repeats=3, seed=5)
        per_repeat = Counter()
        for fold in report.per_fold:
            per_repeat[fold.repeat] += fold.total
        assert all(count == len(lib) for count in per_repeat.values())

    def test_too_few_transactions(self):
        lib = TransactionLibrary(tuple(
            Transaction(i, b"r", b"s") for i in range(4)))
        with pytest.raises(TooFewTransactionsError):
            cross_validate(lib, HashResponderFactory(), folds=10)

    def test_prototype_beats_whole_library_on_confusion_fixture(self):
        lib, labels = synthetic_library(confusion_protocol_spec(0.6), 260, seed=13)
        lookalikes = sum(1 for t in labels if t == "delete")
        assert lookalikes / len(labels) >= 0.10
        proto = cross_validate(lib, PrototypeResponderFactory(5),
                               folds=5, repeats=1, seed=3)
        whole = cross_validate(lib, WholeLibraryResponderFactory(),
                               folds=5, repeats=1, seed=3)
        assert proto.accuracy > whole.accuracy


class TestSynthetic:
    def test_n_one(self):
        lib, labels = synthetic_library(default_protocol_spec(), 1, seed=0)
        assert len(lib) == 1 and len(labels) == 1

    def test_label_histogram_matches_weights(self):
        lib, labels = synthetic_library(default_protocol_spec(), 1000, seed=2)
        counts = Counter(labels)
        for op in ("search", "add", "delete", "update", "lookup"):
            assert abs(counts[op] / 1000 - 0.2) < 0.05

    def test_ids_unique_and_templates_parse(self, small_synthetic):
        lib, labels = small_synthetic
        assert len(set(lib.indices)) == len(lib)
        for tx in lib:
            assert parse_directory_message(tx.request) is not None
            assert parse_directory_message(tx.response) is not None

    def test_generation_deterministic(self):
        a = synthetic_library(default_protocol_spec(), 50, seed=9)
        b = synthetic_library(default_protocol_spec(), 50, seed=9)
        assert a == b


class TestBenchmark:
    def test_report_shape_and_ordering(self, small_synthetic):
        lib, _ = small_synthetic
        model = build_model(lib, 5)
        rng = random.Random(1)
        requests = [lib[rng.randrange(len(lib))].request for _ in range(60)]
        report = benchmark(lib, model, requests, warmup=5)
        assert report.library_size == len(lib)
        assert {t.name for t in report.timings} \
            == {"hash", "whole-library", "prototype"}
        hash_t = report.timing("hash")
        assert hash_t.mean_ms < 1.0
        assert report.timing("whole-library").mean_ms \
            > report.timing("prototype").mean_ms
        for t in report.timings:
            assert t.p99_ms >= t.median_ms >= 0.0
