import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (brute_force_score, brute_force_weighted_score,
                     recursive_weighted_score)
from tracemock.alignment import (DEFAULT_SCORING, GAP, WILDCARD, PrototypeScorer,
                                 ScoringConfig, as_symbols, degap, distance,
                                 global_align, pairwise_distances,
                                 relative_distance)
from tracemock.errors import EmptyInputError, LengthMismatchError

byte_seq = st.binary(min_size=1, max_size=24)


def score_one(prototype, weights, request):
    """Score of one request against one prototype through PrototypeScorer."""
    return PrototypeScorer([prototype], [weights]).scores(request)[0]


class TestScoringConfig:
    def test_defaults(self):
        cfg = ScoringConfig()
        assert (cfg.match_score, cfg.mismatch_penalty,
                cfg.gap_penalty, cfg.wildcard_score) == (1.0, -1.0, -1.0, 0.0)

    @pytest.mark.parametrize("kwargs", [
        {"match_score": 0.0},
        {"match_score": -1.0},
        {"mismatch_penalty": 2.0},
        {"gap_penalty": 0.5},
    ])
    def test_rejects_bad_constants(self, kwargs):
        with pytest.raises(ValueError):
            ScoringConfig(**kwargs)


class TestGlobalAlign:
    def test_identity_has_no_gaps(self):
        aln = global_align(b"ABC", b"ABC")
        assert aln.score == 3
        assert GAP not in aln.aligned_a and GAP not in aln.aligned_b
        assert aln.aligned_a == aln.aligned_b == tuple(b"ABC")

    def test_empty_against_nonempty_is_all_gaps(self):
        aln = global_align(b"", b"XY")
        assert aln.aligned_a == (GAP, GAP)
        assert aln.aligned_b == tuple(b"XY")
        assert aln.score == -2

    def test_both_empty(self):
        aln = global_align(b"", b"")
        assert aln.aligned_a == aln.aligned_b == ()
        assert aln.score == 0

    def test_kitten_sitting_matches_enumeration(self):
        score = global_align(b"kitten", b"sitting").score
        assert score == brute_force_score(b"kitten", b"sitting", DEFAULT_SCORING)

    def test_never_gap_in_both_rows(self):
        aln = global_align(b"abcdef", b"xbcdy")
        for sa, sb in zip(aln.aligned_a, aln.aligned_b):
            assert not (sa == GAP and sb == GAP)

    def test_exhaustive_small_space(self):
        # every pair over a 3-symbol alphabet up to length 3
        alphabet = (0, 1, 2)
        seqs = [bytes(t) for n in range(4)
                for t in itertools.product(alphabet, repeat=n)]
        for a in seqs:
            for b in seqs:
                got = global_align(a, b).score
                want = brute_force_score(a, b, DEFAULT_SCORING)
                assert got == want, (a, b)

    def test_nondefault_scoring_against_enumeration(self):
        cfg = ScoringConfig(match_score=2.0, mismatch_penalty=-0.5,
                            gap_penalty=-1.5)
        rng = random.Random(5)
        for _ in range(120):
            a = bytes(rng.randrange(3) for _ in range(rng.randrange(6)))
            b = bytes(rng.randrange(3) for _ in range(rng.randrange(6)))
            assert global_align(a, b, cfg).score == pytest.approx(
                brute_force_score(a, b, cfg))

    @given(byte_seq, byte_seq)
    def test_degap_restores_inputs(self, a, b):
        aln = global_align(a, b)
        assert degap(aln.aligned_a) == a
        assert degap(aln.aligned_b) == b
        assert len(aln.aligned_a) == len(aln.aligned_b)

    def test_deterministic_traceback(self):
        alns = {global_align(b"aabbaab", b"abab") for _ in range(5)}
        assert len(alns) == 1


class TestDistance:
    def test_identity_zero(self):
        assert distance(b"abc", b"abc") == 0.0

    def test_single_mismatch_clamps_to_one(self):
        assert distance(b"a", b"b") == 1.0

    def test_symmetric(self):
        assert distance(b"kitten", b"sitting") == distance(b"sitting", b"kitten")

    def test_rejects_empty(self):
        with pytest.raises(EmptyInputError):
            distance(b"", b"x")

    @given(byte_seq, byte_seq)
    def test_range_and_symmetry(self, a, b):
        d = distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == distance(b, a)
        assert distance(a, a) == 0.0

    def test_matches_pairwise_matrix(self):
        seqs = [b"kitten", b"sitting", b"mitten", b"a", b"abcabc"]
        matrix = pairwise_distances(seqs)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)
        for i, a in enumerate(seqs):
            for j, b in enumerate(seqs):
                if i != j:
                    assert matrix[i, j] == pytest.approx(distance(a, b), abs=1e-12)


class TestWeightedScore:
    def test_all_match(self):
        assert score_one(tuple(b"AB"), (1.0, 1.0), b"AB") == 2.0

    def test_match_plus_wildcard(self):
        proto = (ord("A"), WILDCARD)
        assert score_one(proto, (1.0, 1.0), b"AZ") == 1.0

    def test_weights_scale_columns(self):
        proto = tuple(b"AB")
        assert score_one(proto, (0.25, 1.0), b"AB") == 1.25
        assert score_one(proto, (0.25, 1.0), b"XB") == 0.75

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            score_one(tuple(b"AB"), (1.0,), b"AB")

    def test_against_brute_force_enumeration(self):
        rng = random.Random(17)
        for _ in range(150):
            plen = rng.randrange(1, 6)
            proto = tuple(rng.choice([ord("a"), ord("b"), ord("c"), WILDCARD])
                          for _ in range(plen))
            weights = tuple(rng.choice([0.25, 0.5, 1.0]) for _ in range(plen))
            req = bytes(rng.choice(b"abcd") for _ in range(rng.randrange(6)))
            got = score_one(proto, weights, req)
            want = brute_force_weighted_score(proto, weights, req, DEFAULT_SCORING)
            assert got == pytest.approx(want), (proto, weights, req)

    def test_truncated_add_prototype_example(self):
        # 12-symbol prefix of an add-style prototype vs the worked request;
        # enumeration is intractable at this length, so the independent
        # route is a memoised top-down recursion over the same cost model.
        proto = tuple(b"{id:") + (WILDCARD, WILDCARD) + tuple(b",op:A,")
        weights = (1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 0.9, 1.0)
        req = b"{id:37,op:A,"
        got = score_one(proto, weights, req)
        want = recursive_weighted_score(proto, weights, req, DEFAULT_SCORING)
        assert got == pytest.approx(want)

    def test_recursive_and_enumerated_oracles_agree(self):
        rng = random.Random(23)
        for _ in range(60):
            plen = rng.randrange(1, 5)
            proto = tuple(rng.choice([ord("a"), ord("b"), WILDCARD])
                          for _ in range(plen))
            weights = tuple(rng.choice([0.25, 1.0]) for _ in range(plen))
            req = bytes(rng.choice(b"ab") for _ in range(rng.randrange(5)))
            assert recursive_weighted_score(proto, weights, req, DEFAULT_SCORING) \
                == pytest.approx(brute_force_weighted_score(proto, weights, req,
                                                            DEFAULT_SCORING))


class TestRelativeDistance:
    def test_zero_at_exact_wildcard_free_match(self):
        proto = tuple(b"HELLO")
        assert relative_distance(proto, (1.0,) * 5, b"HELLO") == 0.0

    def test_one_for_all_wildcards(self):
        proto = (WILDCARD, WILDCARD)
        assert relative_distance(proto, (0.5, 0.5), b"xy") == 1.0

    def test_empty_prototype_rejected(self):
        with pytest.raises(EmptyInputError):
            relative_distance((), (), b"x")

    def test_bounds_formula(self):
        proto = (ord("A"), WILDCARD, ord("B"))
        weights = (0.5, 0.25, 1.0)
        scorer = PrototypeScorer([proto], [weights])
        assert scorer.max_scores[0] == pytest.approx(0.5 + 0.0 + 1.0)
        assert scorer.min_scores[0] == pytest.approx(-0.5 + 0.0 - 1.0)

    def test_fuzzed_range_and_scale_invariance(self):
        rng = random.Random(3)
        for _ in range(400):
            plen = rng.randrange(1, 8)
            proto = tuple(rng.choice([ord("a"), ord("b"), WILDCARD])
                          for _ in range(plen))
            weights = tuple(rng.uniform(0.05, 1.0) for _ in range(plen))
            req = bytes(rng.choice(b"ab") for _ in range(rng.randrange(1, 10)))
            d = relative_distance(proto, weights, req)
            assert 0.0 <= d <= 1.0
            scaled = tuple(w * 7.5 for w in weights)
            assert relative_distance(proto, scaled, req) == pytest.approx(d)

    def test_batch_scorer_agrees_with_scalar(self):
        protos = [tuple(b"{id:") + (WILDCARD,) * 3 + tuple(b",op:S}"),
                  (WILDCARD, ord("x")),
                  tuple(b"plain")]
        weights = [(1.0, 0.5, 0.25, 1.0, 0.8, 0.9, 1.0, 0.7, 0.6, 1.0, 0.5, 0.4, 1.0),
                   (0.3, 0.9),
                   (1.0,) * 5]
        scorer = PrototypeScorer(protos, weights)
        for req in (b"{id:99,op:S}", b"zzzz", b"plain", b"x"):
            batch = scorer.scores(req)
            for k, (p, w) in enumerate(zip(protos, weights)):
                assert batch[k] == pytest.approx(score_one(p, w, req))
            rel = scorer.relative_distances(req)
            for k, (p, w) in enumerate(zip(protos, weights)):
                assert rel[k] == pytest.approx(relative_distance(p, w, req))


def test_as_symbols_roundtrip():
    data = bytes(range(256))
    sym = as_symbols(data)
    assert sym.dtype == np.int16
    assert bytes(int(s) for s in sym) == data
