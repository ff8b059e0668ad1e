"""Native DP kernels against their numpy reference and the brute-force oracles.

The native path must be bit-identical to numpy: scores are compared with
``==`` and tracebacks element by element, never approximately.
"""

import logging
import shutil
import subprocess
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import brute_force_score, brute_force_weighted_score
from tracemock import native
from tracemock.alignment import (GAP, LANES, WILDCARD, PrototypeScorer,
                                 ScoringConfig, _dp_fill, _dp_fill_numpy,
                                 _trace_moves, _traceback, distance,
                                 global_align, pairwise_distances)
from tracemock.emulator import RequestMatcher
from tracemock.harness import (default_protocol_spec, paper_example_library,
                               synthetic_library)
from tracemock.model import build_model
from tracemock.msa import _merge_matrices


@pytest.fixture(scope="module", autouse=True)
def kernels():
    lib = native.kernels()
    if lib is None:
        pytest.skip("native kernels unavailable: no C compiler (cc) or the "
                    "build failed; see the warning logged by tracemock.native")
    return lib


def native_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == native.__name__ and r.levelno == logging.WARNING]


def numpy_path():
    """Context in which alignment code takes the numpy fallback."""
    return mock.patch.object(native, "kernels", lambda: None)


configs = st.builds(
    lambda match, mismatch, gap, wild: ScoringConfig(match, match - mismatch,
                                                     -gap, wild),
    st.sampled_from([1.0, 2.0, 0.7, 3.25]),
    st.sampled_from([0.5, 2.0, 1.3, 4.0]),
    st.sampled_from([0.0, 1.0, 0.45, 2.5]),
    st.sampled_from([0.0, 0.1, -0.3, 0.6]))
weights = st.one_of(st.floats(0.01, 1.0), st.sampled_from([0.25, 0.5, 1.0]))
symbols = st.sampled_from([*b"abcd", WILDCARD])
requests = st.lists(st.sampled_from(b"abcdz"), max_size=14).map(bytes)


@st.composite
def prototype_sets(draw, max_len=12):
    """1 to 20 prototypes of uneven lengths: whole, partial and uneven kernel blocks."""
    count = draw(st.integers(1, 20))
    protos = [draw(st.lists(symbols, min_size=1, max_size=max_len))
              for _ in range(count)]
    return protos, [draw(st.lists(weights, min_size=len(p), max_size=len(p)))
                    for p in protos]


def portable_kernel(lib):
    """The kernel's plain C body, which runs where the AVX-512 one cannot."""
    fn = lib.prototype_scores_portable
    fn.argtypes, fn.restype = native._SIGNATURES["prototype_scores"]
    return fn


def block_starts(count):
    """Starts around the first block boundary, and the end."""
    return sorted({s for s in (0, LANES - 1, LANES, LANES + 1, count) if s <= count})


@given(prototype_sets(), configs, st.lists(requests, min_size=1, max_size=4))
def test_prototype_scores_equal_numpy(kernels, protos, cfg, reqs):
    plain_seqs = [[ord("w") if s == WILDCARD else s for s in p] for p in protos[0]]
    portable = portable_kernel(kernels)
    for scorer in (PrototypeScorer(*protos, cfg), PrototypeScorer.plain(plain_seqs, cfg)):
        for req in reqs:
            for start in block_starts(len(plain_seqs)):
                want = scorer._scores_numpy(req, start)
                assert len(want) == len(plain_seqs) - start
                assert np.array_equal(scorer.scores(req, start), want), (req, start)
                assert np.array_equal(scorer._scores_native(portable, req, start),
                                      want), (req, start)
                with numpy_path():
                    assert np.array_equal(scorer.scores(req, start), want)


@given(prototype_sets(), configs, st.lists(requests, min_size=1, max_size=3))
@example(([[WILDCARD, WILDCARD], [*b"ab"], [WILDCARD]], [[0.5, 1.0], [1.0, 0.25], [1.0]]),
         ScoringConfig(), [b"ab", b"", b"zzz"])  # zero spans beside a positive one
def test_relative_distances_equal_masked_form(protos, cfg, reqs):
    scorer = PrototypeScorer(*protos, cfg)
    span = scorer.max_scores - scorer.min_scores
    ok = span > 0
    for req in reqs:
        s = scorer.scores(req)
        want = np.ones(len(s))
        want[ok] = 1.0 - (s[ok] - scorer.min_scores[ok]) / span[ok]
        np.clip(want, 0.0, 1.0, out=want)
        got = scorer.relative_distances(req)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@given(st.lists(st.lists(st.sampled_from(b"abcd"), min_size=1, max_size=16).map(bytes),
                min_size=1, max_size=20), configs)
def test_pairwise_distances_equal_numpy_as_int64(seqs, cfg):
    got = pairwise_distances(seqs, cfg)
    with numpy_path():
        want = pairwise_distances(seqs, cfg)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_kernel_source_builds_without_warnings(tmp_path):
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler (cc)")
    build = subprocess.run(
        [compiler, *native._FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "dp.so"), str(native.SOURCE)],
        capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr


@given(requests, requests, configs)
def test_global_align_equals_numpy(a, b, cfg):
    got = global_align(a, b, cfg)
    with numpy_path():
        want = global_align(a, b, cfg)
    assert want == got
    assert np.array_equal(want.moves, got.moves)


def tie_heavy_table(n, m, data):
    """A random score table and gap costs with many exactly tied cells."""
    # Small integer multiples of an irrational-ish step give many exact ties.
    step = data.draw(st.sampled_from([1.0, 0.5, 0.3, 1 / 3]))
    cells = st.integers(-3, 3).map(lambda k: k * step)
    scores = np.array(data.draw(st.lists(cells, min_size=n * m, max_size=n * m)),
                      dtype=float).reshape(n, m)
    up = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
    left = np.array(data.draw(st.lists(cells, min_size=m, max_size=m)), dtype=float)
    return scores, up, left


@given(st.integers(0, 9), st.integers(0, 9), st.data())
def test_dp_fill_equals_numpy(n, m, data):
    scores, up, left = tie_heavy_table(n, m, data)
    for want_path in (True, False):
        got = _dp_fill(scores, up, left, want_path)
        want = _dp_fill_numpy(scores, up, left, want_path)
        for g, w in zip(got, want):
            assert (g is None and w is None) or np.array_equal(g, w)


@given(st.integers(0, 9), st.integers(0, 9), st.data())
def test_dp_trace_equals_python_walk(n, m, data):
    _, k_rows, du_rows = _dp_fill_numpy(*tie_heavy_table(n, m, data), want_path=True)
    got = _traceback(k_rows, du_rows, n, m)
    want = _trace_moves(k_rows, du_rows, n, m)
    assert got.dtype == want.dtype == np.uint8
    assert np.array_equal(got, want)
    assert int(np.count_nonzero(got & 1)) == n and int(np.count_nonzero(got & 2)) == m


profile_rows = st.integers(0, 6).flatmap(lambda width: st.lists(
    st.lists(st.sampled_from([*b"abc", GAP]), min_size=width, max_size=width),
    min_size=1, max_size=3))


@given(profile_rows, profile_rows, configs)
def test_merge_matrices_equal_numpy(rows_p, rows_q, cfg):
    mat_p = np.array(rows_p, dtype=np.int16).reshape(len(rows_p), -1)
    mat_q = np.array(rows_q, dtype=np.int16).reshape(len(rows_q), -1)
    got = _merge_matrices(mat_p, mat_q, cfg)
    with numpy_path():
        assert np.array_equal(_merge_matrices(mat_p, mat_q, cfg), got)


@given(prototype_sets(max_len=4), configs,
       st.lists(st.sampled_from(b"abcz"), max_size=4).map(bytes))
def test_prototype_scores_match_oracle(protos, cfg, req):
    scores = PrototypeScorer(*protos, cfg).scores(req)
    for k, (proto, w) in enumerate(zip(*protos)):
        want = brute_force_weighted_score(proto, w, req, cfg)
        assert scores[k] == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.lists(st.sampled_from(b"abc"), max_size=5).map(bytes),
       st.lists(st.sampled_from(b"abc"), max_size=5).map(bytes),
       st.sampled_from([ScoringConfig(), ScoringConfig(2.0, -1.0, -2.0),
                        ScoringConfig(1.0, 0.0, 0.0)]))
def test_global_align_matches_oracle(a, b, cfg):
    assert global_align(a, b, cfg).score == brute_force_score(a, b, cfg)


@given(st.lists(st.lists(st.sampled_from(b"abc"), min_size=1, max_size=4).map(bytes),
                min_size=1, max_size=4), configs)
def test_plain_distances_equal_numpy_and_oracle(seqs, cfg):
    matrix = pairwise_distances(seqs, cfg)
    pairs = [[distance(a, b, cfg) for b in seqs] for a in seqs]
    with numpy_path():
        assert np.array_equal(pairwise_distances(seqs, cfg), matrix)
        assert [[distance(a, b, cfg) for b in seqs] for a in seqs] == pairs
    for i, a in enumerate(seqs):
        for j, b in enumerate(seqs):
            score = brute_force_score(a, b, cfg)
            want = min(1.0, max(0.0, 1.0 - score / (cfg.match_score * max(len(a), len(b)))))
            assert pairs[i][j] == pytest.approx(want, rel=1e-12, abs=1e-12)
            if i < j:
                assert matrix[i, j] == matrix[j, i] == pairs[i][j]


def test_responses_identical_on_both_paths():
    lib, _ = synthetic_library(default_protocol_spec(), 120, seed=11)
    matcher = RequestMatcher(build_model(lib, 5))
    native_out = [matcher.respond(tx.request) for tx in lib]
    with numpy_path():
        assert [matcher.respond(tx.request) for tx in lib] == native_out


def test_no_compiler_falls_back_to_numpy(caplog):
    scorer = PrototypeScorer([tuple(b"ab") + (WILDCARD,)], [(0.5, 1.0, 0.2)])
    want_scores = scorer.scores(b"abzz")
    want_aln = global_align(b"kitten", b"sitting")
    native.kernels.cache_clear()
    try:
        with mock.patch.object(native.shutil, "which", lambda name: None), \
                caplog.at_level(logging.WARNING, logger=native.__name__):
            assert native.kernels() is None
            assert np.array_equal(scorer.scores(b"abzz"), want_scores)
            assert global_align(b"kitten", b"sitting") == want_aln
            matcher = RequestMatcher(build_model(paper_example_library(), 2))
            reply, _ = matcher.respond(b"{id:37,op:A,sn:Durand}")
            assert reply == b"{id:37,op:AddRsp,result:Ok}"
        warnings = native_warnings(caplog)
        assert len(warnings) == 1 and "no C compiler" in warnings[0]
    finally:
        native.kernels.cache_clear()
    assert native.kernels() is not None


def test_compile_error_warns_once(tmp_path, caplog):
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C;\n")
    cache = tmp_path / "cache"
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert native.load(broken, cache) is None
    warnings = native_warnings(caplog)
    assert len(warnings) == 1 and "failed" in warnings[0]
    assert list(cache.iterdir()) == []  # the half-built file is removed


def test_unwritable_cache_warns_once(tmp_path, caplog):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert native.load(native.SOURCE, blocker / "cache") is None
    assert len(native_warnings(caplog)) == 1


def test_library_is_built_outside_the_source_tree(kernels):
    built = Path(kernels._name).resolve()
    package = native.SOURCE.parent.resolve()
    assert package not in built.parents
    assert built.parent == native.cache_dir().resolve()
