"""Build worker for the build phase: a process that does only model builds.

    python3 perfbench/build_worker.py TRACE MODEL SECONDS TRACED RESULT

It imports tracemock and loads the native kernels, prints ``ready`` and
waits for a line on standard input.  It then builds the model from TRACE
(``load_library`` -> ``build_model`` with 5 clusters -> ``save_model``)
again and again until SECONDS have passed, and writes RESULT (JSON) and
RESULT.npy (the response distance matrix, for the checks).  With TRACED
set it alternates those builds with builds in which the public functions
the build looks up are wrapped in spans.
"""

import json
import sys
import time

import numpy as np

import tracemock.model as tm_model
import tracemock.msa as tm_msa
import tracemock.trace as tm_trace
from tracemock import native

from procs import peak_rss_mb
from spans import Tracer

CLUSTERS = 5
# What the traced builds wrap: (owner, attribute, span name).  The
# attributes are the names under which the build looks these functions up.
# ``pairwise_distances`` is the guide-tree step inside ``progressive_align``;
# the merge is the rest of ``progressive_align``.
LAYERS = (
    (tm_trace, "load_library", "trace.load"),
    (tm_model, "response_distance_matrix", "clustering.response_matrix"),
    (tm_model, "cluster", "clustering.cluster"),
    (tm_model, "progressive_align", "msa.progressive_align"),
    (tm_msa, "pairwise_distances", "msa.guide_distances"),
    (tm_model, "occurrence_table", "model.consensus"),
    (tm_model, "consensus_prototype", "model.consensus"),
    (tm_model, "entropy_weights", "model.consensus"),
    (tm_model, "find_symmetric_fields", "fields.discover"),
    (tm_model, "save_model", "model.save"),
)


def build(trace_path, model_path) -> tm_model.OpaqueServiceModel:
    model = tm_model.build_model(tm_trace.load_library(trace_path), CLUSTERS)
    tm_model.save_model(model, model_path)
    return model


def main() -> None:
    trace_path, model_path, seconds, traced, result = sys.argv[1:]
    seconds, traced = float(seconds), traced == "1"
    native.kernels()
    print("ready", flush=True)
    sys.stdin.readline()

    tracer = Tracer()
    if traced:
        build(trace_path, model_path)  # so that no compared build is the cold one
    builds_s, model, same = [], None, True
    started = time.perf_counter()
    while not builds_s or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        built = build(trace_path, model_path)
        builds_s.append(time.perf_counter() - t0)
        if model is None:
            model = built
        same &= built == model
        if traced:
            with tracer.patch(LAYERS), tracer.root("build"):
                built = build(trace_path, model_path)
            same &= built == model
    rss_mb = peak_rss_mb()

    # Outside the timed region: what the checks need.
    matrix = tm_model.response_distance_matrix(tm_trace.load_library(trace_path))
    clusters = tm_model.cluster(matrix, CLUSTERS)
    np.save(result + ".npy", matrix.values)
    with open(result, "w") as fh:
        json.dump({
            "builds_s": builds_s,
            "peak_rss_mb": rss_mb,
            "same": bool(same),
            "reload_equal": tm_model.load_model(model_path) == model,
            "labels": list(matrix.labels),
            "members": [list(c.members) for c in clusters],
            "cluster_centroids": [c.centroid for c in clusters],
            "node_centroids": [n.centroid.index for n in model.nodes],
            "spans": tracer.spans,
        }, fh)


if __name__ == "__main__":
    main()
