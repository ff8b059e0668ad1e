"""The build phase: the offline pipeline on a seeded trace file.

Set-up writes the trace file and starts a build worker (its own process,
which does only builds) up to the point where tracemock is imported and
ready.  The phase then lets the worker build the 5-node model again and
again for its share of ``--seconds``; ``build_s`` is the median build and
``build_peak_rss_mb`` the worker's peak RSS.
"""

import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from tracemock.emulator import RequestMatcher
from tracemock.harness import synthetic_library
from tracemock.model import load_model
from tracemock.trace import save_library

from checks import cluster_faults, nw_distance, reply_fault
from procs import Child

LIBRARY_TX = {"standard": 250, "long": 150}  # transactions in the trace file
HELD_OUT = 200       # requests answered by the built model, as a check
MATRIX_SAMPLE = 64   # response-matrix entries checked against the reference
WORKER_SLACK_S = 120  # the last build and the checks' matrix, past the phase
WORKER = Path(__file__).with_name("build_worker.py")
LAYERS = ("trace.load", "clustering.response_matrix", "clustering.cluster",
          "msa.guide_distances", "model.consensus", "fields.discover",
          "model.save")  # span names; msa.merge is derived


class Setup:
    """The trace file and a build worker waiting for the go."""

    def __init__(self, run, spec, profile: str, n: int, seconds: float):
        self.spec = spec
        self.library, self.labels = synthetic_library(spec, LIBRARY_TX[profile],
                                                      run.sub_seed(4))
        trace_path = run.dir / f"build-{n}.trace"
        self.model_path = run.dir / f"built-{n}.osvm"
        self.result_path = run.dir / f"worker-{n}.json"
        save_library(self.library, trace_path)
        self.worker = Child([sys.executable, str(WORKER), str(trace_path),
                             str(self.model_path), str(seconds),
                             str(int(run.traced)), str(self.result_path)],
                            run.env, run.dir / f"worker-{n}.log",
                            stdin=subprocess.PIPE)
        self.worker.wait_for(r"ready")

    def close(self) -> None:
        self.worker.kill()


def measure(setup: Setup, seconds: float) -> dict:
    """Let the worker build for ``seconds``; what it wrote when done."""
    worker = setup.worker
    worker.proc.stdin.write(b"go\n")
    worker.proc.stdin.close()
    worker.proc.wait(seconds + WORKER_SLACK_S)
    if worker.proc.returncode != 0:
        raise RuntimeError("build worker failed:\n" + worker.log.read_text()[-2000:])
    result = json.loads(setup.result_path.read_text())
    print("builds (s): " + " ".join(f"{b:.3f}" for b in result["builds_s"]),
          file=sys.stderr)
    return result


def report(run, setup: Setup, result: dict) -> None:
    """Check the built model, then add this phase's metrics to ``run``."""
    # Every build in a run gives the same model (checked), so a wrong model
    # fails them all.
    faults = _check(run, setup, result)
    if faults:
        print("wrong model: " + ", ".join(faults[:20]), file=sys.stderr)
    run.count(["wrong-model" if faults else None for _ in result["builds_s"]])

    build_s = statistics.median(result["builds_s"])
    if not run.traced:
        run.metrics.update({
            "build_s": build_s,
            "build_peak_rss_mb": result["peak_rss_mb"],
        })
        return

    tracer = run.tracer
    tracer.extend(result["spans"])
    for layer in LAYERS:
        run.metrics[layer + "_s"] = tracer.median_ns(layer) / 1e9
    run.metrics["msa.merge_s"] = tracer.median_ns("msa.progressive_align",
                                                  own=True) / 1e9
    lengths = np.array([len(r) for r in setup.library.responses()],
                       dtype=np.int64)
    cells = int((lengths.sum() ** 2 - (lengths ** 2).sum()) // 2)
    run.metrics["alignment.response_dp_cells"] = cells
    run.metrics["alignment.response_ns_per_cell"] = (
        tracer.median_ns("clustering.response_matrix") / cells)
    run.metrics["build.unspanned_s"] = tracer.median_ns("build", own=True) / 1e9
    run.overhead.append((tracer.median_ns("build") / 1e9, build_s))


def _check(run, setup: Setup, result: dict) -> list[str]:
    """Why the built model is wrong; empty when every check passes."""
    faults = []
    if not result["same"]:
        faults.append("builds-differ")
    if not result["reload_equal"]:
        faults.append("reload-differs")
    label_of = dict(zip(setup.library.indices, setup.labels))
    faults += cluster_faults(result["members"], label_of)
    if result["node_centroids"] != result["cluster_centroids"]:
        faults.append("centroids-differ")

    matrix = np.load(str(setup.result_path) + ".npy")
    responses = setup.library.responses()
    rng = random.Random(run.sub_seed(6))
    for _ in range(MATRIX_SAMPLE):
        i, j = rng.randrange(len(responses)), rng.randrange(len(responses))
        if matrix[i, j] != nw_distance(responses[i], responses[j]):
            faults.append(f"matrix[{i},{j}]")

    held, held_labels = synthetic_library(setup.spec, HELD_OUT, run.sub_seed(5))
    matcher = RequestMatcher(load_model(setup.model_path))
    for request, label in zip(held.requests(), held_labels):
        fault = reply_fault(request, label, matcher.respond(request)[0])
        if fault:
            faults.append(fault)
    return faults
