"""The tracemock benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload standard|long --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the package in
the checkout's ``src``.  With ``--trace 0`` the result holds every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
taken from spans kept in memory and written to ``perfbench/out`` at the
end.  Metric names and units come from ``BENCHMARK.json``.  See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import procs
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


@dataclass
class Run:
    """What one run of a workload needs and what it produces."""

    seed: int
    seconds: float
    traced: bool
    dir: Path
    env: dict
    attempted: int = 0
    failed: int = 0
    faults: Counter = field(default_factory=Counter)  # wrong outputs by kind
    metrics: dict = field(default_factory=dict)
    tracer: Tracer = field(default_factory=Tracer)
    overhead: list = field(default_factory=list)  # (traced s, untraced s)

    def sub_seed(self, role: int) -> int:
        """A seed per input of the workload, all derived from --seed."""
        return self.seed * 100 + role

    def count(self, faults) -> None:
        """Count one attempted operation per entry; None means it succeeded."""
        for fault in faults:
            self.attempted += 1
            if fault is not None:
                self.failed += 1
                if fault != "missing":
                    self.faults[fault] += 1


def _warm_kernels() -> None:
    """Build or load the native DP kernels before any timed region.

    The compile happens once per checkout; it is reported here, on its
    own, and never counted in set-up.
    """
    from tracemock import native
    cached = any(native.cache_dir().glob("*.so"))
    started = time.perf_counter()
    ready = native.kernels() is not None
    print(f"native kernels: {'ready' if ready else 'unavailable (numpy path)'}"
          f" in {time.perf_counter() - started:.3f} s"
          f" ({'cached' if cached else 'compiled'})", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the cleanup that stops every child process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "tracemock" / "__init__.py").is_file():
        print(f"error: no tracemock package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import workload  # imports tracemock, found only once src is on the path

    cache = OUT / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    env = procs.child_env(ROOT, cache)
    os.environ["XDG_CACHE_HOME"] = env["XDG_CACHE_HOME"]
    _warm_kernels()

    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    run = Run(args.seed, args.seconds, bool(args.trace), run_dir, env)
    try:
        workload.run(run, args.workload)
        if run.traced:
            run.tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(run.metrics) != set(units):
        raise RuntimeError(
            f"metrics not in BENCHMARK.json: {sorted(set(run.metrics) - set(units))};"
            f" not measured: {sorted(set(units) - set(run.metrics))}")
    if run.faults:
        print(f"wrong outputs: {dict(run.faults)}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.faults,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(run.metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
