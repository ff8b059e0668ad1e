"""One workload: the build, serve and record phases on one payload profile.

``standard`` has requests of about 32 B, ``long`` of about 73 B.  A run
first sets up all three phases together (set-up is timed and repeated;
``setup_s`` is the median), then runs them one after another on the last
set-up, so only one process under test is busy at a time.  The outputs
are checked after the timed phases.
"""

import statistics
import time

from tracemock.harness import default_protocol_spec, long_payload_protocol_spec

import build_phase
import record_phase
import serve_phase

PROFILES = {"standard": default_protocol_spec, "long": long_payload_protocol_spec}
SETUPS = 3           # set-ups per run; setup_s is their median
# Shares of --seconds.  The record phase sends a fixed count instead
# (record_phase.PER_SECOND per second of --seconds).
BUILD_SHARE = 0.45
OPEN_SHARE = 0.15    # serve phase: timed open loop,
SINGLE_SHARE = 0.15  # closed loop with one request outstanding per connection,
CLOSED_SHARE = 0.1   # closed loop with serve_phase.WINDOW outstanding


def _set_up(run, spec, profile: str, n: int, parts: list) -> None:
    """Start the three phases' inputs and processes, appending each to ``parts``."""
    parts.append(build_phase.Setup(run, spec, profile, n,
                                   run.seconds * BUILD_SHARE))
    parts.append(serve_phase.Setup(run, spec, profile, n))
    parts.append(record_phase.Setup(run, spec, n))


def run(run, profile: str) -> None:
    spec = PROFILES[profile]()
    setups, times = [], []
    try:
        for n in range(SETUPS):
            parts = []
            setups.append(parts)
            started = time.perf_counter()
            _set_up(run, spec, profile, n, parts)
            times.append(time.perf_counter() - started)
            if n < SETUPS - 1:
                for part in parts:
                    part.close()
        build, serve, record = setups[-1]
        built = build_phase.measure(build, run.seconds * BUILD_SHARE)
        served = serve_phase.measure(serve, run.seconds * OPEN_SHARE,
                                     run.seconds * SINGLE_SHARE,
                                     run.seconds * CLOSED_SHARE)
        recorded = record_phase.measure(run, record)
    finally:
        for parts in setups:
            for part in parts:
                part.close()

    for _, serve_setup, record_setup in setups:
        run.count(serve_setup.warmup_faults())
        run.count(record_setup.warmup_faults())
    build_phase.report(run, build, built)
    serve_phase.report(run, serve, served)
    record_phase.report(run, record, recorded)
    if run.traced:
        # Traced against untraced time of the same calls, over the phases.
        traced, plain = map(sum, zip(*run.overhead))
        run.metrics["tracing.overhead_pct"] = (traced / plain - 1) * 100
    else:
        run.metrics["setup_s"] = statistics.median(times)
