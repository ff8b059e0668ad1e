"""Command-line interface.

Subcommands mirror the record / build / serve workflow plus the
evaluation harness:

    gen       write a synthetic (or the worked-example) trace file
    record    run the recording proxy until interrupted
    build     trace file -> model file
    serve     play a model back on a TCP endpoint
    validate  cross-validate a responder on a trace (JSON report)
    bench     time the three responders on a trace (JSON report)

Usage errors exit 2 (argparse), operational failures exit 1.

The ``tracemock`` command and ``python -m tracemock.cli`` run ``run()``.
Once ``main()`` returns, every command has closed what it wrote: trace,
model and report files are written in ``with`` blocks, and the recording
proxy closes its trace file in ``stop()``.  Every thread left is a daemon
that has been joined.  So ``run()`` runs the exit hooks (logging's
shutdown among them), flushes standard output and error, and ends the
process with ``os._exit``.  That skips interpreter teardown, which takes
10-50 ms depending on the modules loaded and would otherwise be most of
the time from SIGINT to exit for ``record`` and ``serve``.  ``main()``
returns the exit code, for callers in the same process.

Only what ``record`` needs is imported at module level, so the recording
proxy runs without numpy or asyncio loaded and starts and exits quickly.
Every other command imports its modules inside its handler.
"""

import argparse
import atexit
import dataclasses
import json
import logging
import os
import sys

from .errors import TracemockError
from .framing import FramingConfig
from .proxy import record_proxy
from .trace import load_library

logger = logging.getLogger(__name__)


def _endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _scoring_from(args):
    from .alignment import ScoringConfig

    return ScoringConfig(match_score=args.match, mismatch_penalty=args.mismatch,
                         gap_penalty=args.gap, wildcard_score=args.wildcard)


def _add_scoring_flags(parser):
    parser.add_argument("--match", type=float, default=1.0,
                        help="alignment match score (default 1)")
    parser.add_argument("--mismatch", type=float, default=-1.0,
                        help="alignment mismatch penalty (default -1)")
    parser.add_argument("--gap", type=float, default=-1.0,
                        help="alignment gap penalty (default -1)")
    parser.add_argument("--wildcard", type=float, default=0.0,
                        help="wildcard matching constant (default 0)")


def _emit_report(report, out_path: str | None):
    payload = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _cmd_gen(args) -> int:
    from .harness import (confusion_protocol_spec, default_protocol_spec,
                          long_payload_protocol_spec, paper_example_library,
                          synthetic_library)
    from .trace import save_library

    if args.paper_example:
        library = paper_example_library()
    else:
        spec = {"standard": default_protocol_spec,
                "long": long_payload_protocol_spec,
                "confusion": confusion_protocol_spec}[args.profile]()
        library, _ = synthetic_library(spec, args.count, args.seed)
    save_library(library, args.out)
    print(f"wrote {len(library)} transactions to {args.out}")
    return 0


def _cmd_record(args) -> int:
    framing = FramingConfig.parse(args.framing)
    record_proxy(args.listen, args.target, framing, args.out)
    return 0


def _cmd_build(args) -> int:
    from .model import build_model, save_model

    library = load_library(args.trace)
    model = build_model(library, args.clusters, args.threshold,
                        _scoring_from(args), args.min_field_length)
    save_model(model, args.out)
    print(f"built {len(model.nodes)}-node model from {len(library)} "
          f"transactions -> {args.out}")
    return 0


def _cmd_serve(args) -> int:
    from .emulator import serve
    from .model import load_model

    model = load_model(args.model)
    framing = FramingConfig.parse(args.framing)
    serve(model, args.listen, framing)
    return 0


def _factory_for(args):
    from .harness import (HashResponderFactory, PrototypeResponderFactory,
                          WholeLibraryResponderFactory)

    if args.responder == "prototype":
        return PrototypeResponderFactory(args.clusters, args.threshold,
                                         _scoring_from(args))
    if args.responder == "hash":
        return HashResponderFactory()
    return WholeLibraryResponderFactory(_scoring_from(args))


def _cmd_validate(args) -> int:
    from .harness import cross_validate

    library = load_library(args.trace)
    report = cross_validate(library, _factory_for(args), folds=args.folds,
                            repeats=args.repeats, seed=args.seed)
    _emit_report(report, args.json)
    print(f"{report.responder}: {report.valid_count}/{report.total_requests} "
          f"valid ({report.accuracy:.2%})", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    import random

    from .harness import benchmark
    from .model import build_model

    library = load_library(args.trace)
    model = build_model(library, args.clusters, args.threshold,
                        _scoring_from(args))
    rng = random.Random(args.seed)
    requests = [library[rng.randrange(len(library))].request
                for _ in range(args.requests)]
    report = benchmark(library, model, requests, repetitions=args.repetitions)
    _emit_report(report, args.json)
    for t in report.timings:
        print(f"{t.name}: mean {t.mean_ms:.3f} ms, median {t.median_ms:.3f} ms, "
              f"p99 {t.p99_ms:.3f} ms over {t.samples} responses",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracemock",
        description="Learn and replay service behaviour from byte traces.")
    parser.add_argument("--log-level", default="INFO",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic trace file")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("-n", "--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="standard",
                   choices=["standard", "long", "confusion"])
    p.add_argument("--paper-example", action="store_true",
                   help="emit the 8-transaction worked example instead")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("record", help="record live exchanges through a proxy")
    p.add_argument("--listen", type=_endpoint, required=True)
    p.add_argument("--target", type=_endpoint, required=True)
    p.add_argument("--framing", default="idle:200")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser("build", help="build a model from a trace file")
    p.add_argument("-i", "--trace", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--clusters", type=int, required=True,
                   help="number of operation types (required; no default)")
    p.add_argument("--threshold", type=float, default=0.8,
                   help="consensus frequency threshold (default 0.8)")
    p.add_argument("--min-field-length", type=int, default=4)
    _add_scoring_flags(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("serve", help="serve a model on a TCP endpoint")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--listen", type=_endpoint, required=True)
    p.add_argument("--framing", default="idle:200")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("validate", help="cross-validate a responder")
    p.add_argument("-i", "--trace", required=True)
    p.add_argument("--responder", default="prototype",
                   choices=["prototype", "hash", "whole-library"])
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write the JSON report here instead of stdout")
    _add_scoring_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bench", help="time the responders on a trace")
    p.add_argument("-i", "--trace", required=True)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--requests", type=int, default=1000)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write the JSON report here instead of stdout")
    _add_scoring_flags(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s",
                        stream=sys.stderr)
    try:
        return args.func(args)
    except (TracemockError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(argv=None):
    """Run ``main()``, then the exit hooks, flush standard output and error,
    and end the process with ``os._exit``: nothing written is left in a
    buffer, so the interpreter's teardown is skipped (module docstring)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: a usage error or --help
        code = exc.code
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):  # a closed pipe: as the interpreter does
            code = code or 120
    os._exit(code)


if __name__ == "__main__":
    run()
