"""Command-line front end (the Peregrine-style "repro-verify" tool).

A thin shell over the unified :class:`repro.api.Verifier` session API: every
command builds one ``Verifier``, runs the requested properties, and prints
either the human-readable report summary or — with ``--json`` — the lossless
report dictionary (``VerificationReport.to_dict()``), which round-trips back
into report objects via ``VerificationReport.from_json``.

Examples
--------
Verify a library protocol::

    repro-verify family majority
    repro-verify family flock-of-birds --parameter 10

Check specific properties of a protocol stored as JSON::

    repro-verify file my_protocol.json --property layered_termination
    repro-verify file my_protocol.json --simulate "A=3,B=5"

Verify a whole batch on four worker processes, with the result cache::

    repro-verify batch majority broadcast flock-of-birds:6 my_protocol.json \
        --jobs 4 --cache-dir .repro-cache

Stream progress events while a check runs (``--progress`` writes one line
per event to stderr; add ``--progress-json`` for machine-readable events)::

    repro-verify family majority --progress

Run the JSON-lines verification daemon (submit/status/events/cancel/result
requests on stdin, responses and streamed events on stdout — the protocol
reference is in :mod:`repro.service.serve`)::

    repro-verify serve --jobs 4 --workers 2

List the available families::

    repro-verify list

Exit codes: 0 — no requested property failed (a property can also be
*skipped*, e.g. correctness on a protocol without a documented predicate:
the report says so explicitly and the run is not considered a failure);
1 — a property failed; 2 — a protocol spec or file could not be loaded.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api import VerificationOptions, Verifier, available_properties
from repro.constraints.backends import available_backends
from repro.io.loading import ProtocolLoadError, load_protocol_file, resolve_protocol_spec
from repro.protocols.library import PROTOCOL_FAMILIES
from repro.protocols.simulation import Simulator


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Verify population protocols (WS3 membership and related properties).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the built-in protocol families")

    subparsers.add_parser("properties", help="list the registered verifiable properties")

    family_parser = subparsers.add_parser("family", help="verify a built-in protocol family")
    family_parser.add_argument("name", choices=sorted(PROTOCOL_FAMILIES), help="family name")
    family_parser.add_argument(
        "--parameter", type=int, default=None, help="primary size parameter (where applicable)"
    )
    _add_common_options(family_parser)

    file_parser = subparsers.add_parser("file", help="verify a protocol stored as JSON")
    file_parser.add_argument("path", help="path to the protocol JSON file")
    _add_common_options(file_parser)

    batch_parser = subparsers.add_parser(
        "batch",
        help="verify many protocols at once (process-pool fan-out + result cache)",
    )
    batch_parser.add_argument(
        "specs",
        nargs="+",
        metavar="SPEC",
        help=(
            "a protocol: either 'family' or 'family:parameter' (e.g. flock-of-birds:6), "
            "or a path to a protocol JSON file"
        ),
    )
    batch_parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="directory of the content-addressed result cache (default: .repro-cache)",
    )
    batch_parser.add_argument(
        "--no-cache", action="store_true", help="verify everything, touching no cache"
    )
    _add_verifier_options(batch_parser)
    _add_jobs_option(batch_parser)
    _add_progress_options(batch_parser)
    _add_observability_options(batch_parser)
    batch_parser.add_argument("--json", action="store_true", help="print the verdicts as JSON")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the JSON-lines verification daemon on stdin/stdout",
    )
    _add_verifier_options(serve_parser)
    _add_jobs_option(serve_parser)
    serve_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="jobs allowed to run concurrently (dispatcher threads; default: 1)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the content-addressed result cache (default: no cache)",
    )
    serve_parser.add_argument(
        "--journal-dir",
        default=None,
        help=(
            "directory of the durable job journal; a daemon restarted on the "
            "same journal resumes its unfinished jobs and still serves its "
            "finished results (default: no journal)"
        ),
    )
    serve_parser.add_argument(
        "--no-resume",
        action="store_true",
        help="with --journal-dir: restore finished results but do not re-enqueue unfinished jobs",
    )
    serve_parser.add_argument(
        "--compact-threshold",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "with --journal-dir: journal size that triggers auto-compaction "
            "(default: 8 MiB; 0 disables auto-compaction)"
        ),
    )
    serve_parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default=None,
        help=(
            "serve over TCP instead of stdin/stdout; port 0 picks a free port "
            "(the bound address is announced as a {\"type\": \"listening\"} line "
            "on stdout).  The listener also answers HTTP on the same port."
        ),
    )
    serve_parser.add_argument(
        "--http",
        metavar="HOST:PORT",
        default=None,
        help=(
            "serve the HTTP adapter (POST /jobs, GET /jobs/<id>, "
            "GET /jobs/<id>/events, /healthz, /readyz); the listener also "
            "speaks the JSON-lines protocol — with --tcp both must name the "
            "same address (one dual-protocol listener)"
        ),
    )
    serve_parser.add_argument(
        "--max-connections",
        type=_positive_int,
        default=None,
        help="live connections before new ones are shed with 'overloaded' (default: 64)",
    )
    serve_parser.add_argument(
        "--max-pending-jobs",
        type=_positive_int,
        default=None,
        help="queued jobs before submits are shed with 'overloaded' (default: 256)",
    )
    serve_parser.add_argument(
        "--max-frame-bytes",
        type=_positive_int,
        default=None,
        help="largest accepted request frame/body in bytes (default: 1 MiB)",
    )
    serve_parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="reap connections idle longer than this (default: 300)",
    )
    serve_parser.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="FRAMES_PER_SECOND",
        help="per-connection request rate limit (default: unlimited)",
    )
    serve_parser.add_argument(
        "--event-buffer",
        type=_positive_int,
        default=None,
        help=(
            "buffered event lines per connection; a slower client loses the "
            "oldest with an explicit 'dropped' marker (default: 256)"
        ),
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="graceful-drain window on SIGTERM/SIGINT (default: 30)",
    )

    route_parser = subparsers.add_parser(
        "route",
        help=(
            "run the sharded routing tier: N supervised serve replicas "
            "behind one content-hash job router"
        ),
    )
    route_parser.add_argument(
        "--replicas",
        type=_positive_int,
        default=2,
        help="daemon replicas to spawn and shard over (default: 2)",
    )
    route_parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default="127.0.0.1:0",
        help=(
            "the router's bind address; port 0 picks a free port "
            "(announced as a {\"type\": \"listening\"} line on stdout)"
        ),
    )
    route_parser.add_argument(
        "--state-dir",
        default=".repro-fleet",
        help=(
            "fleet state root: shard i keeps its journal, cache and log under "
            "STATE_DIR/s<i>/ (default: .repro-fleet); restarting the router on "
            "the same directory resumes every shard's journalled backlog"
        ),
    )
    route_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="dispatcher threads per replica (default: 1)",
    )
    route_parser.add_argument(
        "--compact-threshold",
        type=int,
        default=None,
        metavar="BYTES",
        help="per-shard journal auto-compaction threshold (default: 8 MiB; 0 disables)",
    )
    route_parser.add_argument(
        "--max-connections",
        type=_positive_int,
        default=None,
        help="live router connections before new ones are shed (default: 64)",
    )
    route_parser.add_argument(
        "--max-pending-jobs",
        type=_positive_int,
        default=None,
        help="pending jobs per shard before submits are shed (default: 256)",
    )
    route_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="graceful fleet-drain window on SIGTERM/SIGINT (default: 30)",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="pretty-print a Chrome-trace JSON written by --trace",
    )
    trace_parser.add_argument("path", help="path to the trace JSON file")
    trace_parser.add_argument(
        "--top",
        type=_positive_int,
        default=20,
        metavar="N",
        help="span rows to show, hottest self-time first (default: 20)",
    )

    return parser


def _add_verifier_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every verifying command (they feed VerificationOptions)."""
    parser.add_argument(
        "--strategy",
        default="auto",
        choices=["auto", "hint", "single", "scc", "smt"],
        help="partition-search strategy for LayeredTermination",
    )
    parser.add_argument(
        "--theory",
        default="auto",
        choices=["auto", "scipy", "exact"],
        help="theory-solver preference inside the backend",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=sorted(available_backends()),
        help="solver backend from the registry (default: smtlite, the DPLL(T) solver)",
    )
    parser.add_argument(
        "--property",
        dest="properties",
        action="append",
        choices=sorted(available_properties()),
        default=None,
        metavar="NAME",
        help="property to check (repeatable; default: ws3)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "resubmissions of a subproblem whose worker died or timed out "
            "(default: 2; 0 disables retries)"
        ),
    )
    parser.add_argument(
        "--subproblem-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per subproblem; exceeding it counts as a retryable failure",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per verification job; when it runs out the "
            "unfinished properties are reported as PARTIAL"
        ),
    )


def _add_jobs_option(parser: argparse.ArgumentParser) -> None:
    """``--jobs`` for the commands that verify many protocols (batch, serve)."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help=(
            "how many protocols are verified in parallel, one per worker process "
            "(default: 1, serial); each protocol's check itself is always serial"
        ),
    )


def _add_progress_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream progress events (one human-readable line each) to stderr",
    )
    parser.add_argument(
        "--progress-json",
        action="store_true",
        help="stream progress events as JSON lines to stderr (implies --progress)",
    )


def _add_observability_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record a hierarchical span tree of the run (job → property → "
            "subproblem → solver check) and write it as Chrome-trace JSON to "
            "PATH; inspect with 'repro-verify trace PATH' or chrome://tracing"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "profile the run: per-property wall/CPU phase timings and the "
            "cProfile top functions, printed to stderr after the report"
        ),
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    _add_verifier_options(parser)
    _add_progress_options(parser)
    _add_observability_options(parser)
    parser.add_argument(
        "--check-correctness",
        action="store_true",
        help="also check the protocol against its documented predicate (if any)",
    )
    parser.add_argument(
        "--simulate",
        metavar="INPUT",
        default=None,
        help='simulate one run on an input such as "A=3,B=5"',
    )
    parser.add_argument("--json", action="store_true", help="print the verdict as JSON")


def _parse_input(text: str) -> dict:
    population = {}
    for part in text.split(","):
        symbol, _, count = part.partition("=")
        population[symbol.strip()] = int(count)
    return population


def _options_from_args(args) -> VerificationOptions:
    overrides = {"strategy": args.strategy, "theory": args.theory, "jobs": getattr(args, "jobs", 1)}
    if args.backend is not None:
        overrides["backend"] = args.backend
    retry_overrides = {}
    if getattr(args, "max_retries", None) is not None:
        retry_overrides["max_retries"] = args.max_retries
    if getattr(args, "subproblem_timeout", None) is not None:
        retry_overrides["subproblem_timeout"] = args.subproblem_timeout
    if getattr(args, "job_timeout", None) is not None:
        retry_overrides["job_timeout"] = args.job_timeout
    if retry_overrides:
        from repro.engine.retry import DEFAULT_RETRY

        overrides["retry"] = DEFAULT_RETRY.replace(**retry_overrides)
    if getattr(args, "trace", None):
        overrides["trace"] = True
    if getattr(args, "profile", False):
        overrides["profile"] = True
    return VerificationOptions(**overrides)


def _properties_from_args(args) -> list[str]:
    properties = list(args.properties) if args.properties else ["ws3"]
    if getattr(args, "check_correctness", False) and "correctness" not in properties:
        properties.append("correctness")
    return properties


def _load_protocol(args):
    if args.command == "family":
        # Route through the spec loader so bad parameters surface as
        # ProtocolLoadError (exit code 2), exactly like batch specs.
        spec = args.name if args.parameter is None else f"{args.name}:{args.parameter}"
        return resolve_protocol_spec(spec)
    return load_protocol_file(args.path)


def _event_printer(args):
    """The ``--progress`` subscriber: one line per event on stderr, or None."""
    if not (getattr(args, "progress", False) or getattr(args, "progress_json", False)):
        return None
    from repro.service.events import describe_event

    if getattr(args, "progress_json", False):
        return lambda event: print(json.dumps(event.to_dict(), sort_keys=True), file=sys.stderr)
    return lambda event: print(describe_event(event), file=sys.stderr)


def _write_trace(args, spans) -> None:
    """Write the run's spans (``--trace PATH``) as Chrome-trace JSON."""
    path = getattr(args, "trace", None)
    if not path:
        return
    from repro.obs.trace import chrome_trace

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans), handle)
    print(f"trace: {len(spans)} span(s) written to {path}", file=sys.stderr)


def _print_profile(args, statistics) -> None:
    """Render the ``--profile`` phase timings and hot functions on stderr."""
    if not getattr(args, "profile", False):
        return
    profile = statistics.get("profile") or {}
    phases = profile.get("phases") or {}
    for name, row in sorted(phases.items(), key=lambda kv: -kv[1]["wall_seconds"]):
        print(
            f"profile: phase {name:<24s} wall {row['wall_seconds']:8.3f}s  "
            f"cpu {row['cpu_seconds']:8.3f}s  x{row['calls']}",
            file=sys.stderr,
        )
    top = profile.get("top_functions") or []
    if top:
        print("profile: hottest functions (cumulative):", file=sys.stderr)
    for row in top[:15]:
        print(
            f"profile: {row['cumulative_seconds']:9.3f}s cum "
            f"{row['total_seconds']:9.3f}s self {row['calls']:>9} calls  {row['function']}",
            file=sys.stderr,
        )


def _run_single(args) -> int:
    protocol = _load_protocol(args)
    properties = _properties_from_args(args)
    # A missing documented predicate surfaces as a SKIPPED correctness
    # verdict in the report itself, so no ad-hoc message is printed here
    # (it would also pollute --json output).
    with Verifier(_options_from_args(args)) as verifier:
        report = verifier.check(protocol, properties=properties, on_event=_event_printer(args))

    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    _write_trace(args, report.statistics.get("trace") or [])
    _print_profile(args, report.statistics)

    if args.simulate:
        simulator = Simulator(protocol, seed=0)
        run = simulator.run(input_population=_parse_input(args.simulate))
        print(
            f"  simulation of {args.simulate}: output={run.output} after {run.steps} interactions "
            f"(converged={run.converged})"
        )

    return 0 if report.ok else 1


def _run_batch(args) -> int:
    protocols = [resolve_protocol_spec(spec) for spec in args.specs]
    properties = _properties_from_args(args)
    options = _options_from_args(args)
    if not args.no_cache:
        options = options.replace(cache_dir=args.cache_dir)
    with Verifier(options) as verifier:
        batch = verifier.check_many(protocols, properties=properties, on_event=_event_printer(args))
    cache_stats = batch.statistics.get("cache") or {"hits": 0, "misses": 0}
    ws3_requested = "ws3" in properties
    if args.json:
        payload = {
            "protocols": [
                {
                    "protocol": item.protocol_name,
                    "hash": item.protocol_hash,
                    "ok": item.ok,
                    "is_ws3": item.is_ws3 if ws3_requested else None,
                    "from_cache": item.from_cache,
                    "time_seconds": item.time_seconds,
                    "report": item.report.to_dict(),
                }
                for item in batch
            ],
            "statistics": batch.statistics,
        }
        print(json.dumps(payload, indent=2))
    else:
        for item in batch:
            if ws3_requested:
                verdict = "WS3" if item.is_ws3 else "NOT PROVEN"
            else:
                verdict = "OK" if item.ok else "FAILED"
            source = "cache" if item.from_cache else f"{item.time_seconds:.3f}s"
            print(f"{item.protocol_name:40s} {verdict:11s} [{source}]")
        print(
            f"batch: {len(batch)} protocol(s), {batch.statistics['verified']} verified, "
            f"{cache_stats['hits']} cache hit(s), jobs={batch.statistics['jobs']}, "
            f"total {batch.statistics['time']:.3f}s"
        )
    _write_trace(args, batch.statistics.get("trace") or [])
    if getattr(args, "profile", False):
        for item in batch:
            if item.report.statistics.get("profile"):
                print(f"profile: --- {item.protocol_name} ---", file=sys.stderr)
                _print_profile(args, item.report.statistics)
    return 0 if batch.all_ok else 1


def _run_serve(args) -> int:
    from repro.service import ServeSession, VerificationService

    options = _options_from_args(args)
    if args.cache_dir is not None:
        options = options.replace(cache_dir=args.cache_dir)
    service = VerificationService(
        options,
        workers=args.workers,
        journal_dir=args.journal_dir,
        resume=not args.no_resume,
        journal_compact_threshold=args.compact_threshold,
    )
    if args.tcp or args.http:
        from repro.service.net import NetworkServer, ServerLimits, parse_address

        if args.tcp and args.http and args.tcp != args.http:
            print(
                "repro-verify: --tcp and --http share one dual-protocol listener; "
                "give them the same address (or only one of them)",
                file=sys.stderr,
            )
            service.close(wait=False)
            return 2
        host, port = parse_address(args.tcp or args.http)
        overrides = {
            name: value
            for name, value in (
                ("max_connections", args.max_connections),
                ("max_pending_jobs", args.max_pending_jobs),
                ("max_frame_bytes", args.max_frame_bytes),
                ("idle_timeout", args.idle_timeout),
                ("rate_limit", args.rate_limit),
                ("event_buffer", args.event_buffer),
                ("drain_timeout", args.drain_timeout),
            )
            if value is not None
        }
        server = NetworkServer(service, host, port, limits=ServerLimits(**overrides))
        bound_host, bound_port = server.start()

        # Announced on stdout so wrappers (tests, the supervisor, the load
        # harness) learn the ephemeral port of a --tcp HOST:0 daemon.  The
        # announcement runs via on_ready — after the SIGTERM handler is in
        # place — so a wrapper may drain us the instant it reads the line.
        def announce_listening():
            print(
                json.dumps(
                    {
                        "type": "listening",
                        "host": bound_host,
                        "port": bound_port,
                        "protocols": ["jsonl", "http"],
                    }
                ),
                flush=True,
            )

        return server.serve_forever(on_ready=announce_listening)
    return ServeSession(service, sys.stdin, sys.stdout).run()


def _run_route(args) -> int:
    from repro.service.net import ServerLimits, parse_address
    from repro.service.replicas import ReplicaError, ReplicaSupervisor
    from repro.service.router import JobRouter, RouterServer, announce

    host, port = parse_address(args.tcp)
    serve_args: tuple[str, ...] = ()
    if args.compact_threshold is not None:
        serve_args = ("--compact-threshold", str(args.compact_threshold))
    supervisor = ReplicaSupervisor(
        args.replicas,
        args.state_dir,
        workers=args.workers,
        serve_args=serve_args,
    )
    try:
        supervisor.start()
    except ReplicaError as error:
        print(f"repro-verify: {error}", file=sys.stderr)
        supervisor.drain(timeout=10.0)
        return 2
    overrides = {
        name: value
        for name, value in (
            ("max_connections", args.max_connections),
            ("max_pending_jobs", args.max_pending_jobs),
            ("drain_timeout", args.drain_timeout),
        )
        if value is not None
    }
    router = JobRouter(supervisor)
    server = RouterServer(router, host, port, limits=ServerLimits(**overrides))
    server.start()
    return server.serve_forever(on_ready=lambda: print(announce(server), flush=True))


def _run_trace(args) -> int:
    """Pretty-print a ``--trace`` file: the hottest spans by self-time."""
    from repro.obs.trace import self_times, spans_from_chrome_trace

    try:
        with open(args.path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"repro-verify: cannot read trace {args.path!r}: {error}", file=sys.stderr)
        return 2
    spans = spans_from_chrome_trace(payload)
    if not spans:
        print(f"repro-verify: {args.path!r} contains no repro spans", file=sys.stderr)
        return 2
    roots = sum(
        1
        for span_dict in spans
        if span_dict.get("parent_id") not in {s["span_id"] for s in spans}
    )
    total = max(s.get("end", s["start"]) for s in spans) - min(s["start"] for s in spans)
    print(f"{len(spans)} span(s), {roots} root(s), {total:.3f}s wall")
    by_id = {span_dict["span_id"]: span_dict for span_dict in spans}
    self_time = self_times(spans)
    print(f"{'self':>9s} {'total':>9s}  span")
    for span_id, seconds in sorted(self_time.items(), key=lambda kv: -kv[1])[: args.top]:
        span_dict = by_id[span_id]
        duration = max(0.0, span_dict.get("end", span_dict["start"]) - span_dict["start"])
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span_dict.get("attrs", {}).items())
        )
        label = span_dict["name"] + (f" [{attrs}]" if attrs else "")
        print(f"{seconds:8.3f}s {duration:8.3f}s  {label}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-verify`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(PROTOCOL_FAMILIES):
            print(name)
        return 0

    if args.command == "properties":
        for name in available_properties():
            print(name)
        return 0

    if args.command == "serve":
        # The daemon answers loader failures as error responses, not exits.
        return _run_serve(args)

    if args.command == "route":
        return _run_route(args)

    if args.command == "trace":
        return _run_trace(args)

    # Loader failures are library exceptions (ProtocolLoadError); only here,
    # at the process boundary, do they become exit codes.
    try:
        if args.command == "batch":
            return _run_batch(args)
        return _run_single(args)
    except ProtocolLoadError as error:
        print(f"repro-verify: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
