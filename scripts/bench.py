#!/usr/bin/env python
"""Run the fixed verification benchmark subset and record a perf snapshot.

Writes ``BENCH_<n>.json`` (next free ``n``) in the repository root with one
entry per benchmark instance: protocol name, |Q|, |T|, the verification
verdict, wall-clock time, and the constraint-solver statistics (theory
checks, cache hits/misses, CEGAR refinements).  The snapshot also records
the selected properties and the full verification-options snapshot, so two
snapshots can only be compared apples-to-apples.  Successive PRs diff these
snapshots to track the performance trajectory.

Usage::

    PYTHONPATH=src python scripts/bench.py            # default subset
    PYTHONPATH=src python scripts/bench.py --jobs 4   # 4 dispatchers in the network block
    PYTHONPATH=src python scripts/bench.py --large    # adds the heavier rows
    PYTHONPATH=src python scripts/bench.py --cache-dir .repro-cache  # result cache
    PYTHONPATH=src python scripts/bench.py --output out.json

The output path is picked automatically (the next free ``BENCH_<n>.json``).
Every row is one ``Verifier.check``, which always runs serially: ``--jobs``
only sizes batch pools, so here it is recorded in the options snapshot and
sets the dispatcher threads of the network-serving block.  The engine
result-cache traffic is recorded too, so cold vs. warm-cache runs can be
diffed directly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import VerificationOptions, Verifier  # noqa: E402
from repro.protocols.library import (  # noqa: E402
    broadcast_protocol,
    flock_of_birds_protocol,
    flock_of_birds_threshold_n_protocol,
    majority_protocol,
    remainder_protocol,
    threshold_table_protocol,
)

#: The property set every benchmark instance is checked against.
PROPERTIES = ("ws3",)


def network_serving_block(jobs: int) -> dict:
    """Serving-tier throughput/latency: the load harness against an
    in-process :class:`~repro.service.net.NetworkServer`.

    Reuses :func:`serve_smoke.run_load` (N concurrent TCP clients × M
    submit→wait→result jobs), so the bench snapshot and the CI load smoke
    measure exactly the same path: client retry loop, JSON-lines framing,
    admission control, the service queue and the verification engine.
    """
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    from serve_smoke import run_load

    from repro.service import NetworkServer, VerificationService

    service = VerificationService(workers=max(2, jobs))
    server = NetworkServer(service)
    host, port = server.start()
    try:
        summary = run_load(host, port, clients=4, jobs=2)
        # The stats op the router's fleet aggregation is built on: per-server
        # counters (connections accepted/shed, frames discarded, jobs
        # admitted/finished, event-pump drops) plus service/cache/journal
        # counters, snapshotted over the wire after the load.
        from repro.service import VerificationClient

        with VerificationClient(host, port, timeout=60) as client:
            response = client.call({"op": "stats"})
        summary["statsz"] = response.get("stats") if response.get("ok") else None
    finally:
        server.drain(timeout=60)
    summary["server_statistics"] = dict(server.statistics)
    return summary


def benchmark_suite(large: bool):
    """The fixed subset: (family, parameter label, protocol factory)."""
    rows = [
        ("majority", "-", majority_protocol),
        ("broadcast", "-", broadcast_protocol),
        ("flock-of-birds", "c=4", lambda: flock_of_birds_protocol(4)),
        ("flock-of-birds", "c=6", lambda: flock_of_birds_protocol(6)),
        ("threshold-n", "c=5", lambda: flock_of_birds_threshold_n_protocol(5)),
        ("threshold-n", "c=8", lambda: flock_of_birds_threshold_n_protocol(8)),
        ("remainder", "m=5", lambda: remainder_protocol([1], 5, 3)),
        ("threshold", "vmax=2", lambda: threshold_table_protocol(2)),
    ]
    if large:
        rows += [
            ("flock-of-birds", "c=8", lambda: flock_of_birds_protocol(8)),
            ("threshold-n", "c=10", lambda: flock_of_birds_threshold_n_protocol(10)),
            ("remainder", "m=8", lambda: remainder_protocol([1], 8, 3)),
            ("threshold", "vmax=3", lambda: threshold_table_protocol(3)),
        ]
    return rows


def _entry_from_report(family: str, parameter: str, protocol, report, elapsed: float, from_cache: bool) -> dict:
    layered = report.result_for("layered_termination")
    strong = report.result_for("strong_consensus")
    entry = {
        "family": family,
        "parameter": parameter,
        "protocol": protocol.name,
        "num_states": protocol.num_states,
        "num_transitions": protocol.num_transitions,
        "is_ws3": report.is_ws3,
        "wall_clock_seconds": round(elapsed, 4),
        "layered_termination": {
            "holds": layered.holds if layered is not None else None,
            "strategy": (layered.statistics.get("strategy") if layered is not None else None),
            "time": (None if from_cache else layered.statistics.get("time")) if layered is not None else None,
        },
    }
    if from_cache:
        entry["from_cache"] = True
    if strong is not None and strong.verdict.value != "skipped":
        entry["strong_consensus"] = {
            "holds": strong.holds,
            "iterations": None if from_cache else strong.statistics.get("iterations"),
            "pattern_pairs": None if from_cache else strong.statistics.get("pattern_pairs"),
            "refinements": len(strong.refinements),
            "time": None if from_cache else strong.statistics.get("time"),
            "solver": {} if from_cache else strong.statistics.get("solver", {}),
            # The folding pass: split parts in, kept, and folded to TRUE.
            "simplifier": None if from_cache else strong.statistics.get("simplifier"),
        }
    return entry


def run_instance(family: str, parameter: str, factory, verifier: Verifier, cache=None) -> dict:
    protocol = factory()
    if cache is not None:
        from repro.engine import ENGINE_VERSION, ResultCache, protocol_content_hash
        from repro.engine.batch import batch_cache_options

        key = ResultCache.entry_key(
            protocol_content_hash(protocol),
            ENGINE_VERSION,
            batch_cache_options(PROPERTIES, verifier.options),
        )
        start = time.perf_counter()
        cached = cache.get(key)
        if cached is not None:
            from repro.api import VerificationReport

            # Timings and solver counters are not meaningful for a cache
            # hit, so those fields are nulled; the verdict block shapes are
            # kept so cold and warm snapshots diff cleanly.
            report = VerificationReport.from_dict(cached)
            return _entry_from_report(
                family, parameter, protocol, report, time.perf_counter() - start, from_cache=True
            )
    start = time.perf_counter()
    report = verifier.check(protocol, properties=PROPERTIES)
    elapsed = time.perf_counter() - start
    if cache is not None:
        cache.put(key, report.to_dict())
    return _entry_from_report(family, parameter, protocol, report, elapsed, from_cache=False)


def next_output_path() -> Path:
    taken = set()
    for path in REPO_ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            taken.add(int(match.group(1)))
    index = 0
    while index in taken:
        index += 1
    return REPO_ROOT / f"BENCH_{index}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--large", action="store_true", help="include the heavier instances")
    parser.add_argument("--output", type=Path, default=None, help="output path (default: BENCH_<n>.json)")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "options.jobs (protocols verified in parallel by a batch); the rows are "
            "single checks and run serially, the network block runs max(2, N) dispatchers"
        ),
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="solver backend (smtlite, scipy-ilp, portfolio; default: $REPRO_BACKEND or smtlite)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="use (and record traffic of) the engine result cache in this directory",
    )
    parser.add_argument(
        "--no-network",
        action="store_true",
        help="skip the network-serving throughput/latency block",
    )
    args = parser.parse_args(argv)

    cache = None
    if args.cache_dir is not None:
        from repro.engine import ResultCache

        cache = ResultCache(args.cache_dir)

    overrides = {"jobs": args.jobs}
    if args.backend is not None:
        overrides["backend"] = args.backend
    options = VerificationOptions(**overrides)
    entries = []
    with Verifier(options) as verifier:
        for family, parameter, factory in benchmark_suite(args.large):
            print(f"running {family} {parameter} ...", flush=True)
            entry = run_instance(family, parameter, factory, verifier, cache=cache)
            print(
                f"  |Q|={entry['num_states']} |T|={entry['num_transitions']} "
                f"ws3={entry['is_ws3']} time={entry['wall_clock_seconds']}s"
                + (" [cache]" if entry.get("from_cache") else ""),
                flush=True,
            )
            entries.append(entry)
        # Fault-tolerance counters of the run: retries/worker deaths/timeouts
        # absorbed by the engine, plus any backend demotions.  All zero on a
        # healthy machine — a nonzero diff between snapshots flags flaky
        # infrastructure before it flags a perf regression.
        from repro.constraints.backends import health_statistics

        engine = verifier.engine
        engine_stats = dict(engine.statistics) if engine is not None else {}
        fault_tolerance = {
            "retries": engine_stats.get("retries", 0),
            "worker_deaths": engine_stats.get("worker_deaths", 0),
            "timeouts": engine_stats.get("timeouts", 0),
            "backend_health": health_statistics(),
            "retry_policy": options.retry.to_dict(),
        }

    network_serving = None
    if not args.no_network:
        print("running network serving load ...", flush=True)
        network_serving = network_serving_block(args.jobs)
        print(
            f"  {network_serving['completed']}/{network_serving['jobs_total']} jobs at "
            f"{network_serving['throughput_jobs_per_second']} jobs/s "
            f"(p95={network_serving.get('latency_seconds', {}).get('p95')}s)",
            flush=True,
        )

    # Incremental counters accumulated across the whole suite: base-level
    # cut promotions and learned-core retention across solver pops.
    from repro.constraints.incremental import incremental_statistics

    # The process-global metrics registry, snapshotted once at the end:
    # the same counters and latency histograms ``GET /metricsz`` exposes
    # (cache, incremental IR, engine retries, network tier), accumulated
    # over the whole bench run.  Diffing this block between snapshots
    # tracks counter drift without re-deriving it from per-entry stats.
    from repro.obs.metrics import REGISTRY

    snapshot = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "large": args.large,
        "jobs": args.jobs,
        "backend": options.backend,
        "cpu_count": os.cpu_count(),
        "properties": list(PROPERTIES),
        "options": options.to_dict(),
        "engine_cache": dict(cache.statistics) if cache is not None else None,
        "fault_tolerance": fault_tolerance,
        "incremental": incremental_statistics(),
        "metrics_registry": REGISTRY.snapshot(),
        "network_serving": network_serving,
        "total_seconds": round(sum(entry["wall_clock_seconds"] for entry in entries), 4),
        "benchmarks": entries,
    }
    output = args.output or next_output_path()
    output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
