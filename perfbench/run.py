#!/usr/bin/env python3
"""The repository benchmark: four workloads, verdict-checked, traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload cegar-deep --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --all --seed 1 --output results.json
    python3 perfbench/run.py --compare before.json after.json

The first form measures one workload for about ``--seconds`` seconds and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json``.  A readable summary goes to standard error.  ``--all`` runs
every workload untraced and traced, prints both tables and the tracing
overhead, and exits non-zero if a verdict is wrong or a job failed.
``--compare`` prints two result files (written with ``--output``) side by
side and flags end-to-end changes beyond the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from metrics import layer_metrics, tail  # noqa: E402
from oracle import trail_problems, verdict_problems  # noqa: E402
from workloads import SERVE_COLD, WORKLOADS, inline_label  # noqa: E402

#: Set-up samples per run: each pass sets up once; set-up-only starts fill the rest.
MIN_SETUP_SAMPLES = 7
#: A pass process still running after this long is killed (a failed run).
PASS_LIMIT_S = 150.0
MAX_PASSES = 50
#: End-to-end figures reported without a bound in BENCHMARK.json: the
#: latency statistics of the in-process lists ride on sub-second checks,
#: too noisy run to run for a 25% bound, and the verdict counts are 0.
UNBOUNDED_UNITS = {
    "job_latency_p50_s": "s",
    "job_latency_tail_s": "s",
    "verdicts_wrong": "count",
    "failed_ratio": "ratio",
}


def pinned_cpu(workload: str, index: int) -> int | None:
    """The CPU that the ``index``-th process of a run is pinned to, or None.

    On a shared host one CPU can run 40% slower than another for minutes (a
    busy neighbour on its hyperthread sibling), and a single-threaded pass
    takes the speed of whichever CPU it lands on.  The passes and set-up
    probes of a ``jobs=1`` in-process workload therefore cycle through the
    allowed CPUs, so that every run samples each of them.  Workloads that
    run several processes spread over the CPUs themselves and are not pinned.
    """
    spec = WORKLOADS[workload]
    if spec["kind"] != "inproc" or spec["jobs"] != 1:
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[index % len(cpus)]


def cpu_balanced(samples: list[tuple[int | None, float]]) -> float:
    """The mean over CPUs of each CPU's median sample (the median when unpinned)."""
    by_cpu: dict[int | None, list[float]] = {}
    for cpu, value in samples:
        by_cpu.setdefault(cpu, []).append(value)
    return fmean(median(values) for values in by_cpu.values())


def run_inproc(
    workload: str, seed: int, pass_index: int, trace: int, mode: str, cpu: int | None
) -> tuple[float, dict | None]:
    """Start one in-process pass; return (set-up seconds, pass result)."""
    spawned = time.perf_counter()
    process = subprocess.Popen(
        [
            sys.executable, str(HERE / "inproc.py"),
            workload, str(seed), str(pass_index), str(trace), mode, "-" if cpu is None else str(cpu),
        ],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
        cwd=ROOT,
    )
    watchdog = threading.Timer(PASS_LIMIT_S, process.kill)
    watchdog.start()
    try:
        ready_line = process.stdout.readline()
        ready = time.perf_counter()
        rest = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        process.stdout.close()
    if code != 0 or not ready_line.startswith('{"ready"'):
        raise RuntimeError(f"{workload} pass {pass_index} ({mode}) exited with code {code}")
    result = json.loads(rest.splitlines()[-1]) if mode != "setup" else None
    return ready - spawned, result


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run passes of one workload for about ``seconds``; return its result record."""
    spec = WORKLOADS[workload]
    setups: list[tuple[int | None, float]] = []  # (pinned CPU, seconds)
    passes: list[dict] = []
    if spec["kind"] == "inproc":

        def setup_probe() -> tuple[int | None, float]:
            cpu = pinned_cpu(workload, len(setups))
            return cpu, run_inproc(workload, seed, 0, trace, "setup", cpu)[0]

        def one_pass(index: int) -> dict:
            cpu = pinned_cpu(workload, index)
            mode = "pass+oracle" if index == 0 else "pass"
            setup_s, result = run_inproc(workload, seed, index, trace, mode, cpu)
            setups.append((cpu, setup_s))
            result["cpu"] = cpu
            if trace:
                result["raw"]["trace.verify_s"] = result["verify_s"]
            return result
    else:
        sys.path.insert(0, str(ROOT / "src"))
        from oracle import explicit_problems, outcome_of
        from serve import JobRunner, daemon_setup, run_pass

        WORK.mkdir(exist_ok=True)
        runner = JobRunner(bool(trace))

        def setup_probe() -> tuple[int | None, float]:
            return None, daemon_setup(ROOT, WORK)

        def one_pass(index: int) -> dict:
            result = run_pass(ROOT, WORK, runner, seed, index)
            setups.append((None, result["setup_s"]))
            result["cpu"] = None
            jobs = []
            oracle_start = time.perf_counter()
            for record in result.pop("records"):
                report = record.pop("report", None)
                if report is not None:
                    protocol = runner.protocol(record["job"][0])
                    record.update(outcome_of(report, "ws3", protocol))
                    if index == 0:
                        record["oracle"] = explicit_problems(tuple(record["job"]), record["verdict"], protocol)
                jobs.append(record)
            result["oracle_s"] = time.perf_counter() - oracle_start
            result["jobs"] = jobs
            from repro.api import VerificationOptions

            result["options"] = VerificationOptions().to_dict()
            return result

    # The oracle's explicit-state checks run untimed, in the first pass; they
    # do not count toward the run length either.
    start = time.perf_counter()
    oracle_s = 0.0
    while len(passes) < MAX_PASSES:
        passes.append(one_pass(len(passes)))
        oracle_s += passes[-1]["oracle_s"]
        elapsed = time.perf_counter() - start - oracle_s
        if elapsed + elapsed / len(passes) > seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_probe())
    if spec["kind"] == "serve":
        try:
            WORK.rmdir()
        except OSError:
            pass
    return summarise(workload, trace, setups, passes)


def summarise(workload: str, trace: int, setups: list[tuple[int | None, float]], passes: list[dict]) -> dict:
    jobs = [job for result in passes for job in result["jobs"]]
    done = [job for job in jobs if "error" not in job]
    problems = [problem for job in done for problem in verdict_problems(tuple(job["job"]), job)]
    wrong = sum(1 for job in done if verdict_problems(tuple(job["job"]), job))
    oracle = [problem for job in done for problem in job.get("oracle", ())]
    trails: dict[str, list[dict]] = {}
    for job in done:
        if job.get("trail"):
            trails.setdefault(f"{job['job'][0]} {job['job'][1]}", []).append(job["trail"])
    serial = WORKLOADS[workload]["jobs"] == 1
    trail_findings = trail_problems(trails, serial)

    # Latency statistics per pass, then the median over passes, so that
    # they do not change meaning with the number of passes a run fits.
    per_pass_all = [[job["latency_s"] for job in result["jobs"] if "error" not in job] for result in passes]
    per_pass = [latencies for latencies in per_pass_all if latencies]
    tails = [tail(latencies) for latencies in per_pass]
    verify = [result["verify_s"] for result in passes]
    rss_kb = max(result["peak_rss_kb"] for result in passes)
    if WORKLOADS[workload]["kind"] == "serve":
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    end_to_end = {
        "setup_s": cpu_balanced(setups),
        "verify_s": cpu_balanced([(result["cpu"], result["verify_s"]) for result in passes]),
        # Every pass runs a fixed job list, so this is verify_s inverted;
        # --compare flags only the one of the two the workload is judged on.
        "throughput_jobs_per_s": cpu_balanced(
            [(result["cpu"], len(latencies) / result["verify_s"]) for latencies, result in zip(per_pass_all, passes)]
        ),
        "job_latency_p50_s": median([median(latencies) for latencies in per_pass]),
        "job_latency_tail_s": median([value for _, value in tails]),
        "peak_rss_mb": rss_kb / 1024.0,
        "verdicts_wrong": wrong,
        "failed_ratio": (len(jobs) - len(done)) / len(jobs),
    }
    record = {
        "workload": workload,
        "trace": trace,
        "passes": len(passes),
        "attempted": len(jobs),
        "failed": len(jobs) - len(done),
        "correct": wrong == 0 and not oracle,
        "end_to_end": end_to_end,
        "samples": {
            "setup_s": [seconds for _, seconds in setups],
            "setup_cpus": [cpu for cpu, _ in setups],
            "verify_s": verify,
            "verify_cpus": [result["cpu"] for result in passes],
            "job_latencies_per_pass": [len(latencies) for latencies in per_pass],
            "job_latency_tail_percentile": [percentile for percentile, _ in tails],
        },
        "problems": problems + oracle,
        "errors": [job["error"] for job in jobs if "error" in job],
        "trails": {key: seen[0] for key, seen in trails.items()},
        "trail_findings": trail_findings,
        "options": passes[0]["options"],
    }
    if WORKLOADS[workload]["kind"] == "serve":
        labels = [job["job"][0] for job in jobs]
        record["mix"] = {
            "repeat_share": sum(label not in SERVE_COLD for label in labels) / len(labels),
            "inline_share": sum(inline_label(label) for label in labels) / len(labels),
            "negative_share": sum(job.get("verdict") == "fails" for job in done) / len(labels),
        }
    if trace:
        raw: dict[str, float] = {}
        for result in passes:
            for key, value in result["raw"].items():
                raw[key] = raw.get(key, 0.0) + value
        if WORKLOADS[workload]["kind"] == "inproc":
            # The refinement trail each report carries; the daemon's layers
            # are not traced, so serve-mix leaves these at zero.
            for job in done:
                trail = job.get("trail") or {}
                names = ("iterations",) if job["job"][1] == "correctness" else (
                    "iterations", "refinements", "pattern_pairs", "pruned_pairs")
                layer = "correctness" if job["job"][1] == "correctness" else "consensus"
                for name in names:
                    raw[f"{layer}.{name}"] = raw.get(f"{layer}.{name}", 0) + (trail.get(name) or 0)
        raw["consensus.trail_mismatches"] = len(trail_findings)
        record["per_layer"] = layer_metrics(raw, len(passes))
    return record


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
    }


def result_line(record: dict, manifest: dict) -> str:
    group = "per_layer" if record["trace"] else "end_to_end"
    values = record[group]
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in manifest[group]
    }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def print_record(record: dict, manifest: dict) -> None:
    units = {entry["name"]: entry["unit"] for group in ("end_to_end", "per_layer") for entry in manifest[group]}
    units.update(UNBOUNDED_UNITS)
    group = "per_layer" if record["trace"] else "end_to_end"
    print(
        f"== {record['workload']} ({'traced' if record['trace'] else 'untraced'}, "
        f"{record['passes']} pass(es), {record['attempted']} jobs)",
        file=sys.stderr,
    )
    for name, value in record[group].items():
        print(f"  {name:32s} {value:14.6g} {units.get(name, '')}", file=sys.stderr)
    if not record["trace"]:
        print(
            f"  (tail = p{record['samples']['job_latency_tail_percentile'][0]:.0f} of "
            f"{record['samples']['job_latencies_per_pass'][0]} job latencies per pass)",
            file=sys.stderr,
        )
    if "mix" in record:
        print(f"  mix: {record['mix']}", file=sys.stderr)
    for line in record["problems"] + record["errors"]:
        print(f"  WRONG: {line}", file=sys.stderr)
    for line in record["trail_findings"]:
        print(f"  trail finding: {line}", file=sys.stderr)


def write_results(path: Path, records: list[dict], args) -> None:
    results: dict = {"environment": environment(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for record in records:
        results["workloads"].setdefault(record["workload"], {})[
            "traced" if record["trace"] else "untraced"
        ] = record
    path.write_text(json.dumps(results, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", type=Path, help="write the full result record here")
    args = parser.parse_args(argv)

    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.is_file() or not (ROOT / "src" / "repro").is_dir():
        print("perfbench: run from a checkout of the repository (src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    if args.compare:
        from compare import compare

        return compare(*args.compare, manifest)
    if args.all:
        records = []
        for workload in WORKLOADS:
            for trace in (0, 1):
                records.append(measure(workload, args.seed, args.seconds, trace))
                print_record(records[-1], manifest)
        if args.output:
            write_results(args.output, records, args)
        print_overview(records, manifest)
        ok = all(r["correct"] and r["failed"] == 0 for r in records)
        return 0 if ok else 1
    if args.workload is None:
        parser.error("give --workload, --all or --compare")
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    print_record(record, manifest)
    if args.output:
        write_results(args.output, [record], args)
    print(result_line(record, manifest), flush=True)
    return 0 if record["correct"] and record["failed"] == 0 else 1


def print_overview(records: list[dict], manifest: dict) -> None:
    """Every end-to-end metric per workload, and the tracing overhead."""
    units = {entry["name"]: entry["unit"] for entry in manifest["end_to_end"]}
    units.update(UNBOUNDED_UNITS)
    untraced = {r["workload"]: r for r in records if not r["trace"]}
    traced = {r["workload"]: r for r in records if r["trace"]}
    print(f"{'metric':30s}" + "".join(f"{w:>18s}" for w in untraced))
    for name in next(iter(untraced.values()))["end_to_end"]:
        cells = "".join(f"{untraced[w]['end_to_end'][name]:18.5g}" for w in untraced)
        print(f"{name + ' [' + units[name] + ']':30s}{cells}")
    overhead = "".join(
        f"{traced[w]['per_layer']['trace.verify_s'] / untraced[w]['end_to_end']['verify_s'] - 1:18.1%}"
        if w in traced
        else f"{'-':>18s}"
        for w in untraced
    )
    print(f"{'tracing overhead':30s}{overhead}")


if __name__ == "__main__":
    raise SystemExit(main())
