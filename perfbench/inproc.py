"""One in-process pass, in a fresh interpreter: set up a Verifier, check a list.

Run by ``run.py``, never by hand::

    python3 perfbench/inproc.py <workload> <seed> <pass index> <trace 0|1> <mode> <cpu|->

``mode`` is ``setup`` (set up, then exit) or ``pass`` (then check the
workload's list) or ``pass+oracle`` (then also run the explicit-state
cross-check, outside the timed region).  ``cpu`` is the CPU to pin the
process to, or ``-``.  The interpreter's start counts
toward set-up, so the parent times set-up from spawning this process to the
``{"ready": true}`` line.  The last line is the pass's result as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    workload, seed, pass_index, trace, mode, cpu = argv
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})
    out = sys.stdout
    sys.stdout = sys.stderr  # keep the program's own output off the result channel

    from repro.api import VerificationOptions, Verifier
    # The theory backend imports scipy lazily; import it during set-up, so
    # that forked engine workers start with it too.
    from repro.smtlite import scipy_backend  # noqa: F401

    from workloads import WORKLOADS, build_predicate, build_protocol, inproc_checks

    tracer = None
    if trace == "1":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    options = VerificationOptions(jobs=WORKLOADS[workload]["jobs"])
    with Verifier(options) as verifier:
        verifier.check(build_protocol("broadcast"), properties=["ws3"])
        print(json.dumps({"ready": True}), file=out, flush=True)
        if mode == "setup":
            return 0

        checks = inproc_checks(workload, int(seed), int(pass_index))
        inputs = [(build_protocol(label), build_predicate(pred)) for label, _, pred in checks]
        if tracer is not None:
            tracer.reset()
        jobs = []
        start = time.perf_counter()
        for (label, prop, pred), (protocol, predicate) in zip(checks, inputs):
            job_start = time.perf_counter()
            try:
                report = verifier.check(protocol, properties=[prop], predicate=predicate)
            except Exception as error:  # a failed job is counted, not fatal
                jobs.append({"job": [label, prop, pred], "error": repr(error)})
                continue
            latency = time.perf_counter() - job_start
            jobs.append({"job": [label, prop, pred], "latency_s": latency, "report": report})
        verify_s = time.perf_counter() - start
        raw = tracer.raw() if tracer is not None else None

        from oracle import explicit_problems, outcome_of

        oracle_start = time.perf_counter()
        for entry, (protocol, predicate) in zip(jobs, inputs):
            report = entry.pop("report", None)
            if report is None:
                continue
            entry.update(outcome_of(report, entry["job"][1], protocol))
            if mode == "pass+oracle":
                entry["oracle"] = explicit_problems(tuple(entry["job"]), entry["verdict"], protocol, predicate)
        result = {
            "verify_s": verify_s,
            "oracle_s": time.perf_counter() - oracle_start,
            "jobs": jobs,
            "options": verifier.options.to_dict(),
        }
        if raw is not None:
            result["raw"] = raw
    # After close, so that the joined engine workers count too.
    result["peak_rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps(result, default=str), file=out, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
