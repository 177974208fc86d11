"""Compare two result files written by ``run.py --output``.

Prints each end-to-end metric per workload side by side, flagging a change
for the worse beyond the metric's bound in ``BENCHMARK.json`` (``WORSE``)
and one for the better beyond it (``better``).  Of ``verify_s`` and
``throughput_jobs_per_s``, one figure inverted, only the one the workload is
judged on is flagged.  Then the per-layer metrics, flagging counts that did
not repeat exactly; then refinement trails that differ between the two
files.  Exits 1 if any flagged end-to-end metric got worse beyond its bound.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

_ONE_FIGURE = {"verify_s", "throughput_jobs_per_s"}


def _change(before: float, after: float) -> float:
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    return (after - before) / before


def compare(before_path: Path, after_path: Path, manifest: dict) -> int:
    before = json.loads(before_path.read_text())["workloads"]
    after = json.loads(after_path.read_text())["workloads"]
    worse = 0
    for workload in [name for name in before if name in after]:
        print(f"== {workload}")
        old_run, new_run = before[workload].get("untraced"), after[workload].get("untraced")
        if old_run and new_run:
            bounded = {entry["name"]: entry for entry in manifest["end_to_end"]}
            for name, old in old_run["end_to_end"].items():
                new = new_run["end_to_end"][name]
                change = _change(old, new)
                flag = ""
                entry = bounded.get(name)
                if name in _ONE_FIGURE and name != WORKLOADS[workload]["judged_on"]:
                    flag = f"(same figure as {WORKLOADS[workload]['judged_on']})"
                elif entry is not None:
                    sign = 1 if entry["better"] == "lower" else -1
                    if sign * change > entry["bound"]:
                        flag, worse = "WORSE", worse + 1
                    elif -sign * change > entry["bound"]:
                        flag = "better"
                else:
                    flag = "(no bound)"
                print(f"  {name:30s} {old:14.6g} {new:14.6g} {change:+8.1%} {flag}")
        old_trace, new_trace = before[workload].get("traced"), after[workload].get("traced")
        if old_trace and new_trace:
            for entry in manifest["per_layer"]:
                name = entry["name"]
                old, new = old_trace["per_layer"][name], new_trace["per_layer"][name]
                flag = "count changed" if entry["unit"] in ("count", "bytes") and old != new else ""
                print(f"  {name:30s} {old:14.6g} {new:14.6g} {_change(old, new):+8.1%} {entry['unit']:6s} {flag}")
        trails = {}
        for side, runs in (("before", before[workload]), ("after", after[workload])):
            for run in runs.values():
                for key, trail in run.get("trails", {}).items():
                    trails.setdefault(key, {}).setdefault(side, trail)
        for key, seen in sorted(trails.items()):
            if len(seen) == 2 and seen["before"] != seen["after"]:
                print(f"  trail differs: {key}: {seen['before']} -> {seen['after']}")
    return 1 if worse else 0
