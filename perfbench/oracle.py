"""The expected-verdict oracle, independent of the verifier under test.

Three checks, none of which asks the verifier itself:

* a hard-coded verdict table: every library row of the paper's Table 1 is
  in WS³; the deliberately flawed protocols behave as their docstrings say
  (coin-flip is not in WS³ because StrongConsensus fails, oscillating-majority
  fails LayeredTermination, strict-majority is in WS³ but is not correct for
  ``#A - #B < 1``);
* |Q| and |T| against the paper's size formulas;
* an explicit-state cross-check of every "holds" verdict on all inputs of
  at most ``EXPLICIT_MAX_SIZE`` agents.  WS³ is sound but incomplete, so only
  this direction is an oracle.

Refinement trails (CEGAR iterations, refinements, pattern pairs) are not
verdicts: a difference is reported as a finding, never as a wrong answer.
"""

from __future__ import annotations

EXPLICIT_MAX_SIZE = 4

#: Expected ``(property verdict, {part: verdict})`` per job; jobs absent
#: from the table are library rows, which all hold.
_EXCEPTIONS = {
    ("coin-flip", "ws3", None): ("fails", {"strong_consensus": "fails"}),
    ("oscillating-majority", "ws3", None): ("fails", {"layered_termination": "fails"}),
    ("strict-majority", "correctness", "nonstrict-majority"): ("fails", {}),
}

#: Reference refinement trails of the current code on the serial path
#: (iterations, refinements, pattern pairs).
REFERENCE_TRAILS = {
    ("flock-of-birds-threshold-n:5", "ws3"): {"iterations": 20},
    ("flock-of-birds-threshold-n:8", "ws3"): {"iterations": 123},
    ("threshold:2", "ws3"): {"iterations": 28, "pattern_pairs": 36},
}

#: |T| of the threshold family has no closed form; vmax=3 is Table 1's row.
_THRESHOLD_TRANSITIONS = {2: 146, 3: 288}


def expected_verdict(label: str, prop: str, predicate: str | None) -> tuple[str, dict]:
    return _EXCEPTIONS.get((label, prop, predicate), ("holds", {}))


def expected_size(label: str) -> tuple[int, int]:
    """(|Q|, |T|) by the paper's formulas for the protocol a label names."""
    fixed = {
        "majority": (4, 4),
        "broadcast": (2, 1),
        "coin-flip": (3, 3),
        "oscillating-majority": (5, 8),
        "strict-majority": (4, 4),
    }
    if label in fixed:
        return fixed[label]
    family, _, parameter = label.partition(":")
    if family == "remainder" and parameter.startswith("m="):
        m = int(parameter.split(",")[0][2:])
    else:
        m = c = vmax = int(parameter)
    if family == "flock-of-birds":
        return c + 1, c * (c + 1) // 2
    if family == "flock-of-birds-threshold-n":
        return c + 1, 2 * c - 1
    if family == "remainder":
        return m + 2, m * (m + 1) // 2 + m
    if family == "threshold":
        return 4 * (2 * vmax + 1), _THRESHOLD_TRANSITIONS[vmax]
    raise KeyError(f"no size formula for {label!r}")


def outcome_of(report, prop: str, protocol) -> dict:
    """Verdict, part verdicts, sizes and refinement trail of one check."""
    result = report.result_for(prop)
    outcome = {
        "verdict": result.verdict.value,
        "parts": {part.property: part.verdict.value for part in result.parts},
        "size": [protocol.num_states, protocol.num_transitions],
    }
    trail_source = report.result_for("strong_consensus") if prop == "ws3" else result
    if trail_source is not None and trail_source.statistics:
        stats = trail_source.statistics
        outcome["trail"] = {
            "iterations": stats.get("iterations"),
            "refinements": len(trail_source.refinements),
            "pattern_pairs": stats.get("pattern_pairs"),
            "pruned_pairs": stats.get("pruned_pairs", 0),
        }
    return outcome


def verdict_problems(job: tuple, outcome: dict) -> list[str]:
    """Why one job's outcome disagrees with the table (empty when it agrees)."""
    label, prop, predicate = job
    verdict, parts = expected_verdict(label, prop, predicate)
    problems = []
    if outcome.get("verdict") != verdict:
        problems.append(f"{label} {prop}: verdict {outcome.get('verdict')}, expected {verdict}")
    for part, part_verdict in parts.items():
        got = outcome.get("parts", {}).get(part)
        if got != part_verdict:
            problems.append(f"{label} {prop}: {part} {got}, expected {part_verdict}")
    size = outcome.get("size")
    if size is not None and tuple(size) != expected_size(label):
        problems.append(f"{label}: |Q|,|T| = {tuple(size)}, expected {expected_size(label)}")
    return problems


def explicit_problems(job: tuple, verdict: str, protocol, predicate=None) -> list[str]:
    """Cross-check a "holds" verdict by explicit-state search on small inputs."""
    if verdict != "holds":
        return []
    label, prop, _ = job
    if prop == "ws3":
        from repro.verification.explicit import verify_inputs_up_to

        sweep = verify_inputs_up_to(protocol, EXPLICIT_MAX_SIZE)
        if not sweep.all_well_specified:
            return [f"{label}: WS3 holds, but an input of <= {EXPLICIT_MAX_SIZE} agents is not well specified"]
    elif prop == "correctness":
        from repro.verification.explicit import check_predicate_on_inputs

        predicate = predicate or protocol.metadata.get("predicate")
        all_match, _ = check_predicate_on_inputs(protocol, predicate, EXPLICIT_MAX_SIZE)
        if not all_match:
            return [f"{label}: correctness holds, but a small input computes the wrong output"]
    return []


def trail_problems(trails: dict[str, list[dict]], serial: bool) -> list[str]:
    """Refinement-trail differences between passes, and against the reference.

    ``trails`` maps a job key to the trail of each pass; the reference
    values hold for the serial path only.
    """
    problems = []
    for key, seen in sorted(trails.items()):
        if any(trail != seen[0] for trail in seen[1:]):
            problems.append(f"{key}: trail differs between passes: {seen}")
        reference = REFERENCE_TRAILS.get(tuple(key.split(" ", 1))) if serial else None
        if reference:
            got = {name: seen[0].get(name) for name in reference}
            if got != reference:
                problems.append(f"{key}: trail {got}, reference {reference}")
    return problems
