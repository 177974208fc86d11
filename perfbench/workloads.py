"""The benchmark's workloads: fixed job lists and the seeded serve-mix draw.

A *job* is one ``(protocol label, property, predicate label)`` triple.  The
label names a protocol by the daemon's spec syntax (``family[:parameter]``)
or, for the few protocols outside the spec families, by a name of
``EXTRA_PROTOCOLS``.  Only the order of the in-process lists depends on the
seed; serve-mix draws its hot repeats from the seed as well, but always
submits every cold spec once, so every seed does the same amount of work.
"""

from __future__ import annotations

import random

#: Protocols that the spec syntax cannot name, built by their library factory.
EXTRA_PROTOCOLS = {
    "coin-flip": ("coin_flip_protocol", ()),
    "oscillating-majority": ("oscillating_majority_protocol", ()),
    "strict-majority": ("exclusive_majority_protocol", ()),
    "remainder:m=5,c=3": ("remainder_protocol", ([1], 5, 3)),
}

#: Labels of predicates a correctness job may be checked against, instead
#: of the protocol's own documented predicate: ``#A - #B < 1``.
PREDICATES = {"nonstrict-majority": ({"A": 1, "B": -1}, 1)}

PATTERN_SWEEP = [
    ("majority", "ws3", None),
    ("broadcast", "ws3", None),
    ("flock-of-birds:4", "ws3", None),
    ("flock-of-birds:6", "ws3", None),
    ("remainder:m=5,c=3", "ws3", None),
    ("threshold:2", "ws3", None),
    ("coin-flip", "ws3", None),
    ("oscillating-majority", "ws3", None),
    ("strict-majority", "ws3", None),
    ("majority", "correctness", None),
    ("flock-of-birds:6", "correctness", None),
    ("strict-majority", "correctness", "nonstrict-majority"),
]

#: serve-mix: repeats of these are cache reads (the set is primed untimed).
SERVE_HOT = ["majority", "broadcast", "flock-of-birds:4", "coin-flip"]
#: serve-mix: each pass submits every one of these once, to a fresh cache.
SERVE_COLD = [
    label
    for label in (
        [f"flock-of-birds:{c}" for c in range(3, 8)]
        + [f"flock-of-birds-threshold-n:{c}" for c in range(3, 6)]
        + [f"remainder:{m}" for m in range(2, 5)]
        + ["strict-majority"]
    )
    if label not in SERVE_HOT
]
#: Hot repeats per pass: half as many as cold jobs, so about a third of all jobs.
#: The mix is synthetic: no sample of daemon traffic exists to derive it
#: from, and the repeat share was chosen to keep the median among cold jobs.
SERVE_HOT_PER_PASS = (len(SERVE_COLD) + 1) // 2
#: The fixed order of the cold specs, large and small ones mixed.
_SERVE_COLD_ORDER = random.Random("serve-mix").sample(SERVE_COLD, len(SERVE_COLD))

#: ``judged_on``: of verify_s and throughput_jobs_per_s, which are one figure
#: (every pass runs a fixed job list), the one --compare flags.
WORKLOADS = {
    "cegar-deep": {
        "kind": "inproc",
        "jobs": 1,
        "judged_on": "verify_s",
        "checks": [
            ("flock-of-birds-threshold-n:5", "ws3", None),
            ("flock-of-birds-threshold-n:8", "ws3", None),
        ],
    },
    "pattern-sweep": {
        "kind": "inproc",
        "jobs": 1,
        "judged_on": "verify_s",
        "checks": PATTERN_SWEEP,
    },
    "pattern-sweep-j2": {
        "kind": "inproc",
        "jobs": 2,
        "judged_on": "verify_s",
        "checks": PATTERN_SWEEP,
    },
    "serve-mix": {
        "kind": "serve",
        "jobs": 1,
        "judged_on": "throughput_jobs_per_s",
    },
}


def inline_label(label: str) -> bool:
    """Whether serve-mix submits this protocol inline rather than by spec."""
    return label in EXTRA_PROTOCOLS


def build_protocol(label: str):
    """The protocol a label names (imports the program, so call it late)."""
    if label in EXTRA_PROTOCOLS:
        from repro.protocols import library

        factory, args = EXTRA_PROTOCOLS[label]
        return getattr(library, factory)(*args)
    from repro.io.loading import resolve_protocol_spec

    return resolve_protocol_spec(label)


def build_predicate(label: str | None):
    if label is None:
        return None
    from repro.presburger.predicates import ThresholdPredicate

    coefficients, constant = PREDICATES[label]
    return ThresholdPredicate(coefficients, constant)


def inproc_checks(workload: str, seed: int, pass_index: int) -> list[tuple]:
    """The workload's fixed check list in this pass's seeded order."""
    checks = list(WORKLOADS[workload]["checks"])
    random.Random(f"{seed}:{pass_index}").shuffle(checks)
    return checks


def serve_jobs(seed: int, pass_index: int) -> list[tuple[str, str, None]]:
    """One serve-mix pass: every cold spec once, a seeded hot repeat after every second.

    The seed draws which hot protocols are read; the schedule itself is
    fixed, because which jobs meet on the daemon's single worker decides
    their queue wait, and a seeded schedule would make the latency figures
    a property of the seed rather than of the program.
    """
    rng = random.Random(f"{seed}:{pass_index}")
    hot = [rng.choice(SERVE_HOT) for _ in range(SERVE_HOT_PER_PASS)]
    labels = []
    for position, label in enumerate(_SERVE_COLD_ORDER):
        labels.append(label)
        if position % 2 == 1:
            labels.append(hot.pop())
    labels += hot
    return [(label, "ws3", None) for label in labels]
