"""Event-schema round-trips: every ProgressEvent variant is lossless.

The satellite guarantee of the service PR: ``to_dict``/``from_dict`` (and a
full JSON hop) reproduce each variant exactly, unknown tags and fields are
rejected, and the human rendering never crashes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.service.events import (
    EVENT_TYPES,
    BackendDegraded,
    BackendSelected,
    CacheHit,
    JobFinished,
    JobQueued,
    JobRecovered,
    JobStarted,
    ProgressEvent,
    PropertyFinished,
    PropertyStarted,
    RefinementFound,
    SubproblemCompleted,
    SubproblemDispatched,
    SubproblemRetried,
    describe_event,
    event_from_dict,
)

#: One fully populated instance of every variant (no field left at default,
#: so the round-trip test cannot pass by accident).
SAMPLES = [
    JobQueued(
        job_id="job-1",
        seq=0,
        timestamp=1234.5,
        protocol_name="majority",
        properties=["ws3", "correctness"],
        priority=7,
        kind="check",
    ),
    JobStarted(job_id="job-1", seq=1, timestamp=1234.6),
    PropertyStarted(job_id="job-1", seq=2, timestamp=1234.7, property="ws3", protocol_name="majority"),
    PropertyFinished(
        job_id="job-1", seq=3, timestamp=1234.8, property="ws3", protocol_name="majority", verdict="holds"
    ),
    SubproblemDispatched(job_id="job-1", seq=4, timestamp=1234.9, kind="check-protocol", index=3, wave=2),
    SubproblemCompleted(
        job_id="job-1",
        seq=5,
        timestamp=1235.0,
        kind="check-protocol",
        index=3,
        verdict="unsat",
        time_seconds=0.25,
    ),
    SubproblemRetried(
        job_id="job-1",
        seq=6,
        timestamp=1235.05,
        kind="check-protocol",
        index=3,
        attempt=2,
        delay_seconds=0.05,
        reason="a worker process died while solving check-protocol[3]",
    ),
    RefinementFound(
        job_id="job-1", seq=6, timestamp=1235.1, refinement="trap", states=["'A'", "'B'"], iteration=4
    ),
    BackendSelected(job_id="job-1", seq=7, timestamp=1235.2, backend="smtlite", scope="options"),
    BackendDegraded(
        job_id="job-1",
        seq=7,
        timestamp=1235.25,
        backend="z3",
        fallback="smtlite",
        reason="FaultInjected: fault injected at backend.check",
    ),
    JobRecovered(job_id="job-1", seq=8, timestamp=1235.28, had_started=True),
    CacheHit(job_id="job-1", seq=8, timestamp=1235.3, protocol_name="majority", protocol_hash="ab" * 32),
    JobFinished(
        job_id="job-1",
        seq=9,
        timestamp=1235.4,
        outcome="done",
        ok=True,
        error="",
        time_seconds=1.5,
    ),
]


def test_every_variant_is_sampled():
    assert {type(sample).TYPE for sample in SAMPLES} == set(EVENT_TYPES)


@pytest.mark.parametrize("event", SAMPLES, ids=[type(s).TYPE for s in SAMPLES])
def test_dict_round_trip_is_lossless(event):
    clone = event_from_dict(event.to_dict())
    assert clone == event
    assert type(clone) is type(event)


@pytest.mark.parametrize("event", SAMPLES, ids=[type(s).TYPE for s in SAMPLES])
def test_json_round_trip_is_lossless(event):
    payload = json.dumps(event.to_dict(), sort_keys=True)
    assert event_from_dict(json.loads(payload)) == event


@pytest.mark.parametrize("event", SAMPLES, ids=[type(s).TYPE for s in SAMPLES])
def test_describe_event_renders(event):
    line = describe_event(event)
    assert isinstance(line, str) and event.job_id in line


def test_stamping_preserves_payload():
    event = PropertyStarted(job_id="job-9", property="ws3", protocol_name="p")
    stamped = event.stamped(seq=12, timestamp=99.5)
    assert stamped.seq == 12 and stamped.timestamp == 99.5
    assert stamped.property == "ws3" and stamped.job_id == "job-9"


def test_unknown_event_type_rejected():
    with pytest.raises(ValueError, match="unknown progress event"):
        event_from_dict({"event": "nonsense", "job_id": "job-1"})


def test_unknown_fields_rejected():
    payload = JobStarted(job_id="job-1").to_dict()
    payload["surprise"] = 1
    with pytest.raises(ValueError, match="unknown"):
        event_from_dict(payload)


def test_variants_have_distinct_tags_and_default_construct():
    # A variant must stay constructible from just a job id (emitters rely on
    # defaults) and its fields must be JSON-clean types by annotation.
    for tag, variant in EVENT_TYPES.items():
        event = variant(job_id="job-x")
        assert event.TYPE == tag
        for f in dataclasses.fields(event):
            value = getattr(event, f.name)
            assert isinstance(value, (str, int, float, bool, list, type(None)))


def test_base_event_is_not_registered():
    assert ProgressEvent.TYPE not in EVENT_TYPES
