"""Picklable subproblem envelopes exchanged between coordinator and workers.

A :class:`Subproblem` is a self-contained description of one independent
piece of a batch: which check to perform (``kind``: ``"check-protocol"``
verifies one whole protocol; ``"poison"`` deliberately damages its worker
for the fault-injection tests), the protocol it concerns, and the
kind-specific parameters (property names, options, predicate).  Everything
in the envelope is picklable, so a subproblem can cross a process boundary;
the protocol travels as the serialisation dictionary of
:mod:`repro.io.serialization` together with its content hash, which lets
worker processes cache the decoded protocol.

Payloads that also land on disk — the result cache stores whole
verification reports — go through the shared artifact codecs of
:mod:`repro.io.serialization`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Subproblem kinds understood by :func:`repro.engine.worker.solve_subproblem`.
KINDS = ("check-protocol", "poison")


@dataclass(frozen=True)
class Subproblem:
    """One independent unit of verification work.

    ``index`` is the subproblem's position in the deterministic enumeration
    order of its producer; the coordinator uses it to merge results (and
    pick winners) independently of completion timing.

    ``job_id`` names the verification-service job the envelope belongs to.
    It is stamped automatically from the thread's job binding when the
    envelope is built by a bound coordinator (and stays ``None`` for plain
    library use), so engine traffic — and the progress events derived from
    it — can always be attributed to a job.
    """

    kind: str
    index: int
    protocol_key: str
    protocol_data: dict
    params: dict = field(default_factory=dict)
    job_id: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown subproblem kind {self.kind!r}")
        if self.job_id is None:
            from repro.engine.monitor import current_job_id

            object.__setattr__(self, "job_id", current_job_id())

    @property
    def label(self) -> str:
        return f"{self.kind}[{self.index}]"


@dataclass
class SubproblemResult:
    """What a worker sends back: a verdict plus kind-specific payload.

    ``verdict`` is ``"holds"``/``"fails"`` for whole-protocol subproblems;
    ``data`` carries the portable payload (the report dictionary) and
    ``statistics`` the worker-side counters.

    ``spans`` carries the worker-side trace spans of a traced run (the
    envelope's ``params["trace"]`` flag asks the worker to collect them);
    the coordinator re-parents them under its own span tree at harvest.
    ``None`` — not an empty list — when the run was untraced, so untraced
    pickles stay byte-for-byte what they were.
    """

    kind: str
    index: int
    verdict: str
    data: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)
    spans: list | None = None
