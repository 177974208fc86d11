"""Batch verification: fan a set of protocols over the engine, with caching.

:func:`run_batch` is the multi-protocol back end of
:meth:`repro.api.verifier.Verifier.check_many`: each protocol becomes one
``check-protocol`` subproblem, the pool verifies ``jobs`` of them
concurrently, and a content-addressed
:class:`~repro.engine.cache.ResultCache` short-circuits protocols whose
verdict is already known (identical protocol + engine version + property
set + options), so repeated sweeps — benchmark reruns, parameter scans that
revisit instances — are served from disk in milliseconds.

Every item carries a full, lossless
:class:`~repro.api.report.VerificationReport` — certificates,
counterexamples and refinement trails included — whether it comes from a
worker, from the in-process serial path, or from the cache (which stores
exactly ``report.to_dict()``).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.api.options import VerificationOptions
from repro.api.report import VerificationReport
from repro.engine import monitor
from repro.engine.cache import ResultCache, protocol_content_hash
from repro.service.events import CacheHit
from repro.engine.scheduler import ENGINE_VERSION, VerificationEngine
from repro.engine.subproblem import Subproblem
from repro.io.serialization import protocol_to_dict
from repro.protocols.protocol import PopulationProtocol


def batch_cache_options(
    properties: Sequence[str],
    options: VerificationOptions,
    predicate=None,
) -> dict:
    """The options dictionary that keys cached verdicts.

    The single source of truth for cache keying: every caller that reads or
    writes the result cache (``run_batch``, ``scripts/bench.py``) must build
    its options through here, or identical runs would stop sharing entries.
    Only verdict-affecting fields participate (``options.cache_snapshot()``);
    the documented predicate joins the key when correctness is requested,
    since the verdict depends on it.
    """
    payload = {"properties": list(properties), "options": options.cache_snapshot()}
    if predicate is not None:
        payload["predicate"] = predicate.describe()
    return payload


@dataclass
class BatchItem:
    """Verdict for one protocol of a batch."""

    index: int
    protocol_name: str
    protocol_hash: str
    report: VerificationReport
    from_cache: bool = False
    time_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True iff no requested property failed."""
        return self.report.ok

    @property
    def is_ws3(self) -> bool:
        """True iff WS³ membership was checked and holds.

        Never fabricated: when ``"ws3"`` was not among the requested
        properties this is ``False``, not a guess from the other verdicts.
        """
        result = self.report.result_for("ws3")
        return result is not None and result.holds


@dataclass
class BatchResult:
    """Outcome of a batch run."""

    items: list[BatchItem]
    statistics: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(item.ok for item in self.items)

    @property
    def all_ws3(self) -> bool:
        return all(item.is_ws3 for item in self.items)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


def batch_result_to_dict(batch: BatchResult) -> dict:
    """Lossless plain-dictionary form of a batch outcome (JSON-clean).

    The serve daemon's batch payloads and the journal's finished records
    both ship this shape; :func:`batch_result_from_dict` reverses it, which
    is what lets a restarted service hand out finished batch results it
    never computed itself.
    """
    return {
        "items": [
            {
                "index": item.index,
                "protocol": item.protocol_name,
                "protocol_hash": item.protocol_hash,
                "ok": item.ok,
                "from_cache": item.from_cache,
                "time_seconds": item.time_seconds,
                "report": item.report.to_dict(),
            }
            for item in batch.items
        ],
        "statistics": batch.statistics,
    }


def batch_result_from_dict(data: dict) -> BatchResult:
    """Inverse of :func:`batch_result_to_dict`."""
    return BatchResult(
        items=[
            BatchItem(
                index=entry["index"],
                protocol_name=entry["protocol"],
                protocol_hash=entry["protocol_hash"],
                report=VerificationReport.from_dict(entry["report"]),
                from_cache=entry.get("from_cache", False),
                time_seconds=entry.get("time_seconds", 0.0),
            )
            for entry in data.get("items", [])
        ],
        statistics=data.get("statistics", {}),
    )


def run_batch(
    protocols: Sequence[PopulationProtocol],
    properties: Sequence[str],
    options: VerificationOptions,
    engine: VerificationEngine | None = None,
    cache: ResultCache | None = None,
    check_one=None,
) -> BatchResult:
    """Verify many protocols, fanning out over worker processes.

    ``check_one(protocol) -> VerificationReport`` is the serial path used
    when the batch cannot fan out across protocols (no parallel engine, or
    a single pending protocol, which is not worth a worker round trip);
    ``Verifier.check_many`` wires it to its own ``check``.  Protocols
    appearing more than once (by content hash) are verified once; later
    occurrences reuse the verdict.
    """
    if check_one is None:
        raise ValueError("run_batch requires a check_one callback (see Verifier.check_many)")
    start = time.perf_counter()
    protocols = list(protocols)
    properties = tuple(properties)

    items: list[BatchItem | None] = [None] * len(protocols)
    pending: list[tuple[int, PopulationProtocol, str, str, object]] = []
    first_occurrence: dict[str, int] = {}
    duplicates: list[tuple[int, int]] = []

    for index, protocol in enumerate(protocols):
        content_hash = protocol_content_hash(protocol)
        predicate = protocol.metadata.get("predicate") if "correctness" in properties else None
        key = ResultCache.entry_key(
            content_hash, ENGINE_VERSION, batch_cache_options(properties, options, predicate)
        )
        # Dedup on the full entry key, not the content hash alone: two
        # structurally identical protocols can still differ in their
        # documented predicate (metadata is excluded from the hash), and a
        # correctness verdict must not leak between them.
        if key in first_occurrence:
            duplicates.append((index, first_occurrence[key]))
            continue
        first_occurrence[key] = index
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            monitor.emit(
                lambda job_id, protocol=protocol, content_hash=content_hash: CacheHit(
                    job_id=job_id,
                    protocol_name=protocol.name,
                    protocol_hash=content_hash,
                )
            )
            items[index] = BatchItem(
                index=index,
                protocol_name=protocol.name,
                protocol_hash=content_hash,
                report=VerificationReport.from_dict(cached),
                from_cache=True,
            )
        else:
            pending.append((index, protocol, content_hash, key, predicate))

    verified = 0
    # Across-protocol fan-out requires every property to be resolvable in a
    # fresh worker process; plugin properties registered only in this
    # process stay on the coordinator's serial path.
    from repro.api.properties import BUILTIN_PROPERTIES

    parallel = (
        engine is not None and engine.parallel and set(properties) <= BUILTIN_PROPERTIES
    )
    if pending:
        verified = len(pending)
        if parallel and len(pending) > 1:
            # Across-protocol fan-out: one check-protocol subproblem each.
            _run_parallel(pending, items, properties, options, engine)
        else:
            for index, protocol, content_hash, _key, _predicate in pending:
                instance_start = time.perf_counter()
                report = check_one(protocol)
                items[index] = BatchItem(
                    index=index,
                    protocol_name=protocol.name,
                    protocol_hash=content_hash,
                    report=report,
                    time_seconds=time.perf_counter() - instance_start,
                )
        if cache is not None:
            for index, _protocol, _content_hash, key, _predicate in pending:
                # A partial report (job budget ran out mid-batch) decided
                # nothing for its unfinished properties; caching it would
                # serve the indecision forever.
                if not items[index].report.partial:
                    cache.put(key, items[index].report.to_dict())

    for index, original in duplicates:
        source = items[original]
        items[index] = BatchItem(
            index=index,
            protocol_name=protocols[index].name,
            protocol_hash=source.protocol_hash,
            report=source.report,
            from_cache=source.from_cache,
        )

    statistics = {
        "protocols": len(protocols),
        "verified": verified,
        "duplicates": len(duplicates),
        "properties": list(properties),
        "jobs": engine.jobs if engine is not None else 1,
        "time": time.perf_counter() - start,
        "cache": dict(cache.statistics) if cache is not None else None,
    }
    return BatchResult(items=[item for item in items], statistics=statistics)


def _run_parallel(
    pending: Sequence[tuple[int, PopulationProtocol, str, str, object]],
    items: list,
    properties: tuple[str, ...],
    options: VerificationOptions,
    engine: VerificationEngine,
) -> None:
    """Fan the pending protocols over the pool, one subproblem each.

    Workers run the full property pipeline serially (their ``options`` are
    forced to ``jobs=1``); the documented predicate travels in the params
    because protocol metadata does not survive the wire format.
    """
    worker_options = options.replace(jobs=1, cache_dir=None).to_dict()
    subproblems = []
    for position, (_index, protocol, content_hash, _key, predicate) in enumerate(pending):
        params = {
            "properties": list(properties),
            "options": worker_options,
        }
        if predicate is not None:
            params["predicate"] = predicate
        subproblems.append(
            Subproblem(
                kind="check-protocol",
                index=position,
                protocol_key=content_hash,
                protocol_data=protocol_to_dict(protocol),
                params=params,
            )
        )
    results = engine.run_wave(subproblems)
    for position, result in enumerate(results):
        index, protocol, content_hash, _key, _predicate = pending[position]
        items[index] = BatchItem(
            index=index,
            protocol_name=protocol.name,
            protocol_hash=content_hash,
            report=VerificationReport.from_dict(result.data["report"]),
            time_seconds=result.statistics.get("time", 0.0),
        )
