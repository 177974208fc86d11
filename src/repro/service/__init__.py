"""Job-oriented verification service: submit, observe, cancel.

The :class:`VerificationService` wraps the engine + property-checker stack
behind an asynchronous job API::

    from repro.service import VerificationService

    with VerificationService(jobs=4) as service:
        handle = service.submit(protocol, properties=["ws3"], priority=5)
        handle.subscribe(lambda event: print(event.to_dict()))
        handle.wait()
        report = handle.result()       # a lossless VerificationReport

Jobs are scheduled priority-first over one shared worker pool and result
cache; every stage emits a typed, JSON-round-trippable
:class:`~repro.service.events.ProgressEvent` (see that module for the
variants), delivered through subscriber callbacks and the blocking
:meth:`~repro.service.jobs.JobHandle.events` iterator.  ``repro-verify
serve`` exposes the same API to external processes as a stdin/stdout
JSON-lines daemon.

The service wraps one :class:`repro.api.Verifier` and runs every job
through the same pipeline ``Verifier.check``/``check_many`` run on the
caller's thread, so verdicts are identical between the two surfaces.

This ``__init__`` resolves its exports lazily (PEP 562): the engine layer
imports :mod:`repro.service.events` at module load, and a eager package
import here would close an import cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "VerificationService": "repro.service.service",
    "JobJournal": "repro.service.journal",
    "JobHandle": "repro.service.jobs",
    "JobStatus": "repro.api.jobs",
    "JobFailedError": "repro.service.jobs",
    "JobNotFinished": "repro.service.jobs",
    "JobCancelledError": "repro.engine.monitor",
    "ProgressEvent": "repro.service.events",
    "EVENT_TYPES": "repro.service.events",
    "event_from_dict": "repro.service.events",
    "describe_event": "repro.service.events",
    "ServeSession": "repro.service.serve",
    "OverloadedError": "repro.service.serve",
    "NetworkServer": "repro.service.net",
    "ServerLimits": "repro.service.net",
    "VerificationClient": "repro.service.client",
    "ClientRetryPolicy": "repro.service.client",
    "JobRouter": "repro.service.router",
    "RouterServer": "repro.service.router",
    "rendezvous_shard": "repro.service.router",
    "split_job_id": "repro.service.router",
    "ReplicaSupervisor": "repro.service.replicas",
    "ReplicaError": "repro.service.replicas",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
