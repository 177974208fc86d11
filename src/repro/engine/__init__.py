"""Parallel, cache-aware batch verification engine.

Each property of one protocol is checked by one sequential refinement loop
in the calling process; parallelism is across protocols.  A batch sends one
``check-protocol`` subproblem per protocol to a pool of worker processes:

* :mod:`repro.engine.subproblem` — the picklable :class:`Subproblem` /
  :class:`SubproblemResult` envelope plus the portable artifact codecs;
* :mod:`repro.engine.worker` — the worker-process entry point (per-process
  protocol cache, kind dispatch);
* :mod:`repro.engine.scheduler` — the process-pool scheduler: wave
  execution with results in input order, worker-death recovery, and a
  serial in-process fallback;
* :mod:`repro.engine.retry` — the :class:`RetryPolicy` knobs (retries,
  exponential backoff, per-subproblem and per-job deadlines) that make wave
  execution survive worker deaths and hung solvers;
* :mod:`repro.engine.cache` — the content-addressed protocol hash and the
  on-disk result cache keyed by it;
* :mod:`repro.engine.monitor` — thread-local job instrumentation: progress
  events and cooperative cancellation for every verification job (wave
  boundaries are the engine's cancellation checkpoints, and envelopes carry
  the job id of the thread that built them);
* :mod:`repro.engine.batch` — ``run_batch``: fan a set of protocols over
  the pool, with verified instances served from the result cache as
  lossless :class:`~repro.api.report.VerificationReport` payloads (the
  back end of :meth:`repro.api.Verifier.check_many`).
"""

from repro.engine.cache import ResultCache, canonical_protocol_dict, protocol_content_hash
from repro.engine.monitor import JobCancelledError, JobDeadlineExceeded
from repro.engine.retry import DEFAULT_RETRY, NO_RETRY, RetryPolicy
from repro.engine.scheduler import ENGINE_VERSION, EngineError, VerificationEngine
from repro.engine.subproblem import Subproblem, SubproblemResult
from repro.engine.batch import BatchItem, BatchResult, batch_cache_options, run_batch

__all__ = [
    "BatchItem",
    "BatchResult",
    "DEFAULT_RETRY",
    "ENGINE_VERSION",
    "EngineError",
    "JobCancelledError",
    "JobDeadlineExceeded",
    "NO_RETRY",
    "ResultCache",
    "RetryPolicy",
    "Subproblem",
    "SubproblemResult",
    "VerificationEngine",
    "batch_cache_options",
    "canonical_protocol_dict",
    "protocol_content_hash",
    "run_batch",
]
