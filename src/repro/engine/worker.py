"""Worker-process entry point: solve one subproblem envelope.

``solve_subproblem`` is the single function shipped to the process pool.
It dispatches on the subproblem ``kind``; the ``check-protocol`` handler
runs a whole serial :class:`~repro.api.verifier.Verifier` check on the
worker's own thread, imported lazily (the API layer imports the engine,
not the other way round at module load time).

Decoded protocols are cached per process keyed by their content hash, so a
worker that sees the same protocol again (a long-lived service pool) pays
the deserialisation cost once.
"""

from __future__ import annotations

import contextlib
import os
import time

from repro.obs import trace

from repro.engine.subproblem import Subproblem, SubproblemResult
from repro.io.serialization import protocol_from_dict

#: Per-process cache of decoded protocols, keyed by content hash.  Bounded:
#: a long-lived pool serving thousands of distinct protocols must not grow
#: worker RSS forever.
_PROTOCOLS: dict = {}
_MAX_PROTOCOLS = 64


def _protocol_for(subproblem: Subproblem):
    protocol = _PROTOCOLS.get(subproblem.protocol_key)
    if protocol is None:
        protocol = protocol_from_dict(subproblem.protocol_data)
        if len(_PROTOCOLS) >= _MAX_PROTOCOLS:
            _PROTOCOLS.pop(next(iter(_PROTOCOLS)))
        _PROTOCOLS[subproblem.protocol_key] = protocol
    return protocol


def solve_subproblem(subproblem: Subproblem) -> SubproblemResult:
    """Solve one subproblem and return a picklable result envelope."""
    from repro.testing import faults

    # The chaos suite's main injection site: a plan shipped through the
    # inherited environment (or installed in-process for the inline path)
    # can kill this worker, delay the subproblem past its deadline or raise
    # — before any real work starts, so a killed attempt loses nothing.
    faults.apply_fault(
        faults.fire("worker.solve", kind=subproblem.kind, index=subproblem.index),
        site="worker.solve",
    )
    start = time.perf_counter()
    if subproblem.kind == "poison":
        _poison(subproblem)
    handler = _HANDLERS[subproblem.kind]
    # Tracing: inline runs (no ``trace`` flag) nest directly under the
    # coordinator's open span; the envelope's flag asks for a *fresh* local
    # sink whose spans ride home in ``result.spans``.  The flag must win
    # over ``tracing_active()``: a forked pool worker inherits a copy of
    # the coordinator's sink contextvar, and spans recorded into that copy
    # would be silently lost with the process.
    sink = None
    if subproblem.params.get("trace"):
        sink = trace.TraceSink()
        stack = trace.collect(sink)
    else:
        stack = contextlib.nullcontext()
    with stack:
        with trace.span(
            "subproblem", kind=subproblem.kind, index=subproblem.index
        ) as opened:
            result = handler(subproblem)
            if opened is not None:
                opened.attrs["verdict"] = result.verdict
    if sink is not None:
        result.spans = sink.spans()
    result.statistics.setdefault("time", time.perf_counter() - start)
    result.statistics.setdefault("worker_pid", os.getpid())
    return result


# ----------------------------------------------------------------------
# Kind handlers
# ----------------------------------------------------------------------


def _solve_check_protocol(subproblem: Subproblem) -> SubproblemResult:
    """Run the full property pipeline for one protocol, serially, in-worker.

    The result payload is the lossless report dictionary — exactly what the
    coordinator's serial path would produce and what the result cache
    stores — so across-protocol fan-out loses no artifacts.  The check runs
    on this thread, so in a traced envelope its ``job`` span nests directly
    under this worker's ``subproblem`` span and rides home in the result
    envelope.
    """
    from repro.api.options import VerificationOptions
    from repro.api.verifier import Verifier

    protocol = _protocol_for(subproblem)
    params = subproblem.params
    options = VerificationOptions.from_dict(params.get("options", {}))
    options = options.replace(jobs=1, cache_dir=None)
    with Verifier(options) as verifier:
        report = verifier.check(
            protocol,
            properties=params.get("properties", ("ws3",)),
            predicate=params.get("predicate"),
        )
    return SubproblemResult(
        kind=subproblem.kind,
        index=subproblem.index,
        verdict="holds" if report.ok else "fails",
        data={"report": report.to_dict()},
        statistics={"time": report.statistics.get("time", 0.0)},
    )


def _poison(subproblem: Subproblem) -> None:
    """Deliberately damage this worker (used by the fault-injection tests)."""
    mode = subproblem.params.get("mode", "exit")
    if mode == "exit":
        os._exit(17)
    raise RuntimeError("poisoned subproblem")


_HANDLERS = {"check-protocol": _solve_check_protocol}
