"""Pluggable property checkers and the property registry.

Each verifiable property — ``"layered_termination"``, ``"strong_consensus"``,
``"ws3"``, ``"correctness"``, ``"explicit"`` — is a :class:`PropertyChecker`
registered by name.  ``Verifier.check(protocol, properties=[...])`` resolves
names through the registry, so new properties (new paper sections, new
backends) plug in with :func:`register_property` instead of growing another
top-level entry point.

The built-in checkers wrap the decision procedures of
:mod:`repro.verification` (the ``*_impl`` functions) and convert their
results into the unified :class:`~repro.api.report.PropertyResult` form.
"""

from __future__ import annotations

from repro.api.options import VerificationOptions
from repro.api.report import PropertyResult, Verdict
from repro.io.serialization import encode_multiset


class PropertyChecker:
    """Interface of a pluggable property.

    Subclasses set :attr:`name` and implement :meth:`check`.  ``predicate``
    is only meaningful for properties that compare the protocol against a
    predicate and defaults to the protocol's documented
    ``metadata["predicate"]``; ``context`` is the session's shared
    :class:`~repro.constraints.context.AnalysisContext` for the protocol.
    A check always runs serially in the calling process.
    """

    name: str = "?"

    def check(
        self,
        protocol,
        options: VerificationOptions,
        *,
        predicate=None,
        context=None,
    ) -> PropertyResult:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Conversions from the legacy result dataclasses
# ----------------------------------------------------------------------


def layered_termination_result(result) -> PropertyResult:
    """Convert a :class:`LayeredTerminationResult` to a :class:`PropertyResult`."""
    return PropertyResult(
        property="layered_termination",
        verdict=Verdict.HOLDS if result.holds else Verdict.FAILS,
        reason=result.reason,
        certificate=result.certificate,
        statistics=result.statistics,
    )


def strong_consensus_result(result) -> PropertyResult:
    """Convert a :class:`StrongConsensusResult` to a :class:`PropertyResult`."""
    return PropertyResult(
        property="strong_consensus",
        verdict=Verdict.HOLDS if result.holds else Verdict.FAILS,
        counterexample=result.counterexample,
        refinements=list(result.refinements),
        statistics=result.statistics,
    )


def correctness_result(result, predicate) -> PropertyResult:
    """Convert a :class:`CorrectnessResult` to a :class:`PropertyResult`."""
    return PropertyResult(
        property="correctness",
        verdict=Verdict.HOLDS if result.holds else Verdict.FAILS,
        counterexample=result.counterexample,
        refinements=list(result.refinements),
        details={"predicate": predicate.describe()},
        statistics=result.statistics,
    )


def ws3_result(result) -> PropertyResult:
    """Convert a :class:`WS3Result` to a composite :class:`PropertyResult`."""
    parts = [layered_termination_result(result.layered_termination)]
    if result.strong_consensus is None:
        parts.append(
            PropertyResult(
                property="strong_consensus",
                verdict=Verdict.SKIPPED,
                reason="skipped: layered termination was not established",
            )
        )
    else:
        parts.append(strong_consensus_result(result.strong_consensus))
    return PropertyResult(
        property="ws3",
        verdict=Verdict.HOLDS if result.is_ws3 else Verdict.FAILS,
        parts=parts,
        statistics=result.statistics,
    )


# ----------------------------------------------------------------------
# Built-in checkers
# ----------------------------------------------------------------------


class LayeredTerminationChecker(PropertyChecker):
    name = "layered_termination"

    def check(self, protocol, options, *, predicate=None, context=None) -> PropertyResult:
        from repro.verification.layered_termination import check_layered_termination_impl

        result = check_layered_termination_impl(
            protocol,
            strategy=options.strategy,
            max_layers=options.max_layers,
            materialize_rankings=options.materialize_rankings,
            theory=options.theory,
            backend=options.backend,
            context=context,
        )
        return layered_termination_result(result)


class StrongConsensusChecker(PropertyChecker):
    name = "strong_consensus"

    def check(self, protocol, options, *, predicate=None, context=None) -> PropertyResult:
        from repro.verification.strong_consensus import check_strong_consensus_impl

        result = check_strong_consensus_impl(
            protocol,
            theory=options.theory,
            strategy=options.consensus_strategy,
            max_refinements=options.max_refinements,
            max_pattern_pairs=options.max_pattern_pairs,
            backend=options.backend,
            context=context,
        )
        return strong_consensus_result(result)


class WS3Checker(PropertyChecker):
    name = "ws3"

    def check(self, protocol, options, *, predicate=None, context=None) -> PropertyResult:
        from repro.verification.ws3 import verify_ws3_impl

        result = verify_ws3_impl(
            protocol,
            strategy=options.strategy,
            theory=options.theory,
            max_layers=options.max_layers,
            check_consensus_first=options.check_consensus_first,
            materialize_rankings=options.materialize_rankings,
            consensus_strategy=options.consensus_strategy,
            max_refinements=options.max_refinements,
            max_pattern_pairs=options.max_pattern_pairs,
            backend=options.backend,
            context=context,
        )
        return ws3_result(result)


class CorrectnessChecker(PropertyChecker):
    name = "correctness"

    def check(self, protocol, options, *, predicate=None, context=None) -> PropertyResult:
        from repro.verification.correctness import check_correctness_impl

        if predicate is None:
            predicate = protocol.metadata.get("predicate")
        if predicate is None:
            return PropertyResult(
                property="correctness",
                verdict=Verdict.SKIPPED,
                reason="no predicate supplied and none documented in the protocol metadata",
            )
        result = check_correctness_impl(
            protocol,
            predicate,
            theory=options.theory,
            max_refinements=options.max_refinements,
            backend=options.backend,
            context=context,
        )
        return correctness_result(result, predicate)


class ExplicitChecker(PropertyChecker):
    """The explicit-state baseline: model-check every input up to a bound."""

    name = "explicit"

    def check(self, protocol, options, *, predicate=None, context=None) -> PropertyResult:
        from repro.verification.explicit import verify_inputs_up_to

        sweep = verify_inputs_up_to(
            protocol,
            options.explicit_max_size,
            max_configurations=options.explicit_max_configurations,
        )
        failures = [result for result in sweep.results if not result.well_specified]
        reason = ""
        if failures:
            first = failures[0]
            reason = f"input {first.input_population.pretty()}: {first.reason}"
        return PropertyResult(
            property="explicit",
            verdict=Verdict.HOLDS if sweep.all_well_specified else Verdict.FAILS,
            reason=reason,
            details={
                "max_size": options.explicit_max_size,
                "inputs": [
                    {
                        "input": encode_multiset(result.input_population),
                        "well_specified": result.well_specified,
                        "output": result.output,
                        "num_configurations": result.num_configurations,
                        "reason": result.reason,
                    }
                    for result in sweep.results
                ],
            },
            statistics={
                "inputs": len(sweep.results),
                "total_configurations": sweep.total_configurations,
                "time": sweep.total_time,
            },
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, PropertyChecker] = {}


def register_property(checker: PropertyChecker, replace: bool = False) -> PropertyChecker:
    """Register a checker under its :attr:`~PropertyChecker.name`.

    Registering a name twice is an error unless ``replace=True`` — a guard
    against two plugins silently shadowing each other.  Returns the checker
    so it can be used as a decorator-style one-liner on instances.

    Registration is per-process: worker processes of the parallel engine
    import a fresh registry, so ``check_many`` runs batches that request a
    plugin property on the coordinator (protocols are still checked, just
    without across-protocol fan-out).
    """
    name = checker.name
    if not name or name == "?":
        raise ValueError(f"property checker {checker!r} must define a name")
    if not replace and name in _REGISTRY:
        raise ValueError(f"property {name!r} is already registered (pass replace=True)")
    _REGISTRY[name] = checker
    return checker


def unregister_property(name: str) -> None:
    """Remove a registered property (mainly for tests and plugin teardown)."""
    _REGISTRY.pop(name, None)


def property_checker(name: str) -> PropertyChecker:
    """Look up a checker by name; unknown names raise ``ValueError``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown property {name!r}; available: {', '.join(available_properties())}"
        ) from None


def available_properties() -> tuple[str, ...]:
    """Sorted names of all registered properties."""
    return tuple(sorted(_REGISTRY))


for _checker in (
    LayeredTerminationChecker(),
    StrongConsensusChecker(),
    WS3Checker(),
    CorrectnessChecker(),
    ExplicitChecker(),
):
    register_property(_checker)
del _checker

#: Names registered at import time in every process.  Worker processes build
#: a fresh registry, so only these names are resolvable worker-side; the
#: batch layer keeps protocols with plugin properties on the coordinator's
#: serial path instead of fanning them out.
BUILTIN_PROPERTIES = frozenset(_REGISTRY)
