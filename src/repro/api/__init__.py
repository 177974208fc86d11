"""Unified verification API: one session object, pluggable properties.

The :class:`Verifier` is the one entry point for every property::

    from repro.api import Verifier

    report = Verifier().check(protocol, properties=["ws3"])
    print(report.summary())
    payload = report.to_json()          # lossless: certificates,
    clone = VerificationReport.from_json(payload)  # counterexamples, refinements
    assert clone == report

Properties are looked up in a registry
(:func:`~repro.api.properties.available_properties`), so downstream code can
plug in new :class:`~repro.api.properties.PropertyChecker` implementations
with :func:`~repro.api.properties.register_property`.
"""

from repro.api.options import VerificationOptions
from repro.api.properties import (
    PropertyChecker,
    available_properties,
    property_checker,
    register_property,
    unregister_property,
)
from repro.api.report import (
    REPORT_SCHEMA,
    PropertyResult,
    Verdict,
    VerificationReport,
)
from repro.api.verifier import DEFAULT_PROPERTIES, Verifier

__all__ = [
    "DEFAULT_PROPERTIES",
    "PropertyChecker",
    "PropertyResult",
    "REPORT_SCHEMA",
    "Verdict",
    "VerificationOptions",
    "VerificationReport",
    "Verifier",
    "available_properties",
    "property_checker",
    "register_property",
    "unregister_property",
]
