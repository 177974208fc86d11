"""Content-addressed protocol hashing and the on-disk result cache.

``protocol_content_hash`` computes a SHA-256 digest of a *canonical* form of
a protocol: states, transitions, the input alphabet and both mappings are
sorted by a stable key before hashing, so two protocols that differ only in
the order their states or transitions were declared hash identically, while
any semantic difference (an extra transition, a flipped output bit, a
different input mapping) changes the digest.  Presentation-only attributes —
the name and free-form metadata — are excluded.

``ResultCache`` stores verification verdicts on disk, one JSON file per
entry, keyed by the protocol hash, the engine version and a digest of the
verification options.  Repeated sweeps over the same protocol set (repeated
benchmarks, parameter scans, ``repro-verify batch`` runs) are then served
from the cache instead of re-verifying.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path

from repro.io.serialization import _encode_state, protocol_to_dict
from repro.obs.metrics import REGISTRY
from repro.protocols.protocol import PopulationProtocol

logger = logging.getLogger(__name__)

#: This process's result-cache traffic: the ``cache`` block of the
#: ``stats`` op (:func:`cache_statistics`) and ``GET /metricsz``.
_EVENTS = REGISTRY.counter(
    "repro_result_cache_events_total",
    "Result-cache traffic: hits, misses, stores and quarantined corruptions",
)


def cache_statistics() -> dict:
    """This process's result-cache traffic, by event."""
    return _EVENTS.counts(("hits", "misses", "stores", "corrupt"))


def canonical_protocol_dict(protocol: PopulationProtocol) -> dict:
    """A canonical, order-independent dictionary form of a protocol.

    Built on :func:`repro.io.serialization.protocol_to_dict` (which already
    sorts states and the output map) with the remaining order-dependent
    pieces — transitions, the input alphabet, the input map and the layers
    of a partition hint — sorted by the ``repr`` of their encoded form, and
    the presentation-only ``name`` dropped.
    """
    data = protocol_to_dict(protocol)
    data.pop("name", None)
    for transition in data["transitions"]:
        transition.pop("name", None)
        transition["pre"] = sorted(transition["pre"], key=repr)
        transition["post"] = sorted(transition["post"], key=repr)
    data["transitions"] = sorted(data["transitions"], key=repr)
    data["input_alphabet"] = sorted(data["input_alphabet"], key=repr)
    data["input_map"] = sorted(data["input_map"], key=repr)
    if "partition_hint" in data:
        data["partition_hint"] = [
            sorted(
                (
                    {"pre": sorted(t["pre"], key=repr), "post": sorted(t["post"], key=repr)}
                    for t in layer
                ),
                key=repr,
            )
            for layer in data["partition_hint"]
        ]
    return data


def protocol_content_hash(protocol: PopulationProtocol) -> str:
    """SHA-256 digest of the canonical protocol form (hex, 64 chars)."""
    canonical = json.dumps(canonical_protocol_dict(protocol), sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def options_digest(options: dict) -> str:
    """Short digest of the verification options that affect cached verdicts."""
    canonical = json.dumps(
        {key: _encode_state(value) for key, value in sorted(options.items())},
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class ResultCache:
    """A content-addressed verification-result cache on disk.

    Entries are JSON files named ``<protocol-hash>-<engine-version>-
    <options-digest>.json``; writes go through a temporary file and an
    atomic rename, so concurrent writers (parallel batch runs sharing a
    cache directory) cannot leave a torn entry behind.  An entry that is
    present but undecodable — external corruption: a crashed filesystem, a
    truncating copy, an injected fault — is *quarantined* (renamed to
    ``*.corrupt``), logged, counted as a ``corrupt`` event and
    treated as a miss, so one bad file degrades a single lookup instead of
    wedging every future run against the same key.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    @staticmethod
    def entry_key(protocol_hash: str, engine_version: str, options: dict) -> str:
        return f"{protocol_hash}-{engine_version}-{options_digest(options)}"

    def get(self, key: str) -> dict | None:
        """Look up an entry; counts a hit, a miss, or a quarantined corruption."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            _EVENTS.inc(event="misses")
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            self._quarantine(path, error)
            _EVENTS.inc(event="misses")
            return None
        _EVENTS.inc(event="hits")
        return payload

    def _quarantine(self, path: Path, error: Exception) -> None:
        """Move an undecodable entry aside so it is re-verified, not re-hit."""
        _EVENTS.inc(event="corrupt")
        logger.warning(
            "quarantining corrupt result-cache entry %s (%s: %s)",
            path.name,
            type(error).__name__,
            error,
        )
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass  # unreadable *and* unmovable: the miss already re-verifies

    def put(self, key: str, value: dict) -> None:
        """Store an entry atomically."""
        path = self._path(key)
        handle = tempfile.NamedTemporaryFile(
            mode="w", dir=self.directory, suffix=".tmp", delete=False, encoding="utf-8"
        )
        try:
            with handle:
                json.dump(value, handle, indent=2, sort_keys=True)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        _EVENTS.inc(event="stores")
        self._fault_corrupt(path)

    def _fault_corrupt(self, path: Path) -> None:
        """Chaos hook: truncate the entry just written when a plan says so."""
        from repro.testing import faults

        fault = faults.fire("cache.corrupt", key=path.stem)
        if fault is not None and fault.action == "corrupt":
            path.write_text('{"torn', encoding="utf-8")

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
