"""Tests for the content-addressed protocol hash and the on-disk result cache."""

from __future__ import annotations

import json

from repro.engine import ENGINE_VERSION, ResultCache, protocol_content_hash
from repro.engine.cache import cache_statistics
from repro.protocols.library import (
    broadcast_protocol,
    coin_flip_protocol,
    exclusive_majority_protocol,
    flock_of_birds_protocol,
    flock_of_birds_threshold_n_protocol,
    majority_protocol,
    oscillating_majority_protocol,
    remainder_protocol,
    threshold_table_protocol,
)
from repro.protocols.protocol import PopulationProtocol


def _reordered_clone(protocol: PopulationProtocol, reverse: bool = True) -> PopulationProtocol:
    """The same protocol with states/transitions/alphabet declared in another order."""
    order = reversed if reverse else list
    return PopulationProtocol(
        states=order(sorted(protocol.states, key=repr)),
        transitions=order(list(protocol.transitions)),
        input_alphabet=order(list(protocol.input_alphabet)),
        input_map=dict(reversed(list(protocol.input_map.items()))),
        output_map=dict(reversed(list(protocol.output_map.items()))),
        name=protocol.name + " (permuted)",
        partition_hint=protocol.partition_hint,
        metadata=protocol.metadata,
    )


class TestProtocolContentHash:
    def test_permuted_declaration_order_hashes_identically(self):
        for protocol in (
            majority_protocol(),
            broadcast_protocol(),
            flock_of_birds_protocol(4),
            remainder_protocol([1], 3, 1),
            threshold_table_protocol(2),
        ):
            assert protocol_content_hash(protocol) == protocol_content_hash(
                _reordered_clone(protocol)
            ), f"hash of {protocol.name} is declaration-order dependent"

    def test_name_and_metadata_do_not_affect_the_hash(self):
        protocol = majority_protocol()
        renamed = PopulationProtocol(
            states=protocol.states,
            transitions=protocol.transitions,
            input_alphabet=protocol.input_alphabet,
            input_map=protocol.input_map,
            output_map=protocol.output_map,
            name="something else",
            partition_hint=protocol.partition_hint,
            metadata={"note": "different metadata"},
        )
        assert protocol_content_hash(protocol) == protocol_content_hash(renamed)

    def test_output_flip_changes_the_hash(self, broadcast_protocol):
        flipped = broadcast_protocol.with_negated_output()
        assert protocol_content_hash(broadcast_protocol) != protocol_content_hash(flipped)

    def test_distinct_library_families_do_not_collide(self):
        protocols = [
            majority_protocol(),
            broadcast_protocol(),
            flock_of_birds_protocol(4),
            flock_of_birds_protocol(5),
            flock_of_birds_threshold_n_protocol(5),
            remainder_protocol([1], 3, 1),
            remainder_protocol([1], 5, 3),
            threshold_table_protocol(2),
            coin_flip_protocol(),
            oscillating_majority_protocol(),
            exclusive_majority_protocol(),
        ]
        hashes = [protocol_content_hash(protocol) for protocol in protocols]
        assert len(set(hashes)) == len(protocols)

    def test_hash_is_stable_across_calls(self):
        protocol = flock_of_birds_protocol(4)
        assert protocol_content_hash(protocol) == protocol_content_hash(protocol)
        assert len(protocol_content_hash(protocol)) == 64


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = ResultCache.entry_key("abc", ENGINE_VERSION, {"check": "ws3"})
        before = cache_statistics()
        assert cache.get(key) is None
        cache.put(key, {"is_ws3": True})
        assert cache.get(key) == {"is_ws3": True}
        after = cache_statistics()
        delta = {event: after[event] - before[event] for event in after}
        assert delta == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 0}

    def test_engine_version_partitions_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        options = {"check": "ws3"}
        cache.put(ResultCache.entry_key("abc", "1", options), {"is_ws3": True})
        assert cache.get(ResultCache.entry_key("abc", "2", options)) is None

    def test_options_partition_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(ResultCache.entry_key("abc", "1", {"strategy": "auto"}), {"is_ws3": True})
        assert cache.get(ResultCache.entry_key("abc", "1", {"strategy": "smt"})) is None

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = ResultCache.entry_key("abc", "1", {})
        (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_torn_entry_is_quarantined_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = ResultCache.entry_key("abc", "1", {})
        (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
        corrupt = cache_statistics()["corrupt"]
        assert cache.get(key) is None
        assert cache_statistics()["corrupt"] == corrupt + 1
        # The corrupt entry is moved aside (kept for postmortems), so the
        # slot is writable again and the next get is a clean miss.
        assert not (tmp_path / f"{key}.json").exists()
        assert (tmp_path / f"{key}.corrupt").exists()
        cache.put(key, {"is_ws3": True})
        assert cache.get(key) == {"is_ws3": True}

    def test_entries_are_valid_json_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = ResultCache.entry_key("abc", "1", {})
        cache.put(key, {"is_ws3": False, "nested": {"refinements": 3}})
        stored = json.loads((tmp_path / f"{key}.json").read_text(encoding="utf-8"))
        assert stored["nested"]["refinements"] == 3
