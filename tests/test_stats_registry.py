"""One counter store: the metrics registry.

Process-level counters live only in :data:`repro.obs.metrics.REGISTRY`;
the ``stats`` op and ``GET /statsz`` are views of it, so they can never
disagree with ``GET /metricsz``.
"""

from __future__ import annotations

from repro.constraints import backends
from repro.engine import ResultCache, VerificationEngine
from repro.obs.metrics import REGISTRY
from repro.service import JobJournal, NetworkServer, ServerLimits, VerificationClient, VerificationService
from repro.service.replicas import ReplicaSupervisor
from repro.service.router import JobRouter


def test_stats_blocks_are_the_registry_series(no_leaks, tmp_path):
    engine = VerificationEngine(jobs=1)
    service = VerificationService(engine=engine, cache_dir=str(tmp_path / "cache"))
    server = NetworkServer(service, limits=ServerLimits(idle_timeout=30, drain_timeout=5))
    server.start()
    try:
        with VerificationClient(*server.address, timeout=30.0, seed=0) as client:
            job = client.submit("majority")
            assert client.wait(job, timeout=60) == "done"
            stats = client.call({"op": "stats"})["stats"]
            # Read before the next frame: nothing counts in between.
            blocks = {
                "server": "repro_net_events_total",
                "engine": "repro_engine_events_total",
                "cache": "repro_result_cache_events_total",
            }
            registry = {
                block: {key: REGISTRY.counter(metric).value(event=key) for key in stats[block]}
                for block, metric in blocks.items()
            }
    finally:
        server.drain(timeout=5)
        engine.shutdown()
    for key in ("open_connections", "accepting"):  # this server's state, not counters
        del stats["server"][key], registry["server"][key]
    assert stats["cache"]["misses"] >= 1 and stats["server"]["frames"] >= 3
    for block in blocks:
        assert stats[block] == registry[block], block


def test_process_counters_live_only_in_the_registry(tmp_path):
    service = VerificationService()
    supervisor = ReplicaSupervisor(1, tmp_path / "fleet")
    engine = VerificationEngine(jobs=1)
    instances = [
        NetworkServer(service),
        JobRouter(supervisor),
        engine,
        ResultCache(tmp_path / "cache"),
        service,
        JobJournal(tmp_path / "journal"),
        supervisor,
    ]
    try:
        for instance in instances:
            assert not hasattr(instance, "statistics"), type(instance).__name__
    finally:
        service.close()
        engine.shutdown()
    assert not hasattr(backends, "_HEALTH_STATS")
