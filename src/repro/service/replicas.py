"""Replica fleet supervision for the sharded routing tier.

A :class:`ReplicaSupervisor` owns N ``repro-verify serve --tcp`` daemon
subprocesses (the *shards* of :mod:`repro.service.router`): it spawns them
with per-shard journal and cache directories, probes their HTTP health
endpoints, restarts dead or unresponsive replicas with exponential backoff,
and propagates the router's graceful drain (SIGTERM) to the whole fleet.

Each replica binds port 0, so its address changes across restarts; every
(re)spawn bumps the replica's ``generation`` and callers holding stale
connections rebuild from :meth:`ReplicaSupervisor.address`.  Because every
shard runs on a durable journal, a SIGKILLed replica loses nothing that was
acknowledged — the supervisor restarts it on the same journal directory and
journal recovery re-enqueues its unfinished jobs.
"""

from __future__ import annotations

import http.client
import json
import logging
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.obs.metrics import REGISTRY

logger = logging.getLogger(__name__)

#: This process's supervision events: the ``supervisor`` block of the
#: router's ``stats`` op (:func:`supervisor_statistics`) and ``GET /metricsz``.
_EVENTS = REGISTRY.counter(
    "repro_replica_events_total",
    "Replica supervision events: spawns, restarts, probe kills",
)


def supervisor_statistics() -> dict:
    """This process's replica supervision events, by event."""
    return _EVENTS.counts(("spawns", "restarts", "probe_kills"))

#: Backoff before the first restart of a dead replica, doubling per failure.
RESTART_BACKOFF_SECONDS = 0.2
#: Backoff ceiling between restarts of a crash-looping replica.
MAX_RESTART_BACKOFF_SECONDS = 5.0
#: A replica alive this long gets its restart backoff reset.
HEALTHY_RESET_SECONDS = 30.0


class ReplicaError(RuntimeError):
    """A replica could not be spawned or never announced its port."""


def _reap(process: subprocess.Popen | None) -> None:
    """Release a finished replica's pipe fd (the process is already waited)."""
    if process is not None and process.stdout is not None:
        try:
            process.stdout.close()
        except OSError:  # pragma: no cover - close must never raise
            pass


class Replica:
    """One supervised ``serve --tcp`` subprocess (a shard of the fleet).

    All mutable fields (process, address, generation) are guarded by the
    supervisor's lock; readers go through the supervisor's accessors.
    """

    def __init__(self, shard_id: str, index: int, state_dir: Path):
        self.shard_id = shard_id
        self.index = index
        self.state_dir = state_dir
        self.journal_dir = state_dir / "journal"
        self.cache_dir = state_dir / "cache"
        self.log_path = state_dir / "serve.log"
        self.process: subprocess.Popen | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.generation = 0
        self.restarts = 0
        self.spawned_at = 0.0
        self.restart_attempts = 0
        self.restart_at = 0.0  # monotonic time before which no respawn happens
        self.probe_failures = 0
        self.last_ready: dict | None = None  # cached /readyz payload

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None


class ReplicaSupervisor:
    """Spawn, probe, restart and drain a fleet of serve daemons.

    Parameters
    ----------
    count:
        Number of replicas (shard ids ``s0`` … ``s{count-1}``).
    state_dir:
        Fleet state root; shard *i* keeps its journal, cache and log under
        ``state_dir/s{i}/``.  Restarting the supervisor on the same
        directory resumes every shard's journalled backlog.
    workers:
        Dispatcher threads per replica (``serve --workers``).
    serve_args:
        Extra ``repro-verify serve`` arguments appended to every replica's
        command line (e.g. ``("--compact-threshold", "1048576")``).
    """

    def __init__(
        self,
        count: int,
        state_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        workers: int = 1,
        serve_args: tuple[str, ...] = (),
        spawn_timeout: float = 30.0,
        probe_interval: float = 0.5,
        probe_failures: int = 6,
        python: str | None = None,
    ):
        if count < 1:
            raise ValueError("a fleet needs at least one replica")
        self.host = host
        self.workers = int(workers)
        self.serve_args = tuple(serve_args)
        self.spawn_timeout = spawn_timeout
        self.probe_interval = probe_interval
        self.probe_failure_limit = probe_failures
        self.python = python or sys.executable
        self.state_dir = Path(state_dir)
        self._lock = threading.Lock()
        self._replicas: dict[str, Replica] = {}
        for index in range(count):
            shard_id = f"s{index}"
            self._replicas[shard_id] = Replica(shard_id, index, self.state_dir / shard_id)
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "ReplicaSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain()

    @property
    def shard_ids(self) -> list[str]:
        """Stable, ordered shard ids (the rendezvous-hash key space)."""
        return sorted(self._replicas, key=lambda sid: self._replicas[sid].index)

    def start(self) -> None:
        """Spawn every replica and start the monitor thread."""
        if self._monitor is not None:
            return
        for replica in self._replicas.values():
            self._spawn(replica)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-replica-monitor", daemon=True
        )
        self._monitor.start()

    def address(self, shard_id: str) -> tuple[str, int, int]:
        """The shard's last-announced ``(host, port, generation)``.

        The address may be stale for a beat while a dead replica restarts;
        callers treat a refused connection as "re-read the address and
        retry" (the generation tells them whether it actually changed).
        """
        replica = self._replicas[shard_id]
        with self._lock:
            if replica.port is None:
                raise ReplicaError(f"shard {shard_id!r} has never come up")
            return replica.host, replica.port, replica.generation

    def fleet_status(self) -> dict:
        """Per-shard probe state (for aggregated healthz/readyz/statsz)."""
        status: dict = {}
        with self._lock:
            for shard_id, replica in self._replicas.items():
                process = replica.process
                alive = process is not None and process.poll() is None
                status[shard_id] = {
                    "alive": alive,
                    "pid": replica.pid,
                    "port": replica.port,
                    "generation": replica.generation,
                    "restarts": replica.restarts,
                    "ready": bool(replica.last_ready and replica.last_ready.get("ok")),
                    "pending_jobs": (replica.last_ready or {}).get("pending_jobs", 0),
                }
        return status

    def fleet_pending(self) -> int:
        """Summed pending jobs from the cached readyz probes (best effort)."""
        with self._lock:
            return sum(
                int((replica.last_ready or {}).get("pending_jobs") or 0)
                for replica in self._replicas.values()
            )

    def kill(self, shard_id: str) -> int | None:
        """SIGKILL one replica (chaos injection); the monitor restarts it."""
        replica = self._replicas[shard_id]
        with self._lock:
            process = replica.process
        if process is None or process.poll() is not None:
            return None
        pid = process.pid
        process.kill()
        process.wait(timeout=30)
        _reap(process)
        return pid

    def drain(self, timeout: float = 30.0) -> bool:
        """SIGTERM the whole fleet and wait for graceful exits.

        The monitor stops first so nothing is restarted mid-drain.  Each
        replica runs its own journal-preserving drain on SIGTERM; whatever
        does not exit inside the window is SIGKILLed (still lossless — the
        journal records it).  Returns True iff every replica exited 0.
        """
        self._stopping.set()
        if self._monitor is not None:
            # The monitor can be mid-respawn (blocked reading a fresh
            # replica's announcement); wait it out so nothing spawns after
            # the fleet snapshot below.
            self._monitor.join(timeout=self.spawn_timeout + 5.0)
            self._monitor = None
        deadline = time.monotonic() + timeout
        with self._lock:
            fleet = [replica.process for replica in self._replicas.values()]
        for process in fleet:
            if process is not None and process.poll() is None:
                process.send_signal(signal.SIGTERM)
        graceful = True
        for process in fleet:
            if process is None:
                continue
            budget = max(0.1, deadline - time.monotonic())
            try:
                code = process.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
                code = -1
            _reap(process)
            graceful = graceful and code == 0
        return graceful

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    def _command(self, replica: Replica) -> list[str]:
        return [
            self.python,
            "-m",
            "repro.cli",
            "serve",
            "--tcp",
            f"{self.host}:0",
            "--journal-dir",
            str(replica.journal_dir),
            "--cache-dir",
            str(replica.cache_dir),
            "--workers",
            str(self.workers),
            *self.serve_args,
        ]

    def _spawn(self, replica: Replica) -> None:
        """Start (or restart) one replica and wait for its listening line."""
        replica.state_dir.mkdir(parents=True, exist_ok=True)
        log = open(replica.log_path, "ab")
        try:
            process = subprocess.Popen(
                self._command(replica),
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        finally:
            # Popen duplicated the fd (or failed); either way ours can go.
            log.close()
        announced = self._read_announcement(replica, process)
        with self._lock:
            replica.process = process
            replica.host = announced["host"]
            replica.port = announced["port"]
            replica.generation += 1
            replica.spawned_at = time.monotonic()
            replica.probe_failures = 0
            replica.last_ready = None
        _EVENTS.inc(event="spawns")
        logger.info(
            "shard %s serving on %s:%d (pid %d, generation %d)",
            replica.shard_id,
            announced["host"],
            announced["port"],
            process.pid,
            replica.generation,
        )

    def _read_announcement(self, replica: Replica, process: subprocess.Popen) -> dict:
        """Read the daemon's ``{"type": "listening"}`` line, bounded in time.

        ``readline`` on the pipe has no timeout, so it runs on a helper
        thread joined with the spawn budget; a replica that never announces
        is killed and reported.
        """
        result: dict = {}

        def read() -> None:
            line = process.stdout.readline()
            if line:
                try:
                    result.update(json.loads(line))
                except ValueError:
                    result["error"] = f"unparseable announcement: {line!r}"

        reader = threading.Thread(target=read, name=f"repro-spawn-{replica.shard_id}", daemon=True)
        reader.start()
        reader.join(timeout=self.spawn_timeout)
        if result.get("type") != "listening":
            process.kill()
            process.wait(timeout=30)
            raise ReplicaError(
                f"shard {replica.shard_id!r} did not announce a port within "
                f"{self.spawn_timeout}s (see {replica.log_path}): {result.get('error', result)}"
            )
        return result

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(timeout=self.probe_interval):
            for replica in self._replicas.values():
                if self._stopping.is_set():
                    return
                try:
                    self._check(replica)
                except Exception:  # pragma: no cover - supervision must survive
                    logger.exception("monitoring shard %s failed", replica.shard_id)

    def _check(self, replica: Replica) -> None:
        with self._lock:
            process = replica.process
        if process is None or process.poll() is not None:
            _reap(process)
            self._restart(replica, reason=f"exited {process.poll() if process else 'unspawned'}")
            return
        payload = self._probe(replica)
        with self._lock:
            if payload is None:
                replica.probe_failures += 1
                unresponsive = replica.probe_failures >= self.probe_failure_limit
            else:
                replica.probe_failures = 0
                replica.last_ready = payload
                unresponsive = False
            if time.monotonic() - replica.spawned_at > HEALTHY_RESET_SECONDS:
                replica.restart_attempts = 0
        if unresponsive:
            logger.warning(
                "shard %s failed %d consecutive probes; killing it",
                replica.shard_id,
                self.probe_failure_limit,
            )
            _EVENTS.inc(event="probe_kills")
            process.kill()
            process.wait(timeout=30)
            _reap(process)
            self._restart(replica, reason="unresponsive")

    def _probe(self, replica: Replica) -> dict | None:
        """One ``GET /readyz`` probe; any HTTP answer means the shard lives.

        A 503 (the shard is draining) still parses — readiness lives in the
        payload's ``ok`` flag — only transport failures count against the
        replica.
        """
        with self._lock:
            host, port = replica.host, replica.port
        if port is None:
            return None
        connection = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            connection.request("GET", "/readyz")
            response = connection.getresponse()
            body = response.read()
            return json.loads(body)
        except (OSError, ValueError, http.client.HTTPException):
            return None
        finally:
            connection.close()

    def _restart(self, replica: Replica, reason: str) -> None:
        """Respawn a dead replica after its (exponential) backoff.

        Called once per monitor tick while the replica is down: the first
        tick schedules the respawn ``backoff`` seconds out, later ticks wait
        for the deadline, and the tick that reaches it spawns.
        """
        now = time.monotonic()
        if replica.restart_at == 0.0:
            backoff = min(
                MAX_RESTART_BACKOFF_SECONDS,
                RESTART_BACKOFF_SECONDS * 2**replica.restart_attempts,
            )
            replica.restart_attempts += 1
            replica.restart_at = now + backoff
            logger.warning(
                "shard %s died (%s); restarting on its journal in %.1fs (attempt %d)",
                replica.shard_id,
                reason,
                backoff,
                replica.restart_attempts,
            )
            return
        if now < replica.restart_at:
            return
        try:
            self._spawn(replica)
        except ReplicaError:
            replica.restart_at = 0.0  # reschedule with a longer backoff
            logger.exception("shard %s failed to restart", replica.shard_id)
            return
        with self._lock:
            replica.restart_at = 0.0
            replica.restarts += 1
        _EVENTS.inc(event="restarts")
