"""Durable write-ahead journal of verification jobs.

The journal is the crash-safety backbone of the service: every externally
visible job transition is appended to ``journal.jsonl`` — one JSON object
per line — *before* the in-memory state changes, and each append is
flushed and fsynced, so a service killed at any instant (``kill -9``, OOM,
power loss) can reconstruct its queue on restart:

``submitted``
    The full job payload: kind, priority, properties, the protocol(s)
    themselves (serialised losslessly) and the documented predicate, so a
    recovered service can re-run the job without the original caller.
``started``
    A dispatcher picked the job up.  Purely informational for recovery —
    a started-but-unfinished job is re-enqueued exactly like a queued one
    (verification is deterministic and side-effect-free, so re-running
    from scratch is always sound) — but it lets operators distinguish
    jobs that were interrupted mid-run from jobs that never ran.
``finished``
    The terminal status plus the lossless result payload (report or batch
    dictionary) or the error string.  Recovery serves these from the
    journal without re-verifying anything.

Replay (:meth:`JobJournal.load`) folds the lines last-wins into one state
per job id, preserving submission order.  A torn final line — the process
died mid-append — is counted and skipped: by write-ahead ordering the torn
record's job is simply in its previous state, which is exactly the
conservative answer.

The journal is append-only and single-writer (the owning service); it is
*not* a cache — results are keyed by job id, not by protocol content, and
a fresh journal directory starts a fresh history.

Append-only logs grow without bound under sustained traffic, so
:meth:`JobJournal.compact` rewrites the file to its last-wins minimum
(atomic tmp-write + rename); construction does this automatically once the
log exceeds :data:`COMPACT_THRESHOLD_BYTES`.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.obs.metrics import REGISTRY

#: Version tag of the journal line format; bumped on schema changes.
JOURNAL_SCHEMA = "repro-job-journal/1"

#: The record kinds a line may carry.
RECORD_KINDS = ("submitted", "started", "finished")

#: Journal size past which construction compacts the log automatically.
#: Under sustained traffic the append-only log grows without bound (every
#: job leaves at least three records, finished ones a full result payload);
#: compaction at startup rewrites it to the last-wins minimum.
COMPACT_THRESHOLD_BYTES = 8 * 1024 * 1024

#: Keys a ``finished`` record contributes on top of the submitted payload.
_FINISHED_KEYS = ("status", "error", "report", "batch")

#: This process's journal events: the ``journal`` block of the ``stats`` op
#: (:func:`journal_statistics`) and ``GET /metricsz``.
_EVENTS = REGISTRY.counter(
    "repro_journal_events_total",
    "Job-journal events: appended, replayed and torn records, compactions",
)


def journal_statistics() -> dict:
    """This process's job-journal events, by event."""
    return _EVENTS.counts(("appended", "replayed", "torn", "compacted"))


class JobJournal:
    """Append-only JSON-lines journal of job transitions, with replay."""

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        compact_threshold_bytes: int | None = COMPACT_THRESHOLD_BYTES,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "journal.jsonl"
        self._lock = threading.Lock()
        if compact_threshold_bytes is not None and self.size_bytes() > compact_threshold_bytes:
            self.compact()

    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync before returning).

        The fsync is what makes SIGKILL recovery byte-exact: a record the
        caller saw acknowledged is on stable storage, not in a page cache
        the dying process takes with it.
        """
        if record.get("record") not in RECORD_KINDS:
            raise ValueError(
                f"journal records need a 'record' kind from {RECORD_KINDS}, got {record!r}"
            )
        if not record.get("job"):
            raise ValueError(f"journal records need a 'job' id, got {record!r}")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            _EVENTS.inc(event="appended")

    def load(self) -> dict[str, dict]:
        """Replay the journal into one merged state per job id.

        Returns ``{job_id: state}`` in submission order, where each state
        is the ``submitted`` record augmented with ``"started": bool`` and,
        when a ``finished`` record exists, its ``status`` / ``error`` /
        result payload.  Records for job ids that were never submitted
        (impossible under write-ahead ordering, tolerated anyway) are
        dropped.
        """
        return self._replay()

    def _replay(self) -> dict[str, dict]:
        states: dict[str, dict] = {}
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            return states
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A torn append: the previous state of that job stands.
                _EVENTS.inc(event="torn")
                continue
            if not isinstance(record, dict):
                _EVENTS.inc(event="torn")
                continue
            kind = record.get("record")
            job_id = record.get("job")
            if not job_id or kind not in RECORD_KINDS:
                _EVENTS.inc(event="torn")
                continue
            _EVENTS.inc(event="replayed")
            if kind == "submitted":
                state = dict(record)
                state["started"] = False
                states[job_id] = state
                continue
            state = states.get(job_id)
            if state is None:
                continue
            if kind == "started":
                state["started"] = True
            else:  # finished
                for key, value in record.items():
                    if key != "record":
                        state[key] = value
                state["finished"] = True
        return states

    def size_bytes(self) -> int:
        """Current on-disk size of the journal file (0 when absent)."""
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def compact(self) -> dict:
        """Rewrite the log to one last-wins record set per job, atomically.

        Superseded records vanish: a finished job keeps exactly its
        ``submitted`` and ``finished`` lines (plus ``started`` where it
        applies), torn lines are dropped, and replay of the compacted log
        yields the same states as replay of the original — that equivalence
        is what makes compaction safe to run at any quiescent moment.  The
        rewrite goes through a temporary file in the same directory,
        fsynced, then atomically renamed over the log, so a crash mid-compact
        leaves either the old log or the new one, never a mix.

        Returns ``{"before_bytes", "after_bytes", "jobs"}``.
        """
        with self._lock:
            before = self.size_bytes()
            states = self._replay()
            tmp_path = self.path.with_name(self.path.name + ".compact-tmp")
            with open(tmp_path, "w", encoding="utf-8") as handle:
                for job_id, state in states.items():
                    submitted = {
                        key: value
                        for key, value in state.items()
                        if key not in ("started", "finished", *_FINISHED_KEYS)
                    }
                    submitted["record"] = "submitted"
                    handle.write(json.dumps(submitted, sort_keys=True, separators=(",", ":")) + "\n")
                    if state.get("started"):
                        handle.write(
                            json.dumps(
                                {"record": "started", "job": job_id},
                                sort_keys=True,
                                separators=(",", ":"),
                            )
                            + "\n"
                        )
                    if state.get("finished"):
                        finished = {"record": "finished", "job": job_id}
                        for key in _FINISHED_KEYS:
                            if key in state:
                                finished[key] = state[key]
                        handle.write(
                            json.dumps(finished, sort_keys=True, separators=(",", ":")) + "\n"
                        )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
            self._fsync_directory()
            _EVENTS.inc(event="compacted")
            return {"before_bytes": before, "after_bytes": self.size_bytes(), "jobs": len(states)}

    def _fsync_directory(self) -> None:
        """Make the rename durable (the directory entry itself)."""
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def __len__(self) -> int:
        """Number of decodable records currently on disk."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return 0
        count = 0
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                json.loads(line)
            except json.JSONDecodeError:
                continue
            count += 1
        return count
