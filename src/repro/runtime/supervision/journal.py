"""The dispatch journal: a durable, replayable record of coordinator state.

PR 5 gave every task admission, dispatch and completion a *span* and PR 4
gave every committed intent an audit record — but both live in process
memory and die with the coordinator.  This module gives those events a
durable form: an append-only JSONL file, group-committed, whose replay is a
pure function producing exactly the state a restarted coordinator needs:

* which tasks were admitted but not yet completed (→ redispatch them,
  exactly once);
* which results already left the farm (→ never deliver them again);
* which workers exist, and crucially which were quarantined and *never
  admitted* (→ they stay behind the admission gate across the restart);
* the contract in force (→ the rebuilt controller enforces what the
  dead one enforced).

Event vocabulary (``ev`` field, one JSON object per line, each stamped
with a monotonically increasing ``seq``):

``open``      journal header: farm ``name``, ``backend``, task ``fn`` spec
``epoch``     a supervisor takeover; incarnation counter ``epoch``
``submit``    task admission: ``sid`` (stable supervisor task id), ``p``
              (payload), optional ``tenant``
``complete``  completion ack *after* outward dedup: ``sid``, ``ok`` and
              ``v`` (value) or ``err`` (error text) — exactly one per sid
``worker``    worker created: ``wid`` plus ``quarantined``/``secured``
``admit``     admission gate lifted for ``wid``
``secure``    channel secured for ``wid``
``secure_all``  every channel secured (farm-wide actuator)
``remove``    worker retired: ``wid``
``contract``  contract swap: ``c`` is the wire dict of
              :mod:`repro.runtime.hierarchy.codec`

Durability model: group commit.  :meth:`DispatchJournal.append` assigns
the ``seq``, encodes the line and leaves it in memory; one committer
thread per journal writes what has gathered and ``fsync``s it with no
lock held, then publishes the highest durable ``seq``.  A commit is
requested as soon as ``fsync_batch`` events wait, at once for every
control-plane event (anything but ``submit``/``complete``) and after
:data:`COMMIT_LINGER` for any tail, so an event is on disk within
max(linger, two commit latencies) of its append, and — appenders block
once :data:`BACKLOG_BATCHES` × ``fsync_batch`` events are undurable —
never more than that many events behind.  What is not yet committed
lives in this process only: a kill of the process loses it exactly as a
machine crash does.  :meth:`DispatchJournal.sync` is the barrier
(returns once everything appended before the call is on disk);
``fsync_batch=1`` requests a commit per event, and the appender still
does not wait for it.  A failed write or fsync is kept and raised from
every later ``append``/``sync``/``close``: after a failed fsync the
kernel may have dropped the pages, so the journal does not pretend a
retry could make them durable.  Replay tolerates a torn final line (a
crash mid-write), dropping everything from the first undecodable line
on; reopening the file cuts that tail off before anything is appended.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ...obs.telemetry import NOOP, Telemetry

__all__ = ["DispatchJournal", "JournalState", "read_journal", "replay_events"]


#: a tail shorter than one batch waits at most this long to be committed:
#: well inside any heartbeat timeout, yet an idle journal wakes its
#: committer 20 times a second, not a thousand
COMMIT_LINGER = 0.05

#: appenders are held back once this many batches are undurable: it bounds
#: what a crash can lose and what a stalled disk lets pile up in memory
BACKLOG_BATCHES = 64

#: the per-task events, committed by batch or linger; every other event is
#: control plane (one per decision, not per task) and is committed at once
_BATCHED_EVENTS = frozenset(("submit", "complete"))

#: group sizes from one event to the largest backlog of the default batch
_COMMIT_EVENTS_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)

# built once: json.dumps with non-default separators constructs an
# encoder per call
_encode = json.JSONEncoder(separators=(",", ":")).encode


def read_journal(path: str) -> List[dict]:
    """Load every intact event from a journal file (missing file: []).

    A torn tail — the line a crash interrupted mid-write — ends the
    read: everything before it is trusted, nothing after it is.
    """
    return _read_intact(path)[0]


def _read_intact(path: str) -> Tuple[List[dict], int]:
    """The intact events of a journal file and the byte offset their
    lines end at: where a torn tail, if any, begins."""
    events: List[dict] = []
    end = 0
    try:
        with open(path, "rb") as f:
            for raw in f:
                line = raw.strip()
                if line:
                    try:
                        event = json.loads(line)
                    except ValueError:  # undecodable JSON or UTF-8
                        break
                    if isinstance(event, dict):
                        events.append(event)
                end += len(raw)
    except FileNotFoundError:
        pass
    return events, end


@dataclass
class JournalState:
    """The coordinator state a journal replay reconstructs.

    Replay is a pure fold of :meth:`apply` over the event sequence —
    no clock, no I/O — so replaying any prefix, crashing, and replaying
    again is idempotent by construction (the Hypothesis suite in
    ``tests/runtime/test_supervision.py`` pins this down).
    """

    name: str = ""
    backend: str = ""
    fn: str = ""
    epoch: int = 0
    next_sid: int = 0
    next_wid: int = 0
    #: sid → payload for admitted-but-not-completed tasks, in submit order
    pending: Dict[int, Any] = field(default_factory=dict)
    #: sid → tenant for pending tasks submitted with one
    tenants: Dict[int, str] = field(default_factory=dict)
    #: sid → {"ok": bool, "v": value} | {"ok": False, "err": text};
    #: first completion wins — later ones are at-least-once duplicates
    completed: Dict[int, dict] = field(default_factory=dict)
    #: wid → {"active", "quarantined", "secured"}
    workers: Dict[int, dict] = field(default_factory=dict)
    #: wire dict of the contract in force (hierarchy codec), or None
    contract: Optional[dict] = None

    def apply(self, event: dict) -> "JournalState":
        ev = event.get("ev")
        if ev == "open":
            self.name = str(event.get("name", self.name))
            self.backend = str(event.get("backend", self.backend))
            self.fn = str(event.get("fn", self.fn))
            self.epoch = int(event.get("epoch", self.epoch))
        elif ev == "epoch":
            self.epoch = max(self.epoch, int(event.get("epoch", 0)))
        elif ev == "submit":
            sid = int(event["sid"])
            self.next_sid = max(self.next_sid, sid + 1)
            if sid not in self.completed and sid not in self.pending:
                self.pending[sid] = event.get("p")
                if event.get("tenant") is not None:
                    self.tenants[sid] = str(event["tenant"])
        elif ev == "complete":
            sid = int(event["sid"])
            self.pending.pop(sid, None)
            self.tenants.pop(sid, None)
            if sid not in self.completed:  # exactly-once outward
                ok = bool(event.get("ok"))
                self.completed[sid] = (
                    {"ok": True, "v": event.get("v")}
                    if ok
                    else {"ok": False, "err": str(event.get("err", ""))}
                )
        elif ev == "worker":
            wid = int(event["wid"])
            self.next_wid = max(self.next_wid, wid + 1)
            if wid not in self.workers:
                self.workers[wid] = {
                    "active": True,
                    "quarantined": bool(event.get("quarantined")),
                    "secured": bool(event.get("secured")),
                }
        elif ev == "admit":
            w = self.workers.get(int(event["wid"]))
            if w is not None:
                w["quarantined"] = False
        elif ev == "secure":
            w = self.workers.get(int(event["wid"]))
            if w is not None:
                w["secured"] = True
        elif ev == "secure_all":
            for w in self.workers.values():
                w["secured"] = True
        elif ev == "remove":
            w = self.workers.get(int(event["wid"]))
            if w is not None:
                w["active"] = False
        elif ev == "contract":
            self.contract = event.get("c")
        return self

    # -- derived views ---------------------------------------------------
    @property
    def quarantined_wids(self) -> List[int]:
        """Workers created quarantined and never admitted (sorted)."""
        return sorted(
            wid
            for wid, w in self.workers.items()
            if w["active"] and w["quarantined"]
        )

    @property
    def admitted_wids(self) -> List[int]:
        """Live workers past the admission gate (sorted)."""
        return sorted(
            wid
            for wid, w in self.workers.items()
            if w["active"] and not w["quarantined"]
        )


def replay_events(events: Iterable[dict]) -> JournalState:
    """Fold an event sequence into the state it describes (pure)."""
    state = JournalState()
    for event in events:
        state.apply(event)
    return state


class DispatchJournal:
    """Append-only JSONL journal with group commit.

    Thread-safe: the supervisor's pump thread, the submitting thread and
    the controller all append concurrently, and none of them touches the
    file — a committer thread per journal does (see the module docstring
    for what is durable when).  Every event gets a ``seq`` that continues
    across restarts (recovery reads the tail of an existing file), so the
    journal of a crashed-and-recovered run is one totally ordered story;
    lines reach the file in ``seq`` order because they are queued under
    the lock that numbers them.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync_batch: int = 32,
        telemetry: Optional[Telemetry] = None,
        name: str = "journal",
    ) -> None:
        if fsync_batch < 1:
            raise ValueError("fsync_batch must be at least 1")
        self.path = str(path)
        self.name = name
        self.fsync_batch = fsync_batch
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._lock = threading.Lock()
        self._wake_committer = threading.Condition(self._lock)  # the committer waits here
        self._committed = threading.Condition(self._lock)  # sync() and held-back appenders
        existing, intact = _read_intact(self.path)
        self._seq = (max((e.get("seq", -1) for e in existing), default=-1)) + 1
        self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        # a torn tail was never durable: cut it off, or the first line
        # appended would be glued onto it and end every later read there
        if os.fstat(self._fd).st_size > intact:
            os.ftruncate(self._fd, intact)
        if intact and os.pread(self._fd, 1, intact - 1) != b"\n":
            os.write(self._fd, b"\n")  # an intact last line the crash left unterminated
        self._pending: List[str] = []  # numbered lines the committer has not taken yet
        self._commit_due = False
        self.durable_seq = self._seq - 1  # highest seq known to be on disk
        self._backlog = BACKLOG_BATCHES * fsync_batch
        self._error: Optional[OSError] = None
        self._closed = False
        self.appended = 0
        self.fsyncs = 0
        # a disabled telemetry hands back inert instruments: bound once,
        # the committer records without asking
        metrics = self.telemetry.metrics
        self._ev_counters: Dict[Any, Any] = {}  # ev → bound child, on first use
        self._commit_seconds = metrics.histogram(
            "repro_sup_journal_commit_seconds",
            "write + fsync latency of one journal group commit",
        ).labels(journal=name)
        self._commit_events = metrics.histogram(
            "repro_sup_journal_commit_events",
            "events made durable by one journal group commit",
            buckets=_COMMIT_EVENTS_BUCKETS,
        ).labels(journal=name)
        self._undurable = metrics.gauge(
            "repro_sup_journal_undurable",
            "events appended but not yet on disk, as of the last commit",
        ).labels(journal=name)
        self._committer = threading.Thread(
            target=self._commit_loop, name=f"{name}-journal", daemon=True
        )
        self._committer.start()

    def append(self, event: dict) -> int:
        """Number one event and queue its line for the committer.

        Returns the ``seq``; no file I/O happens on the caller.  Blocks
        only while the backlog bound is reached, and raises the
        committer's ``OSError`` if the journal can no longer be written.
        """
        body = _encode(event)
        ev = event.get("ev", "?")
        urgent = ev not in _BATCHED_EVENTS
        with self._lock:
            while True:
                if self._closed:
                    raise RuntimeError("journal is closed")
                if self._error is not None:
                    raise self._error
                if self._seq - 1 - self.durable_seq < self._backlog:
                    break
                self._committed.wait()
            seq = self._seq
            self._seq += 1
            if "seq" in event or len(body) == 2:
                # not spliceable: an empty event, or a caller's own
                # "seq", which keeps its position and takes this value
                body = _encode({**event, "seq": seq})
                self._pending.append(body + "\n")
            else:
                self._pending.append(f'{body[:-1]},"seq":{seq}}}\n')
            self.appended += 1
            if urgent or len(self._pending) >= self.fsync_batch:
                self._request_commit()
            if self.telemetry.enabled:
                counter = self._ev_counters.get(ev)
                if counter is None:
                    counter = self._ev_counters[ev] = self.telemetry.metrics.counter(
                        "repro_sup_journal_events_total",
                        "events appended to the dispatch journal",
                    ).labels(journal=self.name, ev=str(ev))
                counter.inc()
        return seq

    def _request_commit(self) -> None:
        """Wake the committer without waiting out the linger (lock held)."""
        if not self._commit_due:
            self._commit_due = True
            self._wake_committer.notify()

    def _commit_loop(self) -> None:
        """The committer: the only code that touches the file.

        Takes whatever has gathered, writes and fsyncs it with no lock
        held, then publishes the highest durable ``seq``.  Holds no lock
        but the journal's own, and that never across I/O.
        """
        while True:
            with self._lock:
                if not (self._commit_due or self._closed):
                    # a full batch, a control-plane event, sync() or
                    # close() wake this early; a tail waits out the linger
                    self._wake_committer.wait(COMMIT_LINGER)
                self._commit_due = False
                if not self._pending:
                    if self._closed:
                        return
                    continue
                lines, self._pending = self._pending, []
                last = self._seq - 1
            t0 = time.perf_counter()
            try:
                data = memoryview("".join(lines).encode("utf-8"))
                while data:  # a short write is not an error
                    data = data[os.write(self._fd, data):]
                os.fsync(self._fd)
            except OSError as exc:
                with self._lock:
                    self._error = exc
                    self._committed.notify_all()
                return
            elapsed = time.perf_counter() - t0
            with self._lock:
                self.durable_seq = last
                self.fsyncs += 1
                undurable = self._seq - 1 - last
                self._committed.notify_all()
            self._commit_seconds.observe(elapsed)
            self._commit_events.observe(len(lines))
            self._undurable.set(undurable)

    def sync(self) -> None:
        """Barrier: return once everything appended so far is on disk."""
        with self._lock:
            target = self._seq - 1
            if self.durable_seq < target:
                self._request_commit()
            while self.durable_seq < target and self._error is None:
                self._committed.wait()
            if self._error is not None:
                raise self._error

    def close(self) -> None:
        """Commit what is left, stop the committer, release the file."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wake_committer.notify()
        self._committer.join()
        os.close(self._fd)
        if self._error is not None:
            raise self._error

    def replay(self) -> JournalState:
        """Read this journal back from disk and fold it into state.

        Deliberately goes through the *file*, not in-memory mirrors —
        recovery must work from exactly what a restarted process would
        find.  Call :meth:`sync` first when the writer is still alive.
        """
        return replay_events(read_journal(self.path))
