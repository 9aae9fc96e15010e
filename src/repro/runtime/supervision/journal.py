"""The dispatch journal: a durable, replayable record of coordinator state.

PR 5 gave every task admission, dispatch and completion a *span* and PR 4
gave every committed intent an audit record — but both live in process
memory and die with the coordinator.  This module gives those events a
durable form: an append-only binary file, group-committed, whose replay
is a pure function producing exactly the state a restarted coordinator
needs:

* which tasks were admitted but not yet completed (→ redispatch them,
  exactly once);
* which results already left the farm (→ never deliver them again);
* which workers exist, and crucially which were quarantined and *never
  admitted* (→ they stay behind the admission gate across the restart);
* the contract in force (→ the rebuilt controller enforces what the
  dead one enforced).

Event vocabulary (``ev`` field of each event dict, each stamped with a
monotonically increasing ``seq``):

``open``      journal header: farm ``name``, ``backend``, task ``fn`` spec
``epoch``     a supervisor takeover; incarnation counter ``epoch``
``submit``    task admission: ``sid`` (stable supervisor task id), ``p``
              (payload), optional ``tenant``
``complete``  a fresh result, appended by the incarnation that ran the
              task before it delivers it: ``sid``, ``ok`` and ``v``
              (value) or ``err`` (error text) — one per sid
``worker``    worker created: ``wid`` plus ``quarantined``/``secured``
``admit``     admission gate lifted for ``wid``
``secure``    channel secured for ``wid``
``secure_all``  every channel secured (farm-wide actuator)
``remove``    worker retired: ``wid``
``contract``  contract swap: ``c`` is the wire dict of
              :mod:`repro.runtime.hierarchy.codec`

File format: :data:`_MAGIC`, then records.  A record is a
:data:`_HEADER` (body length, ``seq`` of its first event) and a body in
the v4 wire's pickle codec, pinned to protocol 5: one event
(:meth:`DispatchJournal.append`) or the list of one result frame's
events (:meth:`DispatchJournal.extend`), numbered ``seq``, ``seq + 1``,
….  :func:`read_journal` expands each record into one dict per event
with its ``seq`` as the last key, so replay never sees records.  Values
keep their type across a replay (a tuple payload stays a tuple, ``bytes``
stay ``bytes``).  Reading a record unpickles it, so the journal is
trusted local state, like the pickle codec between a coordinator and the
workers it spawned: the file is created ``0o600``, and a non-empty file
that does not start with :data:`_MAGIC` is refused with ``ValueError`` and
left as it is.  To read one by hand::

    from repro.runtime.supervision import read_journal, replay_events
    events = read_journal(path)    # [{"ev": "open", ..., "seq": 0}, ...]
    state = replay_events(events)  # .pending, .completed, .workers ...

Durability model: group commit.  :meth:`DispatchJournal.append` and
:meth:`~DispatchJournal.extend` assign the ``seq`` numbers, encode the
record and leave it in memory; one committer thread per journal writes
what has gathered and fsyncs it with no lock held, then publishes the
highest durable ``seq``.  Every count below is of *events*, not records.
A commit is requested as soon as ``fsync_batch`` events wait, at once
for every control-plane event (anything but ``submit``/``complete``) and
after :data:`COMMIT_LINGER` for any tail, so an event is on disk within
max(linger, two commit latencies) of its append, and — appenders block
once :data:`BACKLOG_BATCHES` × ``fsync_batch`` events are undurable —
never more than that many events (plus one frame) behind.  What is not
yet committed lives in this process only: a kill of the process loses it
exactly as a machine crash does.  :meth:`DispatchJournal.sync` is the
barrier (returns once everything appended before the call is on disk);
``fsync_batch=1`` requests a commit per event, and the appender still
does not wait for it.  A failed write or fsync is kept and raised from
every later ``append``/``extend``/``sync``/``close``: after a failed
fsync the kernel may have dropped the pages, so the journal does not
pretend a retry could make them durable.  Replay tolerates a torn tail
(a crash mid-write): a short header or a short body ends the read, and
reopening the file cuts it off before anything is appended.  A whole
record whose body does not decode — a value that pickled but will not
unpickle, or bytes a crash zeroed — is skipped, and the records after it
still count: a skipped ``complete`` leaves its task pending, to run
again after a failover, where ending the read there would lose every
task submitted after it.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

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

#: the first bytes of every journal file: a file without them was not
#: written by this module and is neither read nor truncated
_MAGIC = b"repro-journal 1\n"

#: a record's header: body length, ``seq`` of the body's first event
_HEADER = struct.Struct("<IQ")

#: the body codec: the v4 wire's pickle, pinned so that a file written on
#: one supported Python reads back on every other
_PROTOCOL = 5


def read_journal(path: str) -> List[dict]:
    """Load every intact event from a journal file (missing file: []).

    A torn tail — the record a crash interrupted mid-write — ends the
    read: everything before it is trusted, nothing after it is.  A whole
    record that does not decode is skipped.  A file that is not a
    journal raises ``ValueError``.
    """
    return _read_intact(path)[0]


def _read_intact(path: str) -> Tuple[List[dict], int]:
    """The intact events of a journal file and the byte offset their
    records end at: where a torn tail, if any, begins (0: no header)."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return [], 0
    if not data.startswith(_MAGIC):
        if _MAGIC.startswith(data):  # empty, or the header itself was torn
            return [], 0
        raise ValueError(f"{path} is not a dispatch journal: it does not start with {_MAGIC!r}")
    events: List[dict] = []
    view = memoryview(data)
    end = len(_MAGIC)
    while end + _HEADER.size <= len(data):
        length, seq = _HEADER.unpack_from(data, end)
        start = end + _HEADER.size
        if start + length > len(data):
            break  # a short body
        end = start + length
        try:
            body = pickle.loads(view[start:end])
        except Exception:  # noqa: BLE001 - a value that pickled but does not load
            body = None
        if type(body) is dict:
            body = [body]
        elif type(body) is not list or not all(type(e) is dict for e in body):
            continue  # whole but not events: skipped, so the records after it count
        for event in body:
            if "seq" in event:  # a caller's own, or a dict the frame holds twice
                event = dict(event)
            event["seq"] = seq
            seq += 1
            events.append(event)
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
    """Append-only binary journal with group commit.

    Thread-safe: the incarnation's hooks (on its loop or worker threads),
    the submitting thread and the controller all append concurrently, and
    none of them touches the file — a committer thread per journal does
    (see the module docstring for what is durable when).  Every event gets
    a ``seq`` that continues across restarts (recovery reads the tail of
    an existing file), so the journal of a crashed-and-recovered run is
    one totally ordered story; records reach the file in ``seq`` order
    because they are queued under the lock that numbers them.
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
        existing, intact = _read_intact(self.path)  # a foreign file raises here, untouched
        self._seq = existing[-1]["seq"] + 1 if existing else 0
        self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o600)
        # a torn tail was never durable: cut it off, or the first record
        # appended would follow it and end every later read there
        if os.fstat(self._fd).st_size > intact:
            os.ftruncate(self._fd, intact)
        if not intact:
            os.write(self._fd, _MAGIC)
        self._pending: List[bytes] = []  # numbered records the committer has not taken yet
        self._pending_events = 0  # the events those records hold
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
        """Number one event and queue its record for the committer.

        Returns the ``seq``; no file I/O happens on the caller.  Blocks
        only while the backlog bound is reached, and raises the
        committer's ``OSError`` if the journal can no longer be written.
        An event the codec refuses raises before it takes a ``seq``.
        """
        body = pickle.dumps(event, _PROTOCOL)
        return self._enqueue(body, (event,), event.get("ev") not in _BATCHED_EVENTS)

    def extend(self, events: Sequence[dict]) -> Optional[int]:
        """Number a frame's events consecutively and queue them as one
        record; returns the first ``seq`` (``None``: nothing to append).

        One encode and one lock hold for the whole frame; otherwise as
        :meth:`append` — the frame is refused whole if the codec refuses
        any of its events.
        """
        if not events:
            return None
        body = pickle.dumps(list(events), _PROTOCOL)
        urgent = any(event.get("ev") not in _BATCHED_EVENTS for event in events)
        return self._enqueue(body, events, urgent)

    def _enqueue(self, body: bytes, events: Sequence[dict], urgent: bool) -> int:
        """Number ``events`` and queue their encoded ``body``; an
        ``urgent`` one is committed without waiting for a batch."""
        count = len(events)
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
            self._pending.append(_HEADER.pack(len(body), seq) + body)
            self._seq += count
            self._pending_events += count
            self.appended += count
            if urgent or self._pending_events >= self.fsync_batch:
                self._request_commit()
            if self.telemetry.enabled:
                for event in events:
                    ev = event.get("ev", "?")
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
                records, self._pending = self._pending, []
                events, self._pending_events = self._pending_events, 0
                last = self._seq - 1
            t0 = time.perf_counter()
            try:
                data = memoryview(b"".join(records))
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
            self._commit_events.observe(events)
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
