"""The dispatch journal: a durable, replayable record of coordinator state.

PR 5 gave every task admission, dispatch and completion a *span* and PR 4
gave every committed intent an audit record — but both live in process
memory and die with the coordinator.  This module gives those events a
durable form: an append-only JSONL file, fsync-batched, whose replay is a
pure function producing exactly the state a restarted coordinator needs:

* which tasks were admitted but not yet completed (→ redispatch them,
  exactly once);
* which results already left the farm (→ never deliver them again);
* which workers exist, and crucially which were quarantined and *never
  admitted* (→ they stay behind the admission gate across the restart);
* the contract in force and the committed two-phase intents (→ the
  rebuilt controller enforces what the dead one enforced).

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
``intent``    a two-phase intent round that reached an outcome
              (journal↔audit unification with PR 4's IntentRecord)

Durability model: writes are buffered and fsynced every ``fsync_batch``
events (or on :meth:`DispatchJournal.sync`).  ``fsync_batch=1`` gives
strict per-event durability at a cost (BENCH_stack's
``journal.append_us`` measures the batched default).  Replay tolerates a torn
final line (a crash mid-append), dropping everything from the first
undecodable line on.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ...obs.telemetry import NOOP, Telemetry

__all__ = ["DispatchJournal", "JournalState", "read_journal", "replay_events"]


def read_journal(path: str) -> List[dict]:
    """Load every intact event from a journal file (missing file: []).

    A torn tail — the line a crash interrupted mid-write — ends the
    read: everything before it is trusted, nothing after it is.
    """
    events: List[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    break
                if isinstance(event, dict):
                    events.append(event)
    except FileNotFoundError:
        return []
    return events


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
    intents: List[dict] = field(default_factory=list)

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
        elif ev == "intent":
            self.intents.append(
                {k: event.get(k) for k in ("originator", "operation", "outcome")}
            )
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
    """Append-only JSONL journal with batched fsync.

    Thread-safe: the supervisor's pump thread, the submitting thread and
    the controller all append concurrently.  Every event gets a ``seq``
    that continues across restarts (recovery reads the tail of an
    existing file), so the journal of a crashed-and-recovered run is one
    totally ordered story.
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
        existing = read_journal(self.path)
        self._seq = (max((e.get("seq", -1) for e in existing), default=-1)) + 1
        self._file = open(self.path, "a", encoding="utf-8")
        self._unsynced = 0
        self.appended = 0
        self.fsyncs = 0
        self._closed = False

    def append(self, event: dict) -> int:
        """Write one event; fsyncs when the batch fills.  Returns seq."""
        with self._lock:
            if self._closed:
                raise RuntimeError("journal is closed")
            seq = self._seq
            self._seq += 1
            record = dict(event)
            record["seq"] = seq
            self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
            self.appended += 1
            self._unsynced += 1
            if self._unsynced >= self.fsync_batch:
                self._sync_locked()
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_sup_journal_events_total",
                "events appended to the dispatch journal",
            ).labels(journal=self.name, ev=str(event.get("ev", "?"))).inc()
        return seq

    def _sync_locked(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self._unsynced = 0

    def sync(self) -> None:
        """Force-flush and fsync everything appended so far."""
        with self._lock:
            if not self._closed:
                self._sync_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._sync_locked()
            self._file.close()
            self._closed = True

    def replay(self) -> JournalState:
        """Read this journal back from disk and fold it into state.

        Deliberately goes through the *file*, not in-memory mirrors —
        recovery must work from exactly what a restarted process would
        find.  Call :meth:`sync` first when the writer is still alive.
        """
        return replay_events(read_journal(self.path))
