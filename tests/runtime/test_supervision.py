"""The dispatch journal and supervised failover, pinned down.

Three layers of guarantees:

* **DispatchJournal mechanics** — seq continuation across restarts,
  the group-commit durability contract (barrier, idle tail, SIGKILL,
  commit failure), torn-tail tolerance, closed-journal discipline, and
  the binary format: frame records, the magic, a committed fixture;
* **replay as a pure fold** — the Hypothesis suite: for *any* valid
  event sequence and *any* crash point, replaying the prefix and then
  applying the suffix equals replaying the whole; the completed/pending
  sid sets partition exactly; quarantined-but-never-admitted workers
  stay on their side of the gate; duplicate completions never win;
* **SupervisedFarm end-to-end (thread)** — an explicit crash + failover
  round-trip delivers every task exactly once with the quarantine
  partition intact, values keep their type across the replay, and a
  value the journal cannot encode fails alone.  The full cross-backend story (process/dist standby
  takeover, partitions, faults inside the failover window) lives in the
  chaos tier of ``test_backend_conformance.py``.
"""

import errno
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Telemetry
from repro.runtime.farm_runtime import ThreadFarm
from repro.runtime.supervision import (
    DispatchJournal,
    SupervisedFarm,
    Supervisor,
    read_journal,
    replay_events,
)
from repro.runtime.supervision.journal import _HEADER, _MAGIC

from . import journal_format
from .waiting import wait_until


def supervised_task(payload):
    """Module-level so every backend can resolve it by name."""
    work, value = payload
    if work:
        time.sleep(work)
    return value * value


def failing_task(payload):
    """Module-level, so every backend can run it; always raises."""
    raise ValueError(f"bad payload {payload}")


def echo_task(payload):
    """Module-level, so every backend can run it; hands its payload back."""
    return payload


def set_task(payload):
    """Module-level, so every backend can run it; returns a set."""
    return set(payload)


def lock_task(payload):
    """Module-level; a result no codec can encode when asked for one."""
    return threading.Lock() if payload == "lock" else payload


class Unloadable(Exception):
    """Pickles as ``Unloadable(a)``, which its ``__init__`` refuses."""

    def __init__(self, a, b):
        super().__init__(a)


def journaled(path, ev):
    """The ``ev`` events of a journal file, without their ``seq``."""
    return [
        {k: v for k, v in e.items() if k != "seq"} for e in read_journal(path) if e["ev"] == ev
    ]


# ----------------------------------------------------------------------
# DispatchJournal mechanics
# ----------------------------------------------------------------------


class TestDispatchJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = DispatchJournal(str(path), fsync_batch=4)
        journal.append({"ev": "open", "name": "f", "backend": "thread", "fn": "m:f"})
        journal.append({"ev": "submit", "sid": 0, "p": 7})
        journal.append({"ev": "worker", "wid": 0, "quarantined": True})
        # an old journal's two-phase intent record: an unknown `ev` is skipped
        journal.append(
            {"ev": "intent", "originator": "am", "operation": "addWorker", "outcome": "committed"}
        )
        journal.append({"ev": "complete", "sid": 0, "ok": True, "v": 49})
        journal.sync()
        state = journal.replay()
        assert state.name == "f" and state.backend == "thread"
        assert state.pending == {} and state.completed == {0: {"ok": True, "v": 49}}
        assert state.quarantined_wids == [0]
        events = read_journal(str(path))
        assert state == replay_events([e for e in events if e["ev"] != "intent"])
        journal.close()

    def test_seq_continues_across_restart(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = DispatchJournal(str(path))
        s0 = first.append({"ev": "submit", "sid": 0, "p": 1})
        s1 = first.append({"ev": "submit", "sid": 1, "p": 2})
        first.close()
        second = DispatchJournal(str(path))
        s2 = second.append({"ev": "submit", "sid": 2, "p": 3})
        second.close()
        assert (s0, s1, s2) == (0, 1, 2)
        seqs = [e["seq"] for e in read_journal(str(path))]
        assert seqs == sorted(seqs) == [0, 1, 2]

    def test_fsync_batching(self, tmp_path):
        """The group-commit contract, not a count of fsyncs."""
        path = str(tmp_path / "j.jsonl")
        journal = DispatchJournal(path, fsync_batch=8)
        for i in range(8):
            journal.append({"ev": "submit", "sid": i, "p": i})
        # a full batch is committed without anybody calling sync()
        wait_until(lambda: len(read_journal(path)) == 8, message="the full batch on disk")
        for i in range(8, 20):
            last = journal.append({"ev": "submit", "sid": i, "p": i})
        journal.sync()  # the barrier: everything appended before it is on disk
        assert journal.durable_seq == last == 19
        assert [e["seq"] for e in read_journal(path)] == list(range(20))
        assert journal.appended == 20 and journal.fsyncs >= 1
        journal.close()

    @pytest.mark.parametrize("ev", ["contract", "submit"])
    def test_idle_tail_becomes_durable(self, tmp_path, ev):
        """One event and then silence: a control-plane event is committed
        at once, a lone task event after the linger — neither waits for
        31 further appends, or for a sync() nobody will call."""
        path = str(tmp_path / "j.jsonl")
        journal = DispatchJournal(path)
        try:
            journal.append({"ev": ev, "c": None})
            wait_until(
                lambda: [e["ev"] for e in read_journal(path)] == [ev],
                timeout=5.0,
                message="the idle tail on disk",
            )
            wait_until(lambda: journal.durable_seq == 0, timeout=5.0, message="the fsync")
        finally:
            journal.close()

    def test_records_round_trip_with_seq_last(self, tmp_path):
        path = tmp_path / "j.jsonl"
        events = [
            {"ev": "submit", "sid": 0, "p": [1, {"k": "é"}], "tenant": "t"},
            {"ev": "complete", "sid": 0, "ok": False, "err": "boom"},
            {},  # an event with no fields still takes its seq
            {"ev": "epoch", "seq": 99, "epoch": 1},  # a caller's seq is overwritten in place
        ]
        journal = DispatchJournal(str(path))
        for event in events:
            journal.append(event)
        journal.extend(events)  # one record, the same events
        journal.close()
        expected = [{**event, "seq": seq} for seq, event in enumerate(events + events)]
        assert [list(e.items()) for e in read_journal(str(path))] == [
            list(e.items()) for e in expected
        ]

    def test_sigkill_keeps_everything_synced_before_it(self, tmp_path):
        """A real process, a real SIGKILL: what sync() returned for is on
        disk, and what follows it is a contiguous run of seqs (the line
        the kill tore, if any, is dropped by read_journal)."""
        path = str(tmp_path / "j.jsonl")
        code = (
            "import sys, time\n"
            "from repro.runtime.supervision import DispatchJournal\n"
            "j = DispatchJournal(sys.argv[1], fsync_batch=8)\n"
            "for i in range(500):\n"
            "    j.append({'ev': 'submit', 'sid': i, 'p': i})\n"
            "j.sync()\n"
            "print(j.durable_seq, flush=True)\n"
            "for i in range(500, 100_000):\n"
            "    j.append({'ev': 'submit', 'sid': i, 'p': i})\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        child = subprocess.Popen(
            [sys.executable, "-c", code, path], env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            synced = int(child.stdout.readline())
            time.sleep(0.01)  # let it get some way into the un-synced appends
        finally:
            child.kill()
            child.wait(timeout=30)
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        seqs = [e["seq"] for e in read_journal(path)]
        assert synced == 499 and len(seqs) > synced
        assert seqs == list(range(len(seqs)))

    def test_concurrent_appenders_keep_file_order_equal_to_seq_order(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = DispatchJournal(path, fsync_batch=8)
        threads_n, each = 4, 5_000

        def hammer(t):
            for i in range(each):
                journal.append({"ev": "submit", "sid": t * each + i, "p": i})

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        journal.sync()
        events = read_journal(path)
        assert [e["seq"] for e in events] == list(range(threads_n * each))
        assert sorted(e["sid"] for e in events) == list(range(threads_n * each))
        assert len(journal.replay().pending) == threads_n * each
        assert journal.appended == threads_n * each
        journal.close()

    def test_commit_failure_surfaces_on_the_callers(self, tmp_path, monkeypatch):
        """ENOSPC/EIO in the committer is not swallowed with its thread:
        the journal keeps the error and every later call raises it."""
        real_fsync, failed = os.fsync, []

        def fsync_fails_once(fd):
            if not failed:
                failed.append(fd)
                raise OSError(errno.EIO, "injected")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync_fails_once)
        journal = DispatchJournal(str(tmp_path / "j.jsonl"))
        journal.append({"ev": "contract", "c": None})
        with pytest.raises(OSError, match="injected"):
            journal.sync()
        with pytest.raises(OSError, match="injected"):
            journal.append({"ev": "submit", "sid": 0, "p": 0})
        with pytest.raises(OSError, match="injected"):
            journal.close()
        assert journal.durable_seq == -1 and journal.fsyncs == 0

    def test_commit_vital_signs(self, tmp_path):
        telemetry = Telemetry()
        journal = DispatchJournal(str(tmp_path / "j.jsonl"), telemetry=telemetry, name="vs")
        for i in range(100):
            journal.append({"ev": "submit", "sid": i, "p": i})
        journal.append({"ev": "remove", "wid": 0})
        journal.close()
        metrics = telemetry.metrics
        events = metrics.get("repro_sup_journal_events_total")
        assert events.labels(journal="vs", ev="submit").value == 100
        assert events.labels(journal="vs", ev="remove").value == 1
        seconds = metrics.get("repro_sup_journal_commit_seconds").labels(journal="vs")
        sizes = metrics.get("repro_sup_journal_commit_events").labels(journal="vs")
        assert seconds.count == sizes.count == journal.fsyncs >= 1
        assert sizes.sum == 101
        assert metrics.get("repro_sup_journal_undurable").labels(journal="vs").value == 0

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = DispatchJournal(str(tmp_path / "j.jsonl"))
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(RuntimeError):
            journal.append({"ev": "submit", "sid": 0, "p": 0})

    def test_fsync_batch_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            DispatchJournal(str(tmp_path / "j.jsonl"), fsync_batch=0)

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = DispatchJournal(str(path))
        for sid in range(3):
            journal.append({"ev": "submit", "sid": sid, "p": sid + 1})
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # the record the crash interrupted
        events = read_journal(str(path))
        assert [e["sid"] for e in events] == [0, 1]
        # recovery opens the same file and keeps numbering after the tear
        journal = DispatchJournal(str(path))
        assert journal.append({"ev": "submit", "sid": 2, "p": 3}) == 2
        journal.close()

    @pytest.mark.parametrize(
        "tear, skipped",
        [
            (lambda record: record[:5], 0),
            (lambda record: record[:-3], 0),
            (lambda record: record[:_HEADER.size] + b"\x00" * (len(record) - _HEADER.size), 1),
        ],
        ids=["torn-header", "torn-body", "undecodable-body"],
    )
    def test_records_appended_after_a_tear_read_back(self, tmp_path, tear, skipped):
        """Reopening cuts a torn record off (left in place, it would end
        every later read) and keeps a whole one that does not decode,
        which every read skips: either way the records appended next
        read back, numbered past every record kept in the file."""
        path = tmp_path / "j.jsonl"
        journal = DispatchJournal(str(path))
        journal.append({"ev": "submit", "sid": 0, "p": 1})
        journal.sync()
        intact = path.stat().st_size
        journal.append({"ev": "worker", "wid": 0})
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[:intact] + tear(data[intact:]))
        kept = len(read_journal(str(path)))
        assert kept == 1
        journal = DispatchJournal(str(path))
        seqs = [journal.append({"ev": "submit", "sid": i, "p": i}) for i in range(1, 4)]
        journal.close()
        events = read_journal(str(path))
        first = kept + skipped
        assert [e["seq"] for e in events][kept:] == seqs == list(range(first, first + 3))
        # and a second recovery finds the same file it left
        DispatchJournal(str(path)).close()
        assert read_journal(str(path)) == events

    def test_a_record_that_does_not_load_is_skipped(self, tmp_path):
        """A value can pickle and still not unpickle (an exception whose
        ``__init__`` takes other arguments than it passes on).  Its
        record is skipped: the submit after it is neither lost to a read
        nor cut off by a reopen, and its own task stays pending."""
        path = str(tmp_path / "j.jsonl")
        journal = DispatchJournal(path)
        journal.append({"ev": "submit", "sid": 0, "p": 1})
        journal.extend([{"ev": "complete", "sid": 0, "ok": True, "v": [Unloadable(1, 2)]}])
        journal.append({"ev": "submit", "sid": 1, "p": 2})
        journal.close()
        assert [(e["ev"], e["sid"], e["seq"]) for e in read_journal(path)] == [
            ("submit", 0, 0), ("submit", 1, 2)
        ]
        journal = DispatchJournal(path)
        assert journal.append({"ev": "submit", "sid": 2, "p": 3}) == 3
        journal.close()
        assert sorted(replay_events(read_journal(path)).pending) == [0, 1, 2]

    def test_a_reopen_numbers_past_a_last_record_that_does_not_load(self, tmp_path):
        """A skipped last record still took its ``seq``: a reopened
        journal numbers on from past its header, so every record header
        in the file names a ``seq`` no other record reuses."""
        path = str(tmp_path / "j.jsonl")
        journal = DispatchJournal(path)
        journal.append({"ev": "submit", "sid": 0, "p": 1})
        journal.append({"ev": "complete", "sid": 0, "ok": True, "v": Unloadable(1, 2)})
        journal.close()
        journal = DispatchJournal(path)
        assert journal.append({"ev": "submit", "sid": 1, "p": 2}) == 2
        journal.close()
        with open(path, "rb") as f:
            data = f.read()
        seqs, end = [], len(_MAGIC)
        while end < len(data):
            length, seq = _HEADER.unpack_from(data, end)
            seqs.append(seq)
            end += _HEADER.size + length
        assert seqs == [0, 1, 2]

    def test_the_format_fixture_reads_back(self):
        """A journal written once and committed reads back, on every
        Python the project supports, to the events it was written from."""
        events = read_journal(journal_format.FIXTURE)
        assert events == journal_format.EVENTS
        state = replay_events(events)
        assert state.pending == {3: [1.5, None, True, "é"]}
        assert state.completed[0] == {"ok": True, "v": {1, 2}}
        assert state.completed[2] == {"ok": True, "v": b"\x00\xff"}
        assert state.admitted_wids == [1] and state.epoch == 1

    def test_this_code_writes_the_format_fixture(self, tmp_path):
        """The same records, written now, are the committed bytes: a
        change of header, magic or pickle protocol shows here first."""
        path = str(tmp_path / "j.bin")
        journal_format.write(path)
        with open(path, "rb") as mine, open(journal_format.FIXTURE, "rb") as pinned:
            assert mine.read() == pinned.read()

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_journal(str(tmp_path / "absent.jsonl")) == []

    def test_a_frame_is_one_record_of_consecutive_events(self, tmp_path):
        """``extend`` numbers a frame's events consecutively, and the
        group commit counts its events: a frame of ``fsync_batch`` is a
        full batch."""
        path = str(tmp_path / "j.jsonl")
        journal = DispatchJournal(path, fsync_batch=8)
        try:
            assert journal.extend([]) is None and journal.appended == 0
            assert journal.append({"ev": "submit", "sid": 0, "p": 0}) == 0
            frame = [{"ev": "complete", "sid": i, "ok": True, "v": i} for i in range(7)]
            assert journal.extend(frame) == 1
            wait_until(lambda: len(read_journal(path)) == 8, message="the full batch on disk")
            assert journal.append({"ev": "submit", "sid": 1, "p": 1}) == 8
            assert journal.appended == 9
        finally:
            journal.close()
        assert [e["seq"] for e in read_journal(path)] == list(range(9))

    def test_an_unencodable_event_takes_no_seq(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = DispatchJournal(path)
        try:
            with pytest.raises(TypeError):
                journal.append({"ev": "submit", "sid": 0, "p": threading.Lock()})
            with pytest.raises(TypeError):
                journal.extend([{"ev": "complete", "sid": 0, "ok": True, "v": threading.Lock()}])
            assert journal.append({"ev": "submit", "sid": 0, "p": 1}) == 0
            assert journal.appended == 1
        finally:
            journal.close()

    def test_the_file_is_private_and_starts_with_the_magic(self, tmp_path):
        path = tmp_path / "j.jsonl"
        DispatchJournal(str(path)).close()
        assert path.stat().st_mode & 0o777 == 0o600
        assert path.read_bytes() == _MAGIC
        assert read_journal(str(path)) == []

    def test_a_torn_magic_is_an_empty_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(_MAGIC[:5])
        assert read_journal(str(path)) == []
        journal = DispatchJournal(str(path))
        assert journal.append({"ev": "submit", "sid": 0, "p": 1}) == 0
        journal.close()
        assert [e["sid"] for e in read_journal(str(path))] == [0]

    @pytest.mark.parametrize(
        "content",
        [b"not a journal\n\x00\xff", b'{"ev":"submit","sid":0,"p":1,"seq":0}\n'],
        ids=["foreign", "jsonl"],
    )
    def test_a_file_it_did_not_write_is_left_intact(self, tmp_path, content):
        """A file without the magic — another program's, or a journal of
        the earlier JSON-lines format — is refused, and neither read nor
        cut."""
        path = tmp_path / "notes.txt"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_journal(str(path))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            DispatchJournal(str(path))
        assert path.read_bytes() == content


# ----------------------------------------------------------------------
# replay as a pure fold (Hypothesis)
# ----------------------------------------------------------------------


@st.composite
def journal_histories(draw):
    """Event sequences shaped like what a real SupervisedFarm appends:
    monotone sids/wids, completes only for submitted sids (duplicates
    allowed — the at-least-once reality), actuators only for known wids.
    """
    events = [
        {"ev": "open", "name": "h", "backend": "thread", "fn": "m:f", "epoch": 0}
    ]
    next_sid = 0
    next_wid = 0
    epoch = 0
    sids = []
    wids = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        kind = draw(
            st.sampled_from(
                [
                    "submit", "submit", "complete", "complete", "worker",
                    "admit", "secure", "secure_all", "remove", "epoch",
                    "contract",
                ]
            )
        )
        if kind == "submit":
            event = {"ev": "submit", "sid": next_sid, "p": draw(st.integers(0, 99))}
            if draw(st.booleans()):
                event["tenant"] = draw(st.sampled_from(["acme", "globex"]))
            events.append(event)
            sids.append(next_sid)
            next_sid += 1
        elif kind == "complete" and sids:
            sid = draw(st.sampled_from(sids))
            if draw(st.booleans()):
                events.append({"ev": "complete", "sid": sid, "ok": True, "v": sid})
            else:
                events.append({"ev": "complete", "sid": sid, "ok": False, "err": "boom"})
        elif kind == "worker":
            events.append(
                {
                    "ev": "worker",
                    "wid": next_wid,
                    "quarantined": draw(st.booleans()),
                    "secured": draw(st.booleans()),
                }
            )
            wids.append(next_wid)
            next_wid += 1
        elif kind in ("admit", "secure", "remove") and wids:
            events.append({"ev": kind, "wid": draw(st.sampled_from(wids))})
        elif kind == "secure_all":
            events.append({"ev": "secure_all"})
        elif kind == "epoch":
            epoch += 1
            events.append({"ev": "epoch", "epoch": epoch})
        elif kind == "contract":
            events.append({"ev": "contract", "c": {"kind": "best_effort"}})
    return events


class TestReplayProperties:
    @settings(max_examples=80, deadline=None)
    @given(events=journal_histories(), data=st.data())
    def test_replay_crash_replay_is_idempotent(self, events, data):
        """Replaying any prefix, 'crashing', and folding the suffix into
        the recovered state equals replaying the whole journal — the
        property that makes recovery-of-a-recovery safe."""
        cut = data.draw(st.integers(min_value=0, max_value=len(events)))
        whole = replay_events(events)
        recovered = replay_events(events[:cut])
        for event in events[cut:]:
            recovered.apply(event)
        assert recovered == whole

    @settings(max_examples=80, deadline=None)
    @given(events=journal_histories())
    def test_replay_is_deterministic(self, events):
        assert replay_events(events) == replay_events(list(events))

    @settings(max_examples=80, deadline=None)
    @given(events=journal_histories())
    def test_completed_and_pending_partition_the_sids(self, events):
        """Exactly-once at the state level: every admitted sid is in
        exactly one of pending/completed, never both, never neither."""
        state = replay_events(events)
        completed = set(state.completed)
        pending = set(state.pending)
        assert not (completed & pending)
        assert completed | pending == set(range(state.next_sid))
        # tenants only tracked while pending
        assert set(state.tenants) <= pending

    @settings(max_examples=80, deadline=None)
    @given(events=journal_histories())
    def test_quarantine_partition_is_stable(self, events):
        """A worker journaled quarantined and never admitted replays
        quarantined; admitted/quarantined partition the active set."""
        state = replay_events(events)
        active = {wid for wid, w in state.workers.items() if w["active"]}
        quarantined = set(state.quarantined_wids)
        admitted = set(state.admitted_wids)
        assert not (quarantined & admitted)
        assert quarantined | admitted == active
        # exact oracle: quarantined iff registered quarantined and never admitted
        admits = {e["wid"] for e in events if e.get("ev") == "admit"}
        born_gated = {
            e["wid"]
            for e in events
            if e.get("ev") == "worker" and e.get("quarantined")
        }
        assert quarantined == (born_gated - admits) & active

    @settings(max_examples=80, deadline=None)
    @given(events=journal_histories())
    def test_first_completion_wins(self, events):
        """Duplicate completes (the at-least-once underbelly) never
        overwrite the result that already left the farm."""
        state = replay_events(events)
        first = {}
        for event in events:
            if event.get("ev") == "complete" and event["sid"] not in first:
                first[event["sid"]] = event
        for sid, event in first.items():
            expect = (
                {"ok": True, "v": event.get("v")}
                if event.get("ok")
                else {"ok": False, "err": str(event.get("err", ""))}
            )
            assert state.completed[sid] == expect

    @settings(max_examples=40, deadline=None)
    @given(events=journal_histories(), cut=st.integers(min_value=0, max_value=20))
    def test_torn_tail_replay_equals_intact_prefix(self, tmp_path_factory, events, cut):
        """A journal torn mid-record replays exactly the intact prefix."""
        path = tmp_path_factory.mktemp("journal") / "torn.jsonl"
        keep = events[: min(cut, len(events))]
        journal = DispatchJournal(str(path))
        for event in keep:
            journal.append(event)
        journal.sync()
        intact = path.stat().st_size
        journal.append({"ev": "submit", "sid": len(keep), "p": 0})
        journal.close()
        with open(path, "r+b") as f:
            f.truncate(intact + _HEADER.size + 1)
        recovered = replay_events(read_journal(str(path)))
        expected = replay_events(keep)
        assert recovered == expected

    @settings(max_examples=40, deadline=None)
    @given(events=journal_histories(), data=st.data())
    def test_a_cut_anywhere_in_the_last_record_reads_the_intact_prefix(
        self, tmp_path_factory, events, data
    ):
        """Written through ``append`` and ``extend`` in any grouping, a
        file cut at every byte offset of its last record reads back
        exactly the events of the records before it."""
        path = tmp_path_factory.mktemp("journal") / "cut.jsonl"
        records, rest = [], list(events)
        while rest:  # every draw before the journal opens: a draw can end the example
            size = data.draw(st.integers(min_value=1, max_value=len(rest)))
            one = size == 1 and data.draw(st.booleans())
            records.append((one, rest[:size]))
            rest = rest[size:]
        journal = DispatchJournal(str(path))
        for one, record in records[:-1]:
            if one:
                journal.append(record[0])
            else:
                journal.extend(record)
        journal.sync()
        intact = path.stat().st_size
        last = records[-1][1]
        journal.extend(last)
        journal.close()
        whole = path.read_bytes()
        numbered = [{**event, "seq": seq} for seq, event in enumerate(events)]
        assert read_journal(str(path)) == numbered
        prefix = numbered[: len(events) - len(last)]
        for cut in range(intact, len(whole)):
            path.write_bytes(whole[:cut])
            assert read_journal(str(path)) == prefix


# ----------------------------------------------------------------------
# SupervisedFarm end-to-end (thread; cross-backend lives in the chaos tier)
# ----------------------------------------------------------------------


class TestSupervisedFarmFailover:
    def test_explicit_crash_failover_is_exactly_once(self, tmp_path):
        farm = SupervisedFarm(
            supervised_task,
            backend="thread",
            journal_path=str(tmp_path / "j.jsonl"),
            initial_workers=2,
        )
        try:
            gated = farm.add_worker(quarantined=True)
            total = 30
            for i in range(total):
                farm.submit((0.005, i))
            wait_until(
                lambda: farm.completed >= 5,
                message="stream in flight before the crash",
            )
            farm.crash_coordinator()
            # submits during the outage are journaled, not lost
            farm.submit((0.005, total))
            state = farm.failover()
            assert state.epoch == 1 and farm.epoch == 1
            assert state.quarantined_wids, "quarantine lost in replay"
            results = farm.drain_results(total + 1, timeout=60.0)
            assert sorted(results) == [i * i for i in range(total + 1)]
            assert farm.completed == total + 1
            assert farm.quarantined_workers == 1
            # the failover's incarnation holds the gated worker under its id
            (rebuilt,) = [w for w in farm.farm.workers if w.worker_id == gated.worker_id]
            assert rebuilt.quarantined and rebuilt.dispatched == 0
        finally:
            farm.shutdown()

    def test_failover_requires_a_crash(self, tmp_path):
        farm = SupervisedFarm(
            supervised_task,
            backend="thread",
            journal_path=str(tmp_path / "j.jsonl"),
        )
        try:
            with pytest.raises(RuntimeError):
                farm.failover()
        finally:
            farm.shutdown()

    def test_actuators_refused_while_crashed(self, tmp_path):
        farm = SupervisedFarm(
            supervised_task,
            backend="thread",
            journal_path=str(tmp_path / "j.jsonl"),
        )
        try:
            farm.crash_coordinator()
            with pytest.raises(RuntimeError):
                farm.add_worker()
            assert farm.balance_load() == 0
            farm.failover()
            assert farm.add_worker() is not None
        finally:
            farm.shutdown()

    def test_a_rebuild_that_raises_leaves_its_incarnation_crashed(self, tmp_path, monkeypatch):
        """A worker that will not start mid-rebuild fails the failover:
        the half-built incarnation is crashed, not left running, and the
        next failover builds the farm whole."""
        farm = SupervisedFarm(
            supervised_task, backend="thread", journal_path=str(tmp_path / "j.jsonl")
        )
        try:
            farm.crash_coordinator()
            add_worker = ThreadFarm.add_worker

            def refuse_worker_1(inner, **kwargs):
                if kwargs.get("worker_id") == 1:
                    raise RuntimeError("worker 1 will not start")
                return add_worker(inner, **kwargs)

            monkeypatch.setattr(ThreadFarm, "add_worker", refuse_worker_1)
            with pytest.raises(RuntimeError, match="worker 1 will not start"):
                farm.failover()
            half = farm.farm
            assert farm.crashed and [w.worker_id for w in half.workers] == [0]
            wait_until(
                lambda: not half.workers[0]._thread.is_alive(),
                message="the half-built incarnation's worker to stop",
            )
            monkeypatch.undo()
            farm.failover()
            assert [w.worker_id for w in farm.farm.workers] == [0, 1]
            farm.submit((0.0, 3))
            assert farm.drain_results(1, timeout=10.0) == [9]
        finally:
            farm.shutdown()

    def test_failover_rebuilds_only_the_workers_still_alive(self, tmp_path):
        """Worker deaths reach the journal, so a failover neither
        respawns the dead nor trips over the farm's own worker limit."""
        farm = SupervisedFarm(
            supervised_task,
            backend="process",
            journal_path=str(tmp_path / "j.jsonl"),
            initial_workers=4,
            max_workers=4,
            farm_options=dict(
                heartbeat_period=0.05, heartbeat_timeout=0.5, supervise_period=0.02
            ),
        )
        try:
            inner = farm.farm
            for doomed in inner.workers[1:]:
                assert inner.inject_crash(doomed.worker_id) is not None
            wait_until(
                lambda: len(inner.crashes) == 3,
                message="the farm to declare its three killed workers dead",
            )
            farm.crash_coordinator()
            state = farm.failover()
            assert len(state.admitted_wids) == 1
            assert farm.num_workers == 1 and len(farm.farm.workers) == 1
            # a fifth lifetime admission, two alive: well inside the limit
            # of four, which a rebuild of all five admissions would exceed
            farm.add_worker()
            farm.crash_coordinator()
            state = farm.failover()
            assert state.admitted_wids == farm.journal.replay().admitted_wids
            assert len(state.admitted_wids) == 2
            assert farm.num_workers == 2 and len(farm.farm.workers) == 2
            for i in range(6):
                farm.submit((0.0, i))
            assert sorted(farm.drain_results(6, timeout=60.0)) == [i * i for i in range(6)]
        finally:
            farm.shutdown()


class TestOneWorkerId:
    """A supervised worker has one id: the journal's wid is the
    incarnation's worker id, in every incarnation."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_worker_keeps_its_id_across_a_failover(self, tmp_path, backend):
        farm = SupervisedFarm(
            supervised_task,
            backend=backend,
            journal_path=str(tmp_path / "j.jsonl"),
            initial_workers=3,
        )
        try:
            farm.remove_worker()
            gated = farm.add_worker(quarantined=True)
            farm.crash_coordinator()
            state = farm.failover()
            live = sorted(w.worker_id for w in farm.farm.workers if w.active)
            assert live == state.admitted_wids + state.quarantined_wids == [0, 1, 3]
            assert farm.admit_worker(gated.worker_id)
            (admitted,) = [w for w in farm.farm.workers if w.worker_id == gated.worker_id]
            assert not admitted.quarantined
            assert farm.add_worker().worker_id == state.next_wid
        finally:
            farm.shutdown()

    def test_a_worker_that_dials_in_takes_no_journaled_id(self, tmp_path):
        """A dist worker that dials in unannounced is enrolled under the
        incarnation's own numbering; the next supervised worker still
        gets an id of its own, and the journal has it."""
        farm = SupervisedFarm(
            supervised_task,
            backend="dist",
            journal_path=str(tmp_path / "j.jsonl"),
            initial_workers=1,
        )
        proc = None
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.runtime.dist_worker",
                 "--host", "127.0.0.1", "--port", str(farm.farm.port),
                 "--fn", farm.fn_spec, "--heartbeat-period", "0.05"],
                env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
                stdout=subprocess.DEVNULL,
            )
            wait_until(lambda: farm.num_workers == 2, message="dialled worker to attach")
            dialled = max(w.worker_id for w in farm.farm.workers)
            added = farm.add_worker()
            assert added.worker_id not in (0, dialled)
            farm.journal.sync()
            state = farm.journal.replay()
            assert state.admitted_wids == [0, added.worker_id]
            for i in range(20):
                farm.submit((0.0, i))
            assert sorted(farm.drain_results(20, timeout=60.0)) == [i * i for i in range(20)]
        finally:
            farm.shutdown()
            if proc is not None:
                proc.wait(10.0)

    def test_dispatch_rows_name_journaled_workers(self, tmp_path):
        tel = Telemetry()
        farm = SupervisedFarm(
            supervised_task,
            backend="process",
            journal_path=str(tmp_path / "j.jsonl"),
            initial_workers=3,
            telemetry=tel,
        )
        try:
            inner = farm.farm
            assert inner.inject_crash(0) == 0
            wait_until(lambda: inner.crashes, message="worker 0 declared dead")
            farm.crash_coordinator()
            farm.failover()
            for i in range(12):
                farm.submit((0.0, i))
            assert sorted(farm.drain_results(12, timeout=60.0)) == [i * i for i in range(12)]
        finally:
            farm.shutdown()
        state = farm.journal.replay()
        live = state.admitted_wids + state.quarantined_wids
        assert live == [1, 2]
        workers = {s.attributes["worker"] for s in tel.spans.named("task.dispatch")}
        assert workers and workers <= set(live)


class TestOneBooking:
    """A supervised task is booked once: its sid is the incarnation's
    task id, and its result is journaled and delivered once."""

    def test_the_sid_is_the_task_id_after_a_failover(self, tmp_path):
        tel = Telemetry()
        farm = SupervisedFarm(
            supervised_task,
            backend="thread",
            journal_path=str(tmp_path / "j.jsonl"),
            telemetry=tel,
        )
        try:
            for i in range(3):
                farm.submit((0.0, i))
            assert sorted(farm.drain_results(3, timeout=30.0)) == [0, 1, 4]
            farm.crash_coordinator()
            farm.failover()
            farm.submit((0.0, 3))
            assert farm.drain_results(1, timeout=30.0) == [9]
        finally:
            farm.shutdown()
        roots = {s.span_id: s.attributes["task_id"] for s in tel.spans.named("task", "sfarm")}
        attempts = tel.spans.named("task.attempt")
        assert sorted((a.actor, a.attributes["task_id"]) for a in attempts) == [
            ("sfarm-e0", 0), ("sfarm-e0", 1), ("sfarm-e0", 2), ("sfarm-e1", 3)
        ]
        assert all(roots[a.parent_id] == a.attributes["task_id"] for a in attempts)

    def test_results_in_flight_at_the_crash_complete_once(self, tmp_path):
        """Tasks still running on the dead coordinator's workers when it
        crashes neither journal nor deliver once ``crash_coordinator()``
        has returned; the failover runs them again, and every sid ends
        with one ``complete`` line and one drained result."""
        path = str(tmp_path / "j.jsonl")
        farm = SupervisedFarm(
            supervised_task, backend="thread", journal_path=path, initial_workers=4
        )
        total = 40
        try:
            for i in range(total):
                farm.submit((0.02, i))
            wait_until(lambda: farm.completed >= 4, message="results before the crash")
            farm.crash_coordinator()
            farm.journal.sync()
            completes, queued = len(journaled(path, "complete")), farm.results.qsize()
            time.sleep(0.1)  # the executions the crash caught finish now
            farm.journal.sync()
            assert len(journaled(path, "complete")) == completes
            assert farm.results.qsize() == queued
            farm.failover()
            results = farm.drain_results(total, timeout=60.0)
            assert sorted(results) == [i * i for i in range(total)]
            time.sleep(0.05)
            assert farm.results.empty()
        finally:
            farm.shutdown()
        assert sorted(e["sid"] for e in journaled(path, "complete")) == list(range(total))

    def test_completion_takes_no_supervisor_lock(self, tmp_path):
        """The completion hook runs on the incarnation's thread under the
        farm's lock only: a result is journaled and delivered while some
        other thread holds the supervisor's lock, which it holds whenever
        it calls into the farm."""
        path = str(tmp_path / "j.jsonl")
        farm = SupervisedFarm(supervised_task, backend="thread", journal_path=path)
        try:
            with farm._lock:
                farm.submit((0.0, 3))
                assert farm.drain_results(1, timeout=10.0) == [9]
                assert farm.completed == 1
        finally:
            farm.shutdown()
        assert journaled(path, "complete") == [{"ev": "complete", "sid": 0, "ok": True, "v": 9}]

    def test_concurrent_completions_are_each_booked_once(self, tmp_path):
        """More worker threads than cores and a short switch interval:
        every result still counts once in ``completed``, appends one
        ``complete`` line and closes its root ``ok`` — and results drain
        in the order their ``complete`` lines were journaled."""
        path = str(tmp_path / "j.jsonl")
        tel = Telemetry()
        farm = SupervisedFarm(
            supervised_task, backend="thread", journal_path=path, initial_workers=6,
            telemetry=tel,
        )
        total = 1000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for i in range(total):
                farm.submit((0, i))
            results = farm.drain_results(total, timeout=120.0)
            completed = farm.completed
        finally:
            sys.setswitchinterval(interval)
            farm.shutdown()
        assert completed == total
        completes = [e["sid"] for e in journaled(path, "complete")]
        assert sorted(completes) == list(range(total))
        assert results == [sid * sid for sid in completes]
        outcomes = [r.attributes.get("outcome") for r in tel.spans.named("task", "sfarm")]
        assert outcomes == ["ok"] * total

    def test_heartbeat_is_the_incarnations_supervision_pass(self, tmp_path):
        """A stream incarnation's loop stamps every supervision pass; one
        that stops passing ages, and a thread farm has no loop to age."""
        thread = SupervisedFarm(
            supervised_task, backend="thread", journal_path=str(tmp_path / "t.jsonl")
        )
        farm = SupervisedFarm(
            supervised_task,
            backend="process",
            journal_path=str(tmp_path / "p.jsonl"),
            initial_workers=1,
            farm_options=dict(supervise_period=0.02),
        )
        try:
            assert thread.heartbeat_age() == 0.0
            wait_until(lambda: farm.heartbeat_age() < 0.05, message="a supervision pass")
            inner = farm.farm  # its loop stops passing
            inner._loop.call_soon_threadsafe(inner._supervisor_task.cancel)
            time.sleep(0.1)  # a pass already under way ends
            before = farm.heartbeat_age()
            time.sleep(0.1)
            assert farm.heartbeat_age() >= before + 0.1
        finally:
            farm.shutdown()
            thread.shutdown()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_failing_task_drains_and_journals_its_error_text(self, tmp_path, backend):
        path = str(tmp_path / "j.jsonl")
        farm = SupervisedFarm(
            failing_task, backend=backend, journal_path=path, initial_workers=1
        )
        try:
            farm.submit(7)
            (result,) = farm.drain_results(1, timeout=30.0)
        finally:
            farm.shutdown()
        assert type(result) is RuntimeError
        assert str(result) == "ValueError: bad payload 7"
        assert journaled(path, "complete") == [
            {"ev": "complete", "sid": 0, "ok": False, "err": "ValueError: bad payload 7"}
        ]


class TestValueFidelity:
    """What a task carries and returns comes back as it went in: across a
    failover's replay, from the journal, and on every backend."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_replayed_payload_keeps_its_type(self, tmp_path, backend):
        payloads = [(1, 2), {1: "a"}, b"\x00\xff"]
        farm = SupervisedFarm(
            echo_task, backend=backend, journal_path=str(tmp_path / "j.jsonl"),
            initial_workers=1,
        )
        try:
            farm.crash_coordinator()
            for payload in payloads:  # journaled only: they run after the failover
                farm.submit(payload)
            farm.failover()
            results = farm.drain_results(len(payloads), timeout=30.0)
        finally:
            farm.shutdown()
        assert sorted(map(repr, results)) == sorted(map(repr, payloads))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_set_result_drains_without_a_worker_crash(self, tmp_path, backend):
        farm = SupervisedFarm(
            set_task, backend=backend, journal_path=str(tmp_path / "j.jsonl"),
            initial_workers=1,
        )
        try:
            farm.submit((1, 2))
            assert farm.drain_results(1, timeout=10.0) == [{1, 2}]
            inner = farm.farm
            assert not inner.crashes
            if backend == "thread":
                assert all(w._thread.is_alive() for w in inner.workers)
        finally:
            farm.shutdown()

    def test_a_result_frame_calls_the_hook_once(self):
        from .test_farm_core import BookkeepingFarm

        farm = BookkeepingFarm()
        farm.add()
        records = [farm.submit(i) for i in range(16)]
        calls = []
        farm._on_complete = lambda *args: calls.append(args)
        acks = [(r.task_id, r.payload * 2, False) for r in records]
        fresh = []
        with farm._lock:
            farm._complete(farm.now(), acks, fresh)
        assert calls == [(acks,)]
        assert fresh == [r.payload * 2 for r in records]


class TestUnencodableValues:
    """A value the journal's codec refuses fails alone."""

    def test_an_unencodable_payload_is_refused_before_it_is_counted(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        farm = SupervisedFarm(echo_task, backend="thread", journal_path=path)
        try:
            appended = farm.journal.appended
            with pytest.raises(TypeError):
                farm.submit(threading.Lock())
            assert (farm.submitted, farm._next_sid, farm.journal.appended) == (0, 0, appended)
            farm.submit(5)
            assert farm.drain_results(1, timeout=30.0) == [5]
            assert farm.submitted == farm.completed == 1
        finally:
            farm.shutdown()
        assert journaled(path, "submit") == [{"ev": "submit", "sid": 0, "p": 5}]

    def test_an_unencodable_result_completes_as_a_failure(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        farm = SupervisedFarm(lock_task, backend="thread", journal_path=path)
        try:
            for payload in ("a", "lock", "b"):
                farm.submit(payload)
            results = farm.drain_results(3, timeout=30.0)
            assert all(w._thread.is_alive() for w in farm.farm.workers)
        finally:
            farm.shutdown()
        (error,) = [r for r in results if isinstance(r, Exception)]
        assert sorted(r for r in results if r is not error) == ["a", "b"]
        assert type(error) is RuntimeError and str(error).startswith("TypeError: ")
        assert sorted(journaled(path, "complete"), key=lambda e: e["sid"]) == [
            {"ev": "complete", "sid": 0, "ok": True, "v": "a"},
            {"ev": "complete", "sid": 1, "ok": False, "err": str(error)},
            {"ev": "complete", "sid": 2, "ok": True, "v": "b"},
        ]

    def test_the_rest_of_its_frame_completes(self, tmp_path):
        """One frame, one result the codec refuses: the frame goes one
        record per result, and only that one is journaled and delivered
        as a failure."""
        path = str(tmp_path / "j.jsonl")
        farm = SupervisedFarm(echo_task, backend="thread", journal_path=path)
        try:
            inner, fresh = farm.farm, []
            with inner._lock:
                inner._complete(
                    inner.now(), [(10, "x", False), (11, threading.Lock(), False),
                                  (12, "y", False)], fresh,
                )
            assert fresh[0] == "x" and fresh[2] == "y"
            assert type(fresh[1]) is RuntimeError and str(fresh[1]).startswith("TypeError: ")
            assert farm.completed == 3
        finally:
            farm.shutdown()
        assert journaled(path, "complete") == [
            {"ev": "complete", "sid": 10, "ok": True, "v": "x"},
            {"ev": "complete", "sid": 11, "ok": False, "err": str(fresh[1])},
            {"ev": "complete", "sid": 12, "ok": True, "v": "y"},
        ]


class TestSupervisorMonitor:
    def test_failing_failover_backs_off_is_counted_and_recovers(self, tmp_path, monkeypatch):
        """A rebuild that raises is neither swallowed nor retried every
        check_period: the error is kept and counted, the retries climb
        the backoff ladder, and the first success resets it."""
        from repro.runtime.supervision import supervisor as sup_module

        ladder = (0.05, 0.15, 5.0)
        monkeypatch.setattr(sup_module, "FAILOVER_BACKOFF", ladder)
        telemetry = Telemetry()
        farm = SupervisedFarm(
            supervised_task,
            backend="thread",
            journal_path=str(tmp_path / "j.jsonl"),
            telemetry=telemetry,
        )
        failover, attempts = farm.failover, []

        def flaky_failover():
            attempts.append(time.monotonic())
            if len(attempts) <= 2:
                raise RuntimeError(f"rebuild failed #{len(attempts)}")
            return failover()

        farm.failover = flaky_failover
        supervisor = Supervisor(farm, check_period=0.005, heartbeat_timeout=30.0).start()
        try:
            for i in range(4):
                farm.submit((0, i))
            supervisor.crash_coordinator()
            wait_until(lambda: supervisor.failovers == 1, message="the third attempt")
            assert supervisor.failover_errors == 2
            assert str(supervisor.last_error) == "rebuild failed #2"
            gaps = [b - a for a, b in zip(attempts, attempts[1:])]
            assert gaps[0] >= ladder[0] and gaps[1] >= ladder[1]
            errors = telemetry.metrics.get("repro_sup_failover_errors_total")
            assert errors.labels(farm="sfarm").value == 2
            farm.submit((0, 4))
            assert sorted(farm.drain_results(5, timeout=60.0)) == [i * i for i in range(5)]
        finally:
            supervisor.stop()
            farm.shutdown()
