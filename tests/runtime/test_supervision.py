"""The dispatch journal and supervised failover, pinned down.

Three layers of guarantees:

* **DispatchJournal mechanics** — seq continuation across restarts,
  the group-commit durability contract (barrier, idle tail, SIGKILL,
  commit failure), torn-tail tolerance, closed-journal discipline;
* **replay as a pure fold** — the Hypothesis suite: for *any* valid
  event sequence and *any* crash point, replaying the prefix and then
  applying the suffix equals replaying the whole; the completed/pending
  sid sets partition exactly; quarantined-but-never-admitted workers
  stay on their side of the gate; duplicate completions never win;
* **SupervisedFarm end-to-end (thread)** — an explicit crash + failover
  round-trip delivers every task exactly once with the quarantine
  partition intact.  The full cross-backend story (process/dist standby
  takeover, partitions, faults inside the failover window) lives in the
  chaos tier of ``test_backend_conformance.py``.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Telemetry
from repro.runtime.supervision import (
    DispatchJournal,
    SupervisedFarm,
    Supervisor,
    read_journal,
    replay_events,
    run_tagged,
    tagged_envelope,
)

from .waiting import wait_until


def supervised_task(payload):
    """Module-level so the tagged runner can resolve it by name."""
    work, value = payload
    if work:
        time.sleep(work)
    return value * value


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

    def test_line_format_is_the_compact_dump_with_seq_last(self, tmp_path):
        path = tmp_path / "j.jsonl"
        events = [
            {"ev": "submit", "sid": 0, "p": [1, {"k": "é"}], "tenant": "t"},
            {"ev": "complete", "sid": 0, "ok": False, "err": "boom"},
            {},  # nothing to splice the seq into
            {"ev": "epoch", "seq": 99, "epoch": 1},  # a caller's seq is overwritten in place
        ]
        journal = DispatchJournal(str(path))
        for event in events:
            journal.append(event)
        journal.close()
        assert path.read_text().splitlines() == [
            json.dumps({**event, "seq": seq}, separators=(",", ":"))
            for seq, event in enumerate(events)
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
        lines = [
            json.dumps({"ev": "submit", "sid": 0, "p": 1, "seq": 0}),
            json.dumps({"ev": "submit", "sid": 1, "p": 2, "seq": 1}),
            '{"ev": "compl',  # the line the crash interrupted
        ]
        path.write_text("\n".join(lines))
        events = read_journal(str(path))
        assert [e["sid"] for e in events] == [0, 1]
        # recovery opens the same file and keeps numbering after the tear
        journal = DispatchJournal(str(path))
        assert journal.append({"ev": "submit", "sid": 2, "p": 3}) == 2
        journal.close()

    @pytest.mark.parametrize(
        "tail", ['{"ev": "compl', '{"ev": "worker", "wid": 0, "seq": 1}'],
        ids=["torn", "unterminated"],
    )
    def test_records_appended_after_a_tear_read_back(self, tmp_path, tail):
        """Reopening cuts the torn bytes off (or ends an intact line the
        crash left without its newline): the next record used to be glued
        onto them, and every read stopped there for good."""
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"ev": "submit", "sid": 0, "p": 1, "seq": 0}) + "\n" + tail)
        kept = len(read_journal(str(path)))
        journal = DispatchJournal(str(path))
        seqs = [journal.append({"ev": "submit", "sid": i, "p": i}) for i in range(1, 4)]
        journal.close()
        events = read_journal(str(path))
        assert [e["seq"] for e in events][kept:] == seqs == list(range(kept, kept + 3))
        # and a second recovery finds the same file it left
        DispatchJournal(str(path)).close()
        assert read_journal(str(path)) == events

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_journal(str(tmp_path / "absent.jsonl")) == []


# ----------------------------------------------------------------------
# the tagged envelope runner
# ----------------------------------------------------------------------


class TestTaggedRunner:
    def test_roundtrip(self):
        env = tagged_envelope(
            3, "tests.runtime.test_supervision:supervised_task", (0.0, 5)
        )
        out = run_tagged(env)
        assert out == {"sid": 3, "ok": True, "value": 25}

    def test_error_is_captured_not_raised(self):
        env = tagged_envelope(
            1, "tests.runtime.test_supervision:supervised_task", "not-a-pair"
        )
        out = run_tagged(env)
        assert out["sid"] == 1 and out["ok"] is False
        assert "error" in out


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
        """A journal torn mid-line replays exactly the intact prefix."""
        path = tmp_path_factory.mktemp("journal") / "torn.jsonl"
        keep = events[: min(cut, len(events))]
        text = "".join(
            json.dumps(dict(e, seq=i), separators=(",", ":")) + "\n"
            for i, e in enumerate(keep)
        )
        path.write_text(text + '{"ev":"submit","sid"')
        recovered = replay_events(read_journal(str(path)))
        expected = replay_events(keep)
        assert recovered == expected


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
            assert gated.dispatched == 0
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

    def test_pump_delivers_a_queued_burst_in_bounded_batches(self, tmp_path):
        """Results already queued when the pump wakes are delivered under
        one hold of the supervisor lock (at most PUMP_BATCH of them) —
        exactly once, in queue order, one ``complete`` line each."""
        from repro.runtime.supervision import supervisor as sup_module

        farm = SupervisedFarm(
            supervised_task,
            backend="thread",
            journal_path=str(tmp_path / "j.jsonl"),
            initial_workers=2,
        )
        try:
            total = sup_module.PUMP_BATCH + 44
            with farm._lock:
                farm._pump_gen += 1  # retire the running pump
            wait_until(
                lambda: not any(t.name == "sfarm-pump-e0" for t in threading.enumerate()),
                message="the first pump to exit",
            )
            for i in range(total):
                farm.submit((0, i))
            inner = farm.farm.results
            wait_until(lambda: inner.qsize() == total, message="every result queued")
            queued = [res["sid"] for res in inner.queue]

            holds, held_in = [0], []
            journal_deaths, deliver = farm._journal_deaths, farm._deliver

            def count_hold(f):  # called once per hold of the lock, before delivering
                holds[0] += 1
                journal_deaths(f)

            def record_hold(res):
                held_in.append(holds[0])
                deliver(res)

            farm._journal_deaths, farm._deliver = count_hold, record_hold
            farm._start_pump()
            assert farm.drain_results(total, timeout=60.0) == [sid * sid for sid in queued]
            assert held_in == [1] * sup_module.PUMP_BATCH + [2] * 44
            assert farm.completed == total and farm.duplicates == 0
            farm.journal.sync()
            completes = [e["sid"] for e in read_journal(farm.journal.path) if e["ev"] == "complete"]
            assert completes == queued
        finally:
            farm.shutdown()


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
