"""The traced, counted data path: what it may cost and what it must keep.

* a traced ``DistFarm`` burst hashes nothing and resolves no label set —
  ids are hashed when the store is read, instruments are bound at
  construction and when a worker is registered (exact counts);
* counters stay exact when dispatch is counted per batch, per farm and
  per tenant;
* the exec timing a worker stamps on a result entry is peer input: a
  malformed one is dropped, the result still counts, the connection
  lives, nothing raises in the loop thread — on every codec the
  interpreter has, and on a ``ProcessFarm``'s socketpair as on TCP.
"""

import asyncio
import hashlib
import socket

import pytest

from repro.core.contracts import ThroughputRangeContract
from repro.obs.metrics import MetricFamily
from repro.obs.propagation import stable_span_id
from repro.obs.telemetry import Telemetry
from repro.runtime.dist_farm import DistFarm
from repro.runtime.dist_proto import (
    PROTOCOL_VERSION,
    available_codecs,
    encode_frame_v4,
    read_frame,
    read_frame_blocking,
)
from repro.runtime.dist_worker import greeting
from repro.runtime.hierarchy import ShardedFarm, TenantRegistry
from repro.runtime.process_farm import ProcessFarm

from .test_dist_farm import dist_task
from .test_dist_proto_v4 import attach_v4, patient_farm
from .waiting import wait_until

#: labels() calls a DistFarm makes: five farm-wide data-path children at
#: construction, then the completed-tasks gauge and one quarantine-gauge
#: refresh per registered worker
FARM_BINDS, BINDS_PER_WORKER = 5, 2


def counter_value(tel, name, **labels):
    family = tel.metrics.get(name)
    assert family is not None, f"{name} never registered"
    return family.labels(**labels).value


@pytest.fixture
def calls(monkeypatch):
    """Count ``hashlib.sha256`` and ``MetricFamily.labels`` calls."""
    seen = {"sha256": 0, "labels": 0}
    real_sha256, real_labels = hashlib.sha256, MetricFamily.labels

    def sha256(*args, **kwargs):
        seen["sha256"] += 1
        return real_sha256(*args, **kwargs)

    def labels(self, **kwargs):
        seen["labels"] += 1
        return real_labels(self, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", sha256)
    monkeypatch.setattr(MetricFamily, "labels", labels)
    return seen


class TestHotPathGuard:
    def test_traced_burst_hashes_nothing_and_binds_per_worker(self, calls):
        workers, total = 2, 1000
        tel = Telemetry()
        farm = DistFarm(
            dist_task,
            initial_workers=workers,
            max_inflight=64,
            batch_size=32,
            telemetry=tel,
        )
        try:
            assert calls["labels"] == FARM_BINDS + BINDS_PER_WORKER * workers
            for i in range(total):
                farm.submit((0.0, i))
            results = farm.drain_results(total, timeout=60.0)
            assert sorted(results) == [i * i for i in range(total)]
            assert calls["sha256"] == 0
            assert calls["labels"] == FARM_BINDS + BINDS_PER_WORKER * workers
            # every task still left its three spans, batched wire or not
            for name in ("task", "task.dispatch", "task.exec"):
                assert len(tel.spans.named(name)) == total, name
            assert calls["sha256"] == 0  # names and counts are not ids
            # reading an id is what hashes it — to the pinned value
            root = tel.spans.named("task")[0]
            assert root.span_id == stable_span_id(f"{farm.name}/task/0")
            assert calls["sha256"] > 0
        finally:
            farm.shutdown()

    def test_untraced_farm_pays_for_neither(self, calls):
        farm = DistFarm(dist_task, initial_workers=1, max_inflight=16, batch_size=8)
        try:
            for i in range(100):
                farm.submit((0.0, i))
            farm.drain_results(100, timeout=60.0)
            assert calls == {"sha256": 0, "labels": 0}
        finally:
            farm.shutdown()


class TestCountersStayExact:
    def test_dist_dispatch_total_after_batched_dispatch(self):
        tel = Telemetry()
        total = 500
        farm = DistFarm(
            dist_task, initial_workers=2, max_inflight=32, batch_size=16, telemetry=tel
        )
        try:
            for i in range(total):
                farm.submit((0.0, i))
            farm.drain_results(total, timeout=60.0)
            name = farm.name
            assert counter_value(tel, "repro_mc_dispatch_total", farm=name) == total
            assert (
                counter_value(tel, "repro_mc_insecure_dispatch_total", farm=name)
                == total
            )
            assert sum(w.dispatched for w in farm.workers) == total
            batched = counter_value(tel, "repro_dist_batched_tasks_total", farm=name)
            assert 0 < batched <= total
            completed = tel.metrics.get("repro_dist_worker_completed_tasks")
            wait_until(
                lambda: sum(g.value for _, g in completed.samples()) == total,
                message="worker-reported completions to reach the gauges",
            )
        finally:
            farm.shutdown()

    def test_per_tenant_totals_through_the_shard_tree(self):
        tel = Telemetry()
        registry = TenantRegistry(telemetry=tel)
        offered = {"t0": 40, "t1": 25, "t2": 10}
        for tenant in offered:
            registry.register(tenant, 1e6)  # quota never binds
        farm = ShardedFarm(
            dist_task,
            contract=ThroughputRangeContract(1.0, 1e6),
            shards=2,
            backend="thread",
            max_workers_total=2,
            registry=registry,
            telemetry=tel,
            name="hp",
        )
        try:
            for tenant, n in offered.items():
                for i in range(n):
                    assert farm.submit((0.0, i), tenant=tenant) == "accept"
            total = sum(offered.values())
            farm.drain_results(total, timeout=60.0)
            for tenant, n in offered.items():
                for metric in ("submitted", "admitted", "dispatched"):
                    assert (
                        counter_value(tel, f"repro_tenant_{metric}_total", tenant=tenant)
                        == n
                    ), (tenant, metric)
                for metric in ("queued", "rejected"):
                    assert (
                        counter_value(tel, f"repro_tenant_{metric}_total", tenant=tenant)
                        == 0
                    )
            dispatched = sum(
                counter_value(tel, "repro_mc_dispatch_total", farm=f"hp-s{i}")
                for i in range(2)
            )
            assert dispatched == total
        finally:
            farm.shutdown()


class TestExecTimingIsPeerInput:
    # a scripted peer is a remote attacher: it never gets pickle (the real
    # workers of the guard test above carry the timing over that codec)
    @pytest.mark.parametrize("codec", [c for c in available_codecs() if c != "pickle"])
    def test_malformed_timing_is_dropped_and_the_task_completes(self, codec):
        tel = Telemetry()
        farm = patient_farm(max_inflight=8, batch_size=8, telemetry=tel)
        hostile = ["1.5", [1.0, 2.0], ["a", "b", "c"], {"start": 1.0}, [None, 2.0, 3]]
        total = len(hostile) + 1
        try:

            async def go():
                reader, writer, _ = await attach_v4(
                    farm.port,
                    {"type": "hello", "worker_id": -1, "proto": PROTOCOL_VERSION,
                     "codecs": [codec]},
                )
                for i in range(total):
                    farm.submit((0.0, i))
                tasks = []
                while len(tasks) < total:
                    frame = await read_frame(reader)
                    assert frame["type"] in ("task", "task_batch")
                    assert frame["traced"] is True  # one flag, no per-task context
                    for task in frame.get("tasks") or [frame]:
                        assert "tp" not in task and "traceparent" not in task
                        tasks.append(task)
                tasks.sort(key=lambda t: t["task_id"])
                results = [
                    {"task_id": t["task_id"], "value": t["payload"][1] ** 2, "t": bad}
                    for t, bad in zip(tasks, hostile)
                ]
                last = tasks[-1]
                results.append(
                    {"task_id": last["task_id"], "value": last["payload"][1] ** 2,
                     "t": (10.0, 12.5, 4242)}
                )
                writer.write(
                    encode_frame_v4(
                        {"type": "result_batch", "results": results, "completed": total},
                        codec=codec,
                    )
                )
                await writer.drain()
                # the session survived the hostile entries: it still serves
                farm.submit((0.0, 9))
                frame = await read_frame(reader)
                assert frame["type"] == "task"
                writer.write(
                    encode_frame_v4(
                        {"type": "result", "task_id": frame["task_id"], "value": 81,
                         "completed": total + 1},
                        codec=codec,
                    )
                )
                await writer.drain()
                writer.close()

            asyncio.run(go())
            out = farm.drain_results(total + 1, timeout=30.0)
            assert sorted(out) == sorted([i * i for i in range(total)] + [81])
            assert farm.completed == total + 1 and farm.duplicates == 0
            (run,) = tel.spans.named("task.exec")
            assert (run.start, run.end) == (10.0, 12.5)
            assert run.attributes == {"worker": 0, "pid": 4242, "outcome": "ok"}
            dispatch = next(
                s for s in tel.spans.named("task.dispatch")
                if s.span_id == run.parent_id
            )
            assert run.span_id == stable_span_id(f"exec:0:{dispatch.span_id}")
            assert run.actor == "dworker-0"
        finally:
            farm.shutdown()

    def test_a_process_farm_drops_malformed_timing_the_same_way(self):
        """The same coordinator reads a forked worker's acks: here the
        peer is this test, holding the far end of a socketpair."""
        tel = Telemetry()
        farm = ProcessFarm(abs, initial_workers=1, heartbeat_timeout=30.0, telemetry=tel)
        hostile = ["1.5", [1.0, 2.0], ["a", "b", "c"], {"start": 1.0}, [None, 2.0, 3]]
        total = len(hostile) + 1
        ours, theirs = socket.socketpair()
        try:
            with farm._lock:
                farm.workers[0].quarantined = True  # the scripted peer serves alone
            theirs.sendall(greeting("hello", -1, ("pickle",)))
            session = asyncio.run_coroutine_threadsafe(farm._attach(ours), farm._loop)
            rfile = theirs.makefile("rb")
            welcome = read_frame_blocking(rfile)
            assert (welcome["type"], welcome["codec"]) == ("welcome", "pickle")
            peer = welcome["worker_id"]
            for i in range(total):
                farm.submit(-i)
            tasks = []
            while len(tasks) < total:
                frame = read_frame_blocking(rfile)
                assert frame["traced"] is True
                tasks.extend(frame.get("tasks") or [frame])
            tasks.sort(key=lambda t: t["task_id"])
            results = [
                {"task_id": t["task_id"], "value": abs(t["payload"]), "t": bad}
                for t, bad in zip(tasks, hostile)
            ]
            last = tasks[-1]
            results.append(
                {"task_id": last["task_id"], "value": abs(last["payload"]),
                 "t": (10.0, 12.5, 4242)}
            )
            theirs.sendall(
                encode_frame_v4(
                    {"type": "result_batch", "results": results, "completed": total},
                    codec="pickle",
                )
            )
            assert sorted(farm.drain_results(total, timeout=30.0)) == list(range(total))
            assert farm.completed == total and farm.duplicates == 0
            (run,) = tel.spans.named("task.exec")
            assert (run.start, run.end) == (10.0, 12.5)
            assert run.attributes == {"worker": peer, "pid": 4242, "outcome": "ok"}
            assert run.actor == f"dworker-{peer}"
            # the session survived the hostile entries: it still serves
            farm.submit(-9)
            frame = read_frame_blocking(rfile)
            assert frame["type"] == "task" and frame["payload"] == -9
            assert not session.done()
        finally:
            theirs.close()
            farm.shutdown()
