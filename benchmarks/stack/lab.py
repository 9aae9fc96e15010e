"""The layer lab: every layer timed from outside, the same in every traced run.

A workload shows what the whole stack costs on one kind of traffic; the
lab says where such a cost can come from.  It has two parts:

* **the ladder** — the same 20k-task echo stream through nine stacks,
  each adding one layer to the rung it ``extends``, so the deltas along
  ``dist_bare → dist_sharded → dist_sharded_traced → dist_tenants →
  dist_managed`` sum to the top rung by construction;
* **probes** — calls into one layer's public functions in isolation
  (codec, journal, rules, admission, telemetry …) or against a rung's
  live farm (``snapshot`` under load, ``add_worker``, crash detection,
  failover).

Every number here is measured in every traced run, whatever the
workload, so a layer metric never reads "not applicable".
"""

import asyncio
import os
import statistics
import time

import kernels
import loadgen
import payloads
from workloads import (
    ADAPT_CEILING,
    ADAPT_FLOOR,
    ECHO_PROBE,
    OPEN_QUOTAS,
    TENANTS,
    WORKERS,
    Managed,
    Supervised,
    dist_farm,
    place_workers,
)

from repro.core.contracts import ThroughputRangeContract
from repro.core.policies import ManagersConstants, farm_rules
from repro.obs.export import prometheus_text
from repro.obs.telemetry import Telemetry
from repro.rules.beans import (
    ArrivalRateBean,
    DepartureRateBean,
    NumWorkerBean,
    QueueVarianceBean,
    RecordingSink,
)
from repro.rules.engine import RuleEngine
from repro.runtime.controller import FarmController
from repro.runtime.dist_proto import encode_frame_v4, read_frame
from repro.runtime.farm_runtime import ThreadFarm
from repro.runtime.hierarchy import FairShareScheduler, ShardedFarm, TenantRegistry
from repro.runtime.process_farm import ProcessFarm
from repro.runtime.supervision import DispatchJournal

LADDER_TASKS = 20_000
BATCH = 32


# a metric cell is (value, unit, n): n samples stand behind the value


def _median_us(fn, calls, rounds=5, per=1):
    """Median over ``rounds`` of the mean µs of ``calls`` back-to-back
    calls (each doing ``per`` operations)."""
    means = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        means.append((time.perf_counter() - t0) / (calls * per) * 1e6)
    return statistics.median(means), "us", rounds * calls * per


def _timed_ms(tracer, name, fn, calls):
    """Median ms of ``calls`` traced calls of ``fn``."""
    seconds = []
    for _ in range(calls):
        with tracer.span(name) as span:
            fn()
        seconds.append(span.seconds)
    return statistics.median(seconds) * 1e3, "ms", calls


def _wait_until(predicate, timeout=30.0, tick=None):
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            raise TimeoutError("lab probe timed out")
        if tick is not None:
            tick()
        time.sleep(0.002)


# ----------------------------------------------------------------------
# probes of one layer in isolation
# ----------------------------------------------------------------------


def probe_codec(seed):
    """dist_proto: one 32-entry ``task_batch`` of the workloads' own payloads."""

    def batch(stream):
        return {
            "type": "task_batch",
            "tasks": [{"task_id": i, "payload": p} for i, p in enumerate(stream.payloads[:BATCH])],
        }

    echo = batch(payloads.echo_stream(seed, BATCH))
    bulk = batch(payloads.bulk_stream(payloads.bulk_pool(seed)[:BATCH], BATCH))
    # JSON (the untrusted-worker fallback) carries tuples as lists
    echo_json = {"type": "task_batch", "tasks": [dict(t, payload=list(t["payload"])) for t in echo["tasks"]]}

    def decode_us(frame, codec, frames=200):
        async def read_all():
            reader = asyncio.StreamReader()
            reader.feed_data(frame * frames)
            reader.feed_eof()
            t0 = time.perf_counter()
            for _ in range(frames):
                message = await read_frame(reader, allowed=(codec,))
                if len(message["tasks"]) != BATCH:
                    raise RuntimeError("decoded task_batch lost entries")
            return (time.perf_counter() - t0) / frames * 1e6

        return statistics.median(asyncio.run(read_all()) for _ in range(5)), "us", 5 * frames

    out = {}
    for label, message, codec, calls in (
        ("echo", echo, "pickle", 2000),
        ("bulk", bulk, "pickle", 40),
        ("echo_json", echo_json, "json", 1000),
    ):
        frame = encode_frame_v4(message, codec=codec)
        out[f"dist_proto.encode_batch_us.{label}"] = _median_us(
            lambda: encode_frame_v4(message, codec=codec), calls
        )
        if label != "echo_json":
            out[f"dist_proto.decode_batch_us.{label}"] = decode_us(
                frame, codec, frames=200 if label == "echo" else 10
            )
            out[f"dist_proto.frame_bytes_per_task.{label}"] = (len(frame) / BATCH, "B", BATCH)
    return out


def probe_journal(seed, workdir):
    """supervision.journal: append (fsync every 32) and replay from disk."""
    path = os.path.join(workdir, "lab-journal.jsonl")
    stream = payloads.echo_stream(seed, 4000)
    journal = DispatchJournal(path, fsync_batch=32)
    try:
        samples = []
        for start in range(0, len(stream), 800):
            t0 = time.perf_counter()
            for i in range(start, start + 800):
                journal.append({"ev": "submit", "sid": i, "p": stream.payloads[i]})
            samples.append((time.perf_counter() - t0) / 800 * 1e6)
        for i in range(len(stream)):
            journal.append({"ev": "complete", "sid": i, "ok": True, "v": stream.expected[i]})
        journal.sync()
        size = os.path.getsize(path)
        t0 = time.perf_counter()
        state = journal.replay()
        replay_s = time.perf_counter() - t0
        if state.pending or len(state.completed) != len(stream):
            raise RuntimeError("journal replay disagrees with what was appended")
    finally:
        journal.close()
        os.unlink(path)
    return {
        "journal.append_us": (statistics.median(samples), "us", len(stream)),
        "journal.bytes_per_task": (size / len(stream), "B", len(stream)),
        "journal.replay_ms_per_kevent": (
            replay_s * 1e3 / (2 * len(stream) / 1000.0), "ms", 2 * len(stream)
        ),
    }


def probe_rules():
    """rules.engine over the Figure 5 set: a firing and a quiet evaluation."""
    consts = ManagersConstants(
        low=ADAPT_FLOOR, high=ADAPT_CEILING, max_workers=8
    )
    engine = RuleEngine(farm_rules(consts))
    sink = RecordingSink()

    def load(arrival, departure):
        for bean in (
            ArrivalRateBean(arrival),
            DepartureRateBean(departure),
            NumWorkerBean(3),
            QueueVarianceBean(0.0),
        ):
            engine.memory.replace(bean.bind_sink(sink))

    load(150.0, 150.0)
    if engine.evaluate():
        raise RuntimeError("a rule fired inside the contract")
    quiet = _median_us(engine.evaluate, 2000)
    load(150.0, 50.0)
    if "CheckRateLow" not in engine.evaluate():
        raise RuntimeError("CheckRateLow did not fire below the contract floor")
    firing = _median_us(engine.evaluate, 2000)
    return {
        "rules.evaluate_quiet_us": quiet,
        "rules.evaluate_firing_us": firing,
    }


def probe_tenants():
    """hierarchy.tenants: the admission gate and the fair-share pump."""
    telemetry = Telemetry()
    registry = TenantRegistry(telemetry=telemetry)
    for tenant in TENANTS:
        registry.register(tenant, 1e6, max_backlog=4096)
    names = [TENANTS[i % 3] for i in range(3000)]
    clock = iter(range(1, 1 << 30))

    def admit_all():
        now = next(clock) * 1.0
        for name in names:
            registry.admit(name, ECHO_PROBE, now)

    admit = _median_us(admit_all, 1, per=len(names))
    # drain the buckets, park a backlog, then time releasing it
    scheduler = FairShareScheduler(registry)
    samples = []
    for _ in range(5):
        for tenant in registry.tenants():
            tenant.tokens = 0.0
        now = next(clock) * 1.0
        for tenant in registry.tenants():
            tenant.last_refill = now
        for name in names:
            if registry.admit(name, ECHO_PROBE, now) != "queue":
                raise RuntimeError("a tenant with no tokens was not queued")
        for tenant in registry.tenants():
            tenant.tokens = tenant.burst
        t0 = time.perf_counter()
        released = scheduler.pump(now)
        if len(released) != len(names):
            raise RuntimeError("the fair-share pump left admissible tasks queued")
        samples.append((time.perf_counter() - t0) / len(released) * 1e6)
    return {
        "tenants.admit_us": admit,
        "tenants.pump_us_per_release": (statistics.median(samples), "us", 5 * len(names)),
    }


def probe_obs(tracer, managed):
    """obs: instruments alone, then scrape/evaluate/render/query on the
    registry the dist_managed rung just populated."""
    telemetry = Telemetry()

    def one_span():
        with telemetry.span("lab.span", actor="lab"):
            pass

    counter = telemetry.metrics.counter("lab_total", "probe counter")

    def one_inc():
        counter.labels(farm="lab").inc()

    out = {
        "obs.span_us": _median_us(one_span, 2000),
        "obs.counter_inc_us": _median_us(one_inc, 5000),
    }
    store = managed.telemetry.timeseries
    out["obs.scrape_ms"] = _timed_ms(tracer, "obs.scrape_once", store.scrape_once, 20)
    out["obs.slo_eval_ms"] = _timed_ms(tracer, "obs.slo_evaluate", managed.engine.evaluate, 20)
    out["obs.prometheus_render_ms"] = _timed_ms(
        tracer, "obs.prometheus_text", lambda: prometheus_text(managed.telemetry.metrics), 10
    )
    out["obs.query_ms"] = _timed_ms(
        tracer,
        "obs.query",
        lambda: store.query("repro_tenant_dispatched_total", since=-30.0, step=1.0),
        20,
    )
    return out


def probe_management(tracer):
    """controller + hierarchy management plane, driven by hand: an
    un-started controller's MAPE tick, and an un-started parent's tick
    and link poll over the TCP management wire."""
    out = {}
    farm = ThreadFarm(kernels.echo, initial_workers=WORKERS, rate_window=0.5)
    try:
        controller = FarmController(
            farm,
            ThroughputRangeContract(ADAPT_FLOOR, ADAPT_CEILING),
            control_period=0.1,
            max_workers=WORKERS,
        )
        out["controller.control_step_ms"] = _timed_ms(
            tracer, "controller.control_step", controller.control_step, 50
        )
    finally:
        farm.shutdown()
    parent = ShardedFarm(
        kernels.echo,
        contract=ThroughputRangeContract(1000.0, 1e6),
        shards=2,
        backend="thread",
        max_workers_total=2,
        control_period=0.1,
        over_wire=True,
        autostart=False,
    )
    try:
        out["sharded_farm.parent_step_ms"] = _timed_ms(
            tracer, "sharded_farm.parent_step", parent.parent_step, 50
        )
        out["hier_wire.poll_ms"] = _timed_ms(tracer, "hier_wire.poll", parent.links[0].poll, 50)
    finally:
        parent.shutdown()
    return out


# ----------------------------------------------------------------------
# probes against a rung's live farm (run after the rung's burst)
# ----------------------------------------------------------------------


def _add_worker_ms(tracer, name, farm):
    """``add_worker()`` call → the new worker's first result."""

    def flood():
        # least-loaded dispatch reaches the newcomer once its elders hold a batch each
        for _ in range(BATCH * (WORKERS + 1)):
            farm.submit(ECHO_PROBE)
        farm.drain_results(BATCH * (WORKERS + 1), timeout=30.0)

    with tracer.span(name) as span:
        handle = farm.add_worker()
        _wait_until(lambda: handle.reported_completed > 0, tick=flood)
    return span.seconds * 1e3, "ms", 1


def after_process_bare(tracer, farm):
    out = {"process_farm.add_worker_ms": _add_worker_ms(tracer, "process_farm.add_worker", farm)}
    with tracer.span("process_farm.crash_detect") as span:
        before = len(farm.crashes)
        farm.inject_crash()
        _wait_until(lambda: len(farm.crashes) > before)
    out["process_farm.crash_detect_ms"] = (span.seconds * 1e3, "ms", 1)
    return out


def after_dist_bare(tracer, farm):
    return {"dist_farm.add_worker_ms": _add_worker_ms(tracer, "dist_farm.add_worker", farm)}


def after_dist_supervised(tracer, stack):
    farm = stack.farm
    with tracer.span("supervisor.failover"):
        farm.crash_coordinator()
        farm.failover()
    farm.submit(ECHO_PROBE)
    farm.drain_results(1, timeout=30.0)
    return {"supervisor.failover_ms": (farm.last_failover_seconds * 1e3, "ms", 1)}


# ----------------------------------------------------------------------
# the ladder
# ----------------------------------------------------------------------


def measure(tracer, seed, seconds, workdir, tasks=LADDER_TASKS):
    """Run the whole lab; returns ``{metric: (value, unit, n)}``."""
    out = {}
    out.update(probe_codec(seed))
    out.update(probe_journal(seed, workdir))
    out.update(probe_rules())
    out.update(probe_tenants())
    out.update(probe_management(tracer))

    stream = payloads.echo_stream(seed, tasks)
    reps = max(1, min(5, int(seconds) // 12))

    def snapshotting(farm):
        """``submit`` that also samples ``snapshot()`` under the burst's load."""

        def submit(payload):
            farm.submit(payload)
            if payload[0] % 2048 == 1024:
                with tracer.span("dist_farm.snapshot"):
                    farm.snapshot()

        return submit

    #: (rung, factory, layer whose submit it times, submit wrapper,
    #:  probe to run on the live farm after the last rep)
    rungs = [
        ("thread_bare", lambda: ThreadFarm(kernels.echo, initial_workers=WORKERS),
         None, None, None),
        ("process_bare", lambda: ProcessFarm(kernels.echo, initial_workers=WORKERS),
         "process_farm", None, after_process_bare),
        ("dist_bare", lambda: dist_farm(kernels.echo),
         "dist_farm", snapshotting, after_dist_bare),
        ("dist_traced", lambda: dist_farm(kernels.echo, telemetry=Telemetry()),
         None, None, None),
        ("dist_supervised",
         lambda: Supervised(kernels.echo, workdir, backend="dist", workers=WORKERS),
         "supervisor", None, after_dist_supervised),
        ("dist_sharded", lambda: Managed(kernels.echo),
         "sharded_farm", None, None),
        ("dist_sharded_traced", lambda: Managed(kernels.echo, telemetry=True),
         None, None, None),
        ("dist_tenants", lambda: Managed(kernels.echo, telemetry=True, quotas=OPEN_QUOTAS),
         None, None, None),
        ("dist_managed",
         lambda: Managed(kernels.echo, telemetry=True, quotas=OPEN_QUOTAS, slo=True),
         None, None, probe_obs),
    ]
    for rung, factory, layer, wrap, probe in rungs:
        walls, submits, drains, shutdowns = [], [], [], []
        for rep in range(reps):
            with tracer.span(f"ladder.{rung}"):
                with tracer.span("harness.setup"):
                    stack = factory()
                    place_workers()
                try:
                    submit = wrap(stack) if wrap else None
                    with tracer.span(f"ladder.{rung}.burst"):
                        result = loadgen.burst(stack, stream, submit=submit)
                    if result["failed"]:
                        raise RuntimeError(f"ladder rung {rung} lost or corrupted results")
                    if probe and rep == reps - 1:
                        out.update(probe(tracer, stack))
                finally:
                    t0 = time.perf_counter()
                    with tracer.span("harness.shutdown"):
                        stack.shutdown()
                    shutdowns.append(time.perf_counter() - t0)
            walls.append(result["wall_s"])
            submits.append(result["submit_s"])
            drains.append(result["drain_wait_s"])
        out[f"ladder.{rung}.us_per_task"] = (
            statistics.median(walls) / tasks * 1e6, "us", reps
        )
        if layer:
            out[f"{layer}.submit_us"] = (
                statistics.median(submits) / tasks * 1e6, "us", reps * tasks
            )
        if rung == "dist_bare":
            snapshots = tracer.durations("dist_farm.snapshot", tracer.scope)
            out["dist_farm.drain_wait_s"] = (statistics.median(drains), "s", reps)
            out["dist_farm.shutdown_s"] = (statistics.median(shutdowns), "s", reps)
            out["dist_farm.snapshot_us"] = (
                statistics.median(snapshots) * 1e6, "us", len(snapshots)
            )
    return out


#: the rung each rung adds one layer to; along dist_bare → … → dist_managed
#: the deltas therefore sum to the top rung
EXTENDS = {
    "dist_traced": "dist_bare",
    "dist_supervised": "dist_bare",
    "dist_sharded": "dist_bare",
    "dist_sharded_traced": "dist_sharded",
    "dist_tenants": "dist_sharded_traced",
    "dist_managed": "dist_tenants",
}
