"""The four workloads, and the stacks they (and the layer lab) build.

Sized for a 2-core sandbox: every farm runs 2 workers, the load
generator is one process with a feeding and a draining thread, and the
one workload that needs more workers (``adapt_recover``) gives them
sleep kernels.  A workload is three kinds of phase over *fresh* farms:
set-up (constructor call → first probe result, once per farm), burst
(a fixed stream flat out, in closed segments of ~100 ms) and paced (open
loop on a 1 ms tick schedule).  ``--seconds`` buys repetitions and paced
seconds; it never changes a stream's size or rate.
"""

import os
import resource
import signal
import statistics
import time

import kernels
import loadgen
import payloads
from stats import percentile, summary

from repro.core.contracts import ThroughputRangeContract
from repro.obs.slo import SLOEngine, slos_for_sharded
from repro.obs.telemetry import Telemetry
from repro.runtime.dist_farm import DistFarm
from repro.runtime.hierarchy import ShardedFarm, TenantRegistry
from repro.runtime.supervision import SupervisedFarm, Supervisor

WORKERS = 2
#: the tuned v4 data plane the legacy BENCH_dist also uses
DIST_TUNING = dict(max_inflight=64, batch_size=32)
#: fault detection as tuned in the chaos tier of the conformance suite
FAULT_TUNING = dict(
    heartbeat_period=0.05,
    heartbeat_timeout=2.0,
    supervise_period=0.02,
    backoff_base=0.02,
    backoff_cap=0.2,
)
#: how long the coordinator's heartbeat may stay silent before the
#: Supervisor declares a wedge.  No workload wedges a coordinator — an
#: injected crash raises the farm's ``crashed`` flag and is seen within one
#: ``check_period`` — so this only has to outlast the stalls of a shared
#: box: at the chaos tier's 0.5 s a busy host sets off failovers nobody
#: injected, each one re-forking every worker the journal knows of.
SUPERVISOR_HEARTBEAT_TIMEOUT = 5.0
#: the SupervisedFarm's own worker cap, out of the scenario's way: the
#: journal never learns of worker deaths, so a failover rebuilds every
#: worker ever admitted and must not hit a cap while doing so (the
#: manager's growth is capped on the Supervisor, at ADAPT_MAX_WORKERS)
SUPERVISED_FARM_CAP = 1024
#: the paced phase lasts this share of ``--seconds``
PACED_SHARE = 0.5
#: latency percentiles are taken per window of due time, then a quantile
#: over the windows is reported (see loadgen.windowed)
WINDOW_S = 0.5

ECHO_PROBE = (0, 0, 0, 0, 0, 0, 0, 0)

TENANTS = ("t0", "t1", "t2")
#: ten consecutive tasks of the managed paced stream: t0 and t1 offer
#: 3/10 of 1250/s each (375/s, inside their 750/s quota), the noisy t2
#: offers 4/10 (500/s against a 250/s quota)
TENANT_PATTERN = (0, 1, 2, 0, 1, 2, 0, 1, 2, 2)
MANAGED_RATE = 1250
NOISY = 2
#: (quota tasks/s, max_backlog) per tenant
PACED_QUOTAS = ((750.0, 1024), (750.0, 1024), (250.0, 256))
OPEN_QUOTAS = ((1e6, 1024),) * 3  # burst phase: all three tenants in quota

ADAPT_RATE = 150
ADAPT_FLOOR = 130.0
ADAPT_CEILING = 400.0
ADAPT_MAX_WORKERS = 8
ADAPT_FAULT_EVERY_S = 1.5
ADAPT_RAMP_S = 2 * ADAPT_FAULT_EVERY_S  # whole latency windows before the first fault
ADAPT_FEED_SHARE = 0.8

#: per-layer counts that only one workload's scenario produces; the other
#: workloads report 0 — the layer did no such work there
SCENARIO_COUNTS = {
    "tenants.noisy_queued": "count",
    "tenants.noisy_rejected": "count",
    "tenants.fair_share_error": "ratio",
    "sharded_farm.shard_skew": "ratio",
    "obs.spans_per_task": "ratio",
    "obs.series_count": "count",
    "supervisor.failovers": "count",
    "supervisor.redispatched": "count",
    "adapt.worker_fault_out_ticks": "count",
    "adapt.coord_fault_out_ticks": "count",
}


# ----------------------------------------------------------------------
# stacks: what a workload (or a ladder rung) builds and tears down
# ----------------------------------------------------------------------


def dist_farm(kernel, telemetry=None, name="dfarm"):
    return DistFarm(
        kernel, initial_workers=WORKERS, telemetry=telemetry, name=name, **DIST_TUNING
    )


class Managed:
    """The full managed data path behind one ``submit``/``drain_results``.

    Two 1-worker DistFarm shards under a parent manager speaking the TCP
    management plane, optionally with telemetry, a tenant registry, and
    the TSDB scraper + SLO engine compiled from the contract.
    """

    def __init__(self, kernel, *, telemetry=False, quotas=None, slo=False, name="hfarm"):
        self.telemetry = Telemetry() if telemetry else None
        self.registry = None
        if quotas is not None:
            self.registry = TenantRegistry(telemetry=self.telemetry)
            for tenant, (quota, backlog) in zip(TENANTS, quotas):
                self.registry.register(tenant, quota, max_backlog=backlog)
        self.farm = ShardedFarm(
            kernel,
            contract=ThroughputRangeContract(1000.0, 1e6),
            shards=2,
            backend="dist",
            initial_workers_per_shard=1,
            max_workers_total=2,
            control_period=0.1,
            registry=self.registry,
            telemetry=self.telemetry,
            name=name,
            shard_kwargs=dict(DIST_TUNING, rate_window=0.5),
        )
        self.engine = None
        if slo:
            store = self.telemetry.start_timeseries(
                interval=0.1, retention=120.0, scraper_thread=True
            )
            self.engine = SLOEngine(
                self.telemetry, store, slos_for_sharded(self.farm, rate_window=1.0)
            )
        self.drain_results = self.farm.drain_results
        if self.registry is None:
            self.submit = self.farm.submit
        self.rejected = [0, 0, 0]

    def submit(self, payload):
        """Route task i to its tenant; False when admission rejects it."""
        tenant = TENANT_PATTERN[payload[0] % 10]
        if self.farm.submit(payload, tenant=TENANTS[tenant]) == "reject":
            self.rejected[tenant] += 1
            return False
        return True

    def shutdown(self):
        if self.telemetry is not None:
            self.telemetry.stop_timeseries()
        self.farm.shutdown()


class Supervised:
    """A journaled SupervisedFarm, optionally under a Supervisor enforcing
    the paper's throughput-range contract with the Figure 5 rules."""

    def __init__(self, kernel, workdir, *, backend, workers, contract=None, telemetry=None,
                 name="sfarm"):
        options = dict(rate_window=0.5)
        if backend != "thread":
            options.update(FAULT_TUNING)
        if backend == "dist":
            options.update(DIST_TUNING)
        self.journal_path = os.path.join(workdir, f"{name}-{time.monotonic_ns()}.jsonl")
        self.farm = SupervisedFarm(
            kernel,
            backend=backend,
            journal_path=self.journal_path,
            name=name,
            initial_workers=workers,
            max_workers=SUPERVISED_FARM_CAP,
            telemetry=telemetry,
            farm_options=options,
        )
        self.supervisor = None
        if contract is not None:
            self.supervisor = Supervisor(
                self.farm,
                contract=contract,
                control_period=0.1,
                check_period=0.02,
                heartbeat_timeout=SUPERVISOR_HEARTBEAT_TIMEOUT,
                max_workers=ADAPT_MAX_WORKERS,
            ).start()
        self.submit = self.farm.submit
        self.drain_results = self.farm.drain_results

    def shutdown(self):
        if self.supervisor is not None:
            self.supervisor.stop()
        self.farm.shutdown()
        os.unlink(self.journal_path)


def kill_workers(farm, victims):
    """SIGKILL ``victims`` at an instant none of them is sending a result.

    A ProcessFarm's workers share one ``multiprocessing`` result queue,
    and a process killed inside that queue's write lock leaves it locked
    for good: every other worker, and every worker spawned later, then
    blocks on its first result and the farm never delivers again (README,
    findings).  Holding the lock while the victims die rules that instant
    out — a few µs of each send, but thousands of kills in the driver's
    runs; detection, replay and regrowth after the deaths are the farm's
    own.  A farm without such a queue is killed without ceremony.
    """
    pids = [pid for pid in (victim.pid for victim in victims) if pid is not None]
    if not pids:
        return
    lock = getattr(getattr(farm, "_result_q", None), "_wlock", None)
    # bounded: a lock already lost to some other death must not hang the fault
    held = lock is not None and lock.acquire(timeout=1.0)
    try:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # already gone: the previous fault's doing
        for pid in pids:
            try:  # dead, but left for the farm to reap
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            except ChildProcessError:
                pass  # the farm's supervision got there first
    finally:
        if held:
            lock.release()


#: the CPUs this run may use: the harness — feeder, drainer and every
#: coordinator thread, one GIL between them — keeps to the first, the
#: workers to the rest.  Left to itself the scheduler moves the three to
#: five busy processes of a farm between two cores at will, and where they
#: land decides the numbers: the same burst ran 60–90k tasks/s unpinned and
#: 101–117k pinned (README, sizing rule).  One CPU: nothing to place.
_CPUS = sorted(os.sched_getaffinity(0))


def pin_harness():
    """Before any thread exists, so that every later one inherits it."""
    if len(_CPUS) > 1:
        try:
            os.sched_setaffinity(0, _CPUS[:1])
        except OSError:
            del _CPUS[1:]  # not allowed here: run unplaced


def place_workers():
    """Move every child process — a farm's workers, which inherited the
    harness's CPU when they were spawned — to the workers' CPUs."""
    if len(_CPUS) < 2:
        return
    for pid in child_pids():
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                os.sched_setaffinity(int(tid), _CPUS[1:])
        except OSError:
            pass  # gone between the listing and the call


def cpu_seconds():
    """CPU this process and every child it has reaped have used so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def child_pids():
    """Every live child process of this one (the farms' workers)."""
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                pids += [int(pid) for pid in handle.read().split()]
        except OSError:
            pass  # the thread ended between the listing and the read
    return pids


def cpu_seconds_live():
    """:func:`cpu_seconds` plus what the workers still running have used:
    the on-CPU time of each of their threads, in ns, from ``schedstat``."""
    running = 0
    for pid in child_pids():
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                    running += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass  # gone between the listing and the read
    return cpu_seconds() + running * 1e-9


def fault_counts(stack):
    """Replays, suppressed duplicates and dead letters of a stack's farms."""
    farm = getattr(stack, "farm", stack)
    if isinstance(farm, ShardedFarm):
        farms = [shard.farm for shard in farm.shards]
    elif isinstance(farm, SupervisedFarm):
        farms = [farm, farm.farm]  # the supervisor's dedup + the live incarnation
    else:
        farms = [farm]
    return {
        "replays": sum(getattr(f, "replays", 0) for f in farms),
        "duplicates": sum(getattr(f, "duplicates", 0) for f in farms),
        "dead_letters": sum(len(getattr(f, "dead_letters", ())) for f in farms),
    }


# ----------------------------------------------------------------------
# the phases
# ----------------------------------------------------------------------


class Run:
    """One workload run: its budget, its tracer, and what it measured."""

    def __init__(self, workload, seed, seconds, tracer, workdir, quick=False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.quick = quick
        self.attempted = 0
        self.failed = 0
        self.setups = []
        self.shutdowns = []
        self.faults = {"replays": 0, "duplicates": 0, "dead_letters": 0}
        self.end_to_end = {}
        self.samples = {}  # end-to-end metric → how many samples stand behind it
        self.layers = {}
        self.detail = {}

    def scope(self, phase, rep=0):
        self.tracer.scope = f"{self.workload}/{phase}/{rep}"

    def size(self, tasks):
        """A stream's size: fixed, except that a smoke run takes a tenth."""
        return tasks // 10 if self.quick else tasks

    def reps(self, at_20_seconds):
        """Burst repetitions: what ``--seconds`` buys, never fewer than
        three.  Fixed by the arguments, not by how fast the machine turns
        out to be, so a run always does the same work."""
        if self.quick:
            return 2
        return max(3, round(at_20_seconds * self.seconds / 20.0))

    def paced_seconds(self):
        return max(2.0, self.seconds * PACED_SHARE)

    def build(self, factory, probe):
        """Constructor call → first probe result, timed as set-up."""
        t0 = time.perf_counter()
        with self.tracer.span("harness.setup"):
            stack = factory()
            place_workers()
            try:
                stack.submit(probe)
                stack.drain_results(1, timeout=30.0)
            except BaseException:
                stack.shutdown()
                raise
        self.setups.append(time.perf_counter() - t0)
        return stack

    def teardown(self, stack):
        for key, count in fault_counts(stack).items():
            self.faults[key] += count
        t0 = time.perf_counter()
        with self.tracer.span("harness.shutdown"):
            stack.shutdown()
        self.shutdowns.append(time.perf_counter() - t0)

    def account(self, phase):
        self.attempted += phase["tasks"]
        self.failed += phase["failed"]

    # -- burst ---------------------------------------------------------
    def burst_phase(self, factory, probe, stream, span, reps, segment):
        """``reps`` fresh farms, the whole stream flat out through each, in
        closed bursts of ``segment`` tasks (see :func:`loadgen.burst`).

        The run's rate is its **fastest segment**, its CPU cost the
        **cheapest** one: a neighbour on the host only ever takes time
        away, in bursts that spoil some 100 ms segments and not others,
        while a change to the program moves every segment alike.

        A traced run alternates traced and untraced reps on the same
        stream, so the tracing overhead is measured inside one run.
        """
        payloads.self_test(stream)
        done = []
        for rep in range(reps):
            traced = self.tracer.enabled and rep % 2 == 0
            self.scope("burst", rep)
            with self.tracer.span("harness.burst_rep"):
                stack = self.build(factory, probe)
                try:
                    result = loadgen.burst(
                        stack,
                        stream,
                        segment=segment,
                        cpu=cpu_seconds_live,
                        tracer=self.tracer if traced else loadgen.OFF,
                        span=span,
                    )
                finally:
                    self.teardown(stack)
            self.account(result)
            result["traced"] = traced
            done.append(result)

        def rates(results):
            return [n / wall for r in results for n, wall, _cpu in r["segments"]]

        plain = [r for r in done if not r["traced"]]
        self.end_to_end["burst_tasks_per_s"] = max(rates(plain))
        self.end_to_end["cpu_s_per_ktask"] = min(
            cpu * 1000.0 / n for r in plain for n, _wall, cpu in r["segments"]
        )
        self.samples["burst_tasks_per_s"] = self.samples["cpu_s_per_ktask"] = len(rates(plain))
        self.detail["burst_reps"] = [
            {k: r[k] for k in
             ("tasks", "wall_s", "submit_s", "drain_wait_s", "traced", "failed", "segments")}
            for r in done
        ]
        if self.tracer.enabled:
            traced_reps = [r for r in done if r["traced"]]
            # a cell is (value, unit) or (value, unit, n samples behind it).
            # Typical segment against typical segment: the two sides have
            # different numbers of segments, which a best-of would favour
            self.layers["harness.trace_overhead_share"] = (
                1.0 - statistics.median(rates(traced_reps)) / statistics.median(rates(plain)),
                "ratio",
                len(rates(traced_reps)),
            )
            self.layers["workload.submit_us"] = (
                statistics.median(r["submit_s"] / r["tasks"] for r in traced_reps) * 1e6,
                "us",
                sum(r["tasks"] for r in traced_reps),
            )
            self.layers["workload.drain_wait_s"] = (
                statistics.median(r["drain_wait_s"] for r in traced_reps),
                "s",
                len(traced_reps),
            )

    # -- paced ---------------------------------------------------------
    def paced_phase(self, stack, stream, rate, span, *, window_s=WINDOW_S, keep=None,
                    floor=None, chaos=None):
        """One open-loop feed; returns the raw run for workload extras."""
        self.scope("paced")
        payloads.self_test(stream)
        with self.tracer.span("harness.paced_feed"):
            run = loadgen.paced(stack, stream, rate, tracer=self.tracer, span=span, chaos=chaos)
        self.account(run)
        samples = loadgen.latencies_ms(run, keep)
        windows = loadgen.windowed(samples, window_s, (50, 95))
        if not windows:
            raise RuntimeError("paced phase delivered too few results to report")
        # the lower-quartile window: neighbours on this box only ever add
        # latency, and a change to flush or batching delay moves every
        # window alike; the single best window is itself an outlier
        medians = sorted(w[0] for w in windows)
        self.end_to_end["paced_latency_p50_ms"] = medians[len(medians) // 4]
        lat = sorted(latency for _offset, latency in samples)
        self.samples["paced_latency_p50_ms"] = len(lat)
        self.detail["paced_latency_ms"] = summary(lat)
        self.detail["paced_windows_p50_p95_ms"] = windows
        if self.tracer.enabled:
            late = sorted(x * 1000.0 for x in run["late"])
            # without a contract of its own a feed is held to 90% of
            # what it owed (an over-quota reject owes nothing)
            converged, ticks = loadgen.out_of_contract(
                run, floor if floor is not None else 0.9 * sum(run["owed"]) / run["feed_s"]
            )
            submits = self.tracer.durations(span, self.tracer.scope)
            self.layers.update(
                {
                    "paced.latency_p50_ms": (
                        statistics.median(w[0] for w in windows), "ms", len(lat)
                    ),
                    "paced.latency_p95_ms": (
                        statistics.median(w[1] for w in windows), "ms", len(lat)
                    ),
                    "paced.latency_p99_ms": (percentile(lat, 99), "ms", len(lat)),
                    "loadgen.late_p99_ms": (percentile(late, 99), "ms", len(late)),
                    "loadgen.late_max_ms": (late[-1], "ms", len(late)),
                    "paced.time_to_contract_s": (
                        converged if converged is not None else run["feed_s"],
                        "s",
                        1,
                    ),
                    "paced.out_of_contract_ticks": (
                        sum(1 for _t, ok in ticks if not ok),
                        "count",
                        len(ticks),
                    ),
                    "workload.submit_max_ms": (max(submits) * 1e3, "ms", len(submits)),
                }
            )
        return run

    def finish(self):
        self.end_to_end["setup_s"] = statistics.median(self.setups)
        self.samples["setup_s"] = len(self.setups)
        if self.tracer.enabled:
            self.layers["workload.shutdown_s"] = (
                statistics.median(self.shutdowns), "s", len(self.shutdowns)
            )
            for key, count in self.faults.items():
                self.layers[f"workload.{key}"] = (count, "count")
            for name, unit in SCENARIO_COUNTS.items():
                self.layers.setdefault(name, (0, unit))


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------


def _stream_workload(run, kernel, probe, burst_stream, reps, segment, paced_stream, rate):
    def factory():
        return dist_farm(kernel)

    run.burst_phase(factory, probe, burst_stream, "dist_farm.submit", reps, segment)
    stack = run.build(factory, probe)
    try:
        run.paced_phase(stack, paced_stream, rate, "dist_farm.submit")
    finally:
        run.teardown(stack)


def echo_dist(run, kernel=kernels.echo):
    """Per-message cost: zero-work kernel, 8-int payloads, bare DistFarm."""
    rate = 5000
    _stream_workload(
        run,
        kernel,
        ECHO_PROBE,
        payloads.echo_stream(run.seed, run.size(150_000)),
        run.reps(4),
        10_000,
        payloads.echo_stream(run.seed + 1, int(rate * run.paced_seconds())),
        rate,
    )


def bulk_dist(run):
    """Per-byte cost: 64 KiB payloads through the same bare DistFarm."""
    rate = 500
    pool = payloads.bulk_pool(run.seed)
    _stream_workload(
        run,
        kernels.bulk,
        (0, pool[0]),
        payloads.bulk_stream(pool, run.size(8_000)),
        run.reps(8),
        1_000,
        payloads.bulk_stream(pool, int(rate * run.paced_seconds())),
        rate,
    )


def managed_tenants(run):
    """The managed data path: shards + tenants + telemetry + TSDB + SLOs."""
    run.burst_phase(
        lambda: Managed(kernels.echo, telemetry=True, quotas=OPEN_QUOTAS, slo=True),
        ECHO_PROBE,
        payloads.echo_stream(run.seed, run.size(20_000)),
        "sharded_farm.submit",
        run.reps(5),
        2_000,
    )
    paced_stream = payloads.echo_stream(run.seed + 1, int(MANAGED_RATE * run.paced_seconds()))
    stack = run.build(
        lambda: Managed(kernels.echo, telemetry=True, quotas=PACED_QUOTAS, slo=True),
        ECHO_PROBE,
    )
    try:
        paced = run.paced_phase(
            stack,
            paced_stream,
            MANAGED_RATE,
            "sharded_farm.submit",
            keep=lambda i: TENANT_PATTERN[i % 10] != NOISY,
        )
        # an in-quota tenant must never be refused; the noisy tenant's
        # over-quota rejects are the gate doing its job
        run.failed += stack.rejected[0] + stack.rejected[1]
        noisy = stack.registry.get(TENANTS[NOISY])
        in_quota = [stack.registry.get(t).dispatched for t in TENANTS[:NOISY]]
        dispatched = [shard.farm.submitted for shard in stack.farm.shards]
        extras = {
            "tenants.noisy_queued": (noisy.queued, "count"),
            "tenants.noisy_rejected": (noisy.rejected, "count"),
            "tenants.fair_share_error": (
                abs(in_quota[0] - in_quota[1]) / max(1, max(in_quota)),
                "ratio",
            ),
            "sharded_farm.shard_skew": (
                abs(dispatched[0] - dispatched[1]) / max(1, max(dispatched)),
                "ratio",
            ),
            "obs.spans_per_task": (
                len(stack.telemetry.spans.spans) / max(1, paced["tasks"]),
                "ratio",
            ),
            "obs.series_count": (
                sum(len(family.samples()) for family in stack.telemetry.metrics.families()),
                "count",
            ),
        }
    finally:
        run.teardown(stack)
    if run.tracer.enabled:
        run.layers.update(extras)


def adapt_recover(run):
    """The paper's scenario, live: a contract broken by faults and
    re-established by the manager, judged from the receipts alone."""
    # the data path this stack pays per task: journal + process farm
    run.burst_phase(
        lambda: Supervised(kernels.echo, run.workdir, backend="process", workers=WORKERS),
        ECHO_PROBE,
        payloads.echo_stream(run.seed, run.size(8_000)),
        "supervisor.submit",
        run.reps(6),
        1_000,
    )

    feed_s = max(ADAPT_RAMP_S + 2 * ADAPT_FAULT_EVERY_S, run.seconds * ADAPT_FEED_SHARE)
    stream = payloads.sleep_stream(run.seed + 1, int(ADAPT_RATE * feed_s))
    stack = run.build(
        lambda: Supervised(
            kernels.sleep_square,
            run.workdir,
            backend="process",
            workers=1,
            contract=ThroughputRangeContract(ADAPT_FLOOR, ADAPT_CEILING),
            name="adapt",
        ),
        (0, 0),
    )
    n_faults = int((feed_s - ADAPT_RAMP_S - 0.5) // ADAPT_FAULT_EVERY_S)
    offsets = [ADAPT_RAMP_S + k * ADAPT_FAULT_EVERY_S for k in range(n_faults)]
    kinds = ["coordinator" if k % 3 == 2 else "workers" for k in range(n_faults)]

    def inject(k):
        with run.tracer.span(f"harness.fault.{kinds[k]}"):
            if kinds[k] == "coordinator":
                stack.supervisor.crash_coordinator()
                return
            # SIGKILL every serving worker but one
            farm = stack.farm.farm
            serving = [w for w in farm.workers if w.active and not w.quarantined]
            kill_workers(farm, serving[1:])

    try:
        paced = run.paced_phase(
            stack,
            stream,
            ADAPT_RATE,
            "supervisor.submit",
            # one window per fault cycle: the p95 of a cycle is how long
            # its fault kept tasks waiting
            window_s=ADAPT_FAULT_EVERY_S,
            floor=ADAPT_FLOOR,
            chaos=(offsets, inject),
        )
        extras = {
            "supervisor.redispatched": (stack.farm.redispatched, "count"),
            "supervisor.failovers": (stack.supervisor.failovers, "count"),
        }
    finally:
        run.teardown(stack)

    _converged, ticks = loadgen.out_of_contract(paced, ADAPT_FLOOR)
    out = {"workers": [], "coordinator": []}
    for k, offset in enumerate(offsets):
        upto = offsets[k + 1] if k + 1 < n_faults else paced["feed_s"]
        out[kinds[k]].append(sum(1 for t, ok in ticks if offset <= t < upto and not ok))
    total_out = sum(1 for _t, ok in ticks if not ok) * loadgen.JUDGE_STEP_S
    run.detail["adapt"] = {
        "faults": n_faults,
        "out_ticks_per_fault": out,
        "out_of_contract_s_per_fault": total_out / max(1, n_faults),
    }
    run.end_to_end["out_of_contract_s_per_fault"] = total_out / max(1, n_faults)
    if run.tracer.enabled:
        for kind, name in (("workers", "adapt.worker_fault_out_ticks"),
                           ("coordinator", "adapt.coord_fault_out_ticks")):
            extras[name] = (statistics.mean(out[kind]) if out[kind] else 0.0, "count")
        run.layers.update(extras)


WORKLOADS = {
    "echo_dist": echo_dist,
    "bulk_dist": bulk_dist,
    "managed_tenants": managed_tenants,
    "adapt_recover": adapt_recover,
}
