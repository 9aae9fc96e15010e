"""The load generator: one feeding thread, one draining thread.

Two phase shapes, both over any object with ``submit`` and
``drain_results``:

* :func:`burst` — a fixed stream submitted flat out, whole or as a row of
  closed segments each timed on its own (throughput);
* :func:`paced` — an open loop on a 1 ms tick schedule.  A task's latency
  runs from the moment its tick was *due*, not from when the generator
  got round to sending it, so a stall in ``submit`` is charged to every
  task it delays; how late the generator itself ran is reported beside.

Every result is checked against the stream's reference and accounted for
exactly once (:class:`Ledger`).
"""

import threading
import time

from spans import OFF
from stats import percentile

TICK_S = 0.001
#: the harness's contract judge: every step, the rate over the trailing window
JUDGE_STEP_S = 0.05
JUDGE_WINDOW_S = 0.5
#: how long the drain side goes without a single result before it gives the
#: stream up.  A failover delivers nothing while it re-forks its workers,
#: and on a busy shared host that has taken over 20 s; a run that is merely
#: slow must not be reported as one that lost tasks.
DRAIN_GRACE_S = 60.0


class Ledger:
    """Exactly-once accounting of one stream's results."""

    def __init__(self, stream):
        self.expected = stream.expected
        self.seen = bytearray(len(stream))
        self.ok = 0
        self.wrong = 0
        self.duplicated = 0

    def take(self, result):
        """Check one result; returns its task index, or -1 if unusable."""
        try:
            index = result[0]
            answer = tuple(result[1:])
            reference = self.expected[index]
        except (TypeError, IndexError, KeyError):
            self.wrong += 1  # an exception object, a dead letter, garbage
            return -1
        if self.seen[index]:
            self.duplicated += 1
            return -1
        self.seen[index] = 1
        if answer == reference:
            self.ok += 1
        else:
            self.wrong += 1
        return index

    def failed(self, due):
        """Missing + wrong + duplicated, of ``due`` results owed."""
        return (due - self.ok - self.wrong) + self.wrong + self.duplicated


def burst(farm, stream, *, segment=None, cpu=None, submit=None, tracer=OFF, span="farm.submit"):
    """Submit the whole stream flat out; returns its timings.

    ``wall_s`` runs from the first ``submit`` to the last verified
    result; ``submit_s`` is the feeding loops, ``drain_wait_s`` the rest.

    With ``segment`` the stream goes through as consecutive closed bursts
    of that many tasks on the same farm: the feeder submits a segment flat
    out, then waits for its last verified result before it starts the
    next.  ``segments`` lists each one's ``(tasks, wall_s, cpu_s)`` —
    ``cpu()`` is read at every boundary — so that a run has dozens of
    short, identical trials to take a steady statistic from, where a
    neighbour's burst spoils some of them and not the whole rep.
    """
    if submit is None:
        submit = farm.submit
    payloads = stream.payloads
    n = len(payloads)
    bounds = list(range(segment, n, segment)) + [n] if segment else [n]
    ledger = Ledger(stream)
    last = [0.0]
    landed = threading.Semaphore(0)  # one release per segment fully in

    def drain_all():
        # drain_results(k) returns once k results are in, so the last
        # chunk of a segment completes with its last result; on a timeout
        # it drops what it had collected, which is why the wait is long and
        # a timeout ends the rep as failed rather than being retried
        got = 0
        try:
            for bound in bounds:
                while got < bound:
                    results = farm.drain_results(min(256, bound - got), timeout=DRAIN_GRACE_S)
                    last[0] = time.perf_counter()
                    for result in results:
                        ledger.take(result)
                    got += len(results)
                landed.release()
        except TimeoutError:
            for _bound in bounds:
                landed.release()  # lost results: let the feeder run out

    drainer = threading.Thread(target=drain_all)
    clock = time.perf_counter
    segments = []
    submit_s = 0.0
    t0 = clock()
    drainer.start()
    lo = 0
    for bound in bounds:
        c0 = cpu() if cpu else 0.0
        s0 = clock()
        if tracer.enabled:
            for payload in payloads[lo:bound]:
                with tracer.span(span):
                    submit(payload)
        else:
            for payload in payloads[lo:bound]:
                submit(payload)
        s1 = clock()
        landed.acquire()
        submit_s += s1 - s0
        segments.append((bound - lo, max(last[0], s1) - s0, (cpu() if cpu else 0.0) - c0))
        lo = bound
    drainer.join()
    end = max(last[0], s1)
    return {
        "tasks": n,
        "wall_s": end - t0,
        "submit_s": submit_s,
        "drain_wait_s": end - t0 - submit_s,
        "segments": segments,
        "failed": ledger.failed(n),
    }


def paced(farm, stream, rate, *, submit=None, tracer=OFF, span="farm.submit", chaos=None):
    """Open loop: task i is due at ``floor(i / rate / tick)`` ticks.

    ``submit(payload)`` may return False for a task that owes no result
    (an over-quota reject).  ``chaos`` is an optional ``(offsets, fn)``
    pair: ``fn(k)`` runs on its own thread at ``offsets[k]`` seconds into
    the phase (fault injection — it feeds and drains nothing).

    Returns per-task arrays (``None`` where a task owed or got nothing):
    ``due``/``received`` clock readings and ``late``, how far behind its
    tick the generator sent the task.
    """
    if submit is None:
        submit = farm.submit
    payloads = stream.payloads
    n = len(payloads)
    ledger = Ledger(stream)
    received = [None] * n
    late = [0.0] * n
    owed_flags = bytearray(n)
    owed = [0]
    feeding = threading.Event()
    feeding.set()

    def drain_owed():
        # one result per call: a timeout then has nothing collected to drop
        got = 0
        idle_since = None
        while feeding.is_set() or got < owed[0]:
            try:
                result = farm.drain_results(1, timeout=0.25)[0]
            except TimeoutError:
                if not feeding.is_set():
                    idle_since = idle_since or time.perf_counter()
                    if time.perf_counter() - idle_since > DRAIN_GRACE_S:
                        return
                continue
            now = time.perf_counter()
            idle_since = None
            got += 1
            index = ledger.take(result)
            if index >= 0:
                received[index] = now

    drainer = threading.Thread(target=drain_owed)
    ticks_per_task = 1.0 / (rate * TICK_S)
    t0 = time.perf_counter() + 0.01
    due = [t0 + int(i * ticks_per_task) * TICK_S for i in range(n)]

    chaos_thread = None
    if chaos is not None:
        offsets, inject = chaos

        def run_chaos():
            for k, offset in enumerate(offsets):
                delay = t0 + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                inject(k)

        chaos_thread = threading.Thread(target=run_chaos)
        chaos_thread.start()

    drainer.start()
    clock = time.perf_counter
    sleep = time.sleep
    traced = tracer.enabled
    for i in range(n):
        now = clock()
        wait = due[i] - now
        if wait > 0:
            sleep(wait)
            now = clock()
        late[i] = now - due[i]
        if traced:
            with tracer.span(span):
                verdict = submit(payloads[i])
        else:
            verdict = submit(payloads[i])
        if verdict is not False:
            owed_flags[i] = 1
            owed[0] += 1
    t1 = clock()
    feeding.clear()
    drainer.join()
    if chaos_thread is not None:
        chaos_thread.join()
    return {
        "tasks": n,
        "t0": t0,
        "feed_s": t1 - t0,
        "due": due,
        "received": received,
        "late": late,
        "owed": owed_flags,
        "failed": ledger.failed(owed[0]),
    }


def latencies_ms(run, keep=None):
    """``(due offset s, receipt − due in ms)`` of every task that got a
    result (and that ``keep(i)`` admits), in task order."""
    due, received, t0 = run["due"], run["received"], run["t0"]
    return [
        (due[i] - t0, (received[i] - due[i]) * 1000.0)
        for i in range(run["tasks"])
        if received[i] is not None and (keep is None or keep(i))
    ]


def windowed(samples, window_s, pcts):
    """Per consecutive ``window_s`` of due time, the percentiles ``pcts``
    of the latencies due in it; windows with under 20 samples are left out.

    A shared sandbox stalls for tens of milliseconds now and then; one
    stall moves a whole-phase p95 but only one window's, so the phase is
    reported as the median over its windows.
    """
    buckets = {}
    for offset, latency in samples:
        buckets.setdefault(int(offset / window_s), []).append(latency)
    rows = []
    for _index, values in sorted(buckets.items()):
        if len(values) >= 20:
            values.sort()
            rows.append([percentile(values, pct) for pct in pcts])
    return rows


def out_of_contract(run, floor_rate):
    """Judge a rate contract from the receipts alone.

    Every 50 ms, count the results received in the trailing 0.5 s; the
    contract holds when that rate is at least ``floor_rate``.  Returns
    ``(time_to_contract_s, ticks)`` where ticks is a list of
    ``(offset_s, in_contract)`` from first convergence to the end of
    feeding — never from ``pending == 0``.
    """
    step, window = JUDGE_STEP_S, JUDGE_WINDOW_S
    t0 = run["t0"]
    stamps = sorted(r - t0 for r in run["received"] if r is not None)
    need = floor_rate * window
    lo = hi = 0
    ticks = []
    converged_at = None
    k = 1
    while k * step <= run["feed_s"]:
        now = k * step
        while hi < len(stamps) and stamps[hi] <= now:
            hi += 1
        while lo < hi and stamps[lo] <= now - window:
            lo += 1
        ok = (hi - lo) >= need
        if converged_at is None and ok:
            converged_at = now
        if converged_at is not None:
            ticks.append((now, ok))
        k += 1
    return converged_at, ticks
