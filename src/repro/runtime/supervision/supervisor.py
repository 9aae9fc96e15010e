"""Self-healing coordination: a supervised farm that survives its coordinator.

Workers have crashed and recovered on every backend since PRs 2–4, but
the coordinator stack — dispatcher, FarmController, admission-gate state
— was a single point of failure.  This module closes that gap with the
classic supervision-tree shape (SNIPPETS.md's Erlang/OTP reference made
concrete), split into mechanism and policy exactly like the farms
themselves:

* :class:`SupervisedFarm` (mechanism) wraps one live farm *incarnation*
  (thread, process or dist) behind the ordinary
  :class:`~repro.runtime.backend.FarmBackend` surface.  Every admission,
  completion, worker event and contract swap is journaled
  (:class:`~.journal.DispatchJournal`) before it takes effect outward.
  A task is booked once: its ``sid`` is the incarnation's task id, and
  the incarnation's hooks journal each fresh result and lost worker
  before the result lands in the supervisor's one result queue.
  ``crash_coordinator()`` simulates the coordinator process dying —
  SIGKILL semantics scoped to the incarnation, since a test cannot
  SIGKILL the interpreter it runs in: thread/process workers die with
  their coordinator, dist workers survive across the TCP boundary.
  ``failover()`` replays the journal *from disk* and rebuilds a fresh
  incarnation: pending sids are resubmitted exactly once, every worker
  comes back under its journaled id (quarantined-but-never-admitted
  ones still quarantined), and on
  the dist backend a **standby coordinator** is promoted onto the same
  port (epoch+1) so surviving workers reattach via the
  ``reattach``/``takeover`` frames.

* :class:`Supervisor` (policy) checks the coordinator heartbeat (the
  incarnation's coordinator loop stamps each supervision pass) on a
  :class:`~repro.runtime.controller.WallTimeBase` ticker, triggers
  failover when it goes silent, and rebuilds the :class:`~repro.runtime.controller.\
FarmController` with the journaled contract — the manager-of-managers
  the formal-semantics line of work models, made executable.

Trace continuity: the supervisor owns each task's root ``task`` span
(deterministic context from the stable sid) and passes its traceparent
down to every incarnation's ``submit``; the farm then opens a
``task.attempt`` child instead of a fresh root, so a crashed-and-
replayed task reads as ONE tree — root → attempt(epoch 0, ends
``coordinator-crashed``) → attempt(epoch 1, ends ``ok``) — in
``repro.obs.explain``.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...obs.propagation import task_context
from ...obs.rows import TaskRow
from ...obs.spans import Span
from ...obs.telemetry import NOOP, Telemetry
from ..backend import RuntimeFarmSnapshot, drain_queue
from ..controller import FarmController, WallTimeBase
from ..dist_farm import fn_spec
from ..dist_worker import resolve_fn
from ..hierarchy.codec import contract_from_wire, contract_to_wire
from ..hierarchy.sharded_farm import FARM_BACKENDS
from .journal import DispatchJournal, JournalState

__all__ = ["SupervisedFarm", "Supervisor"]

#: seconds after each consecutive failed failover before the supervisor
#: tries again (last value repeats): a rebuild that keeps raising neither
#: spins at ``check_period`` nor goes unseen
FAILOVER_BACKOFF = (0.5, 1.0, 2.0, 5.0)


def _complete_event(sid: int, result: Any, failed: bool) -> dict:
    """The journal's ``complete`` event for one fresh result."""
    if failed:
        return {"ev": "complete", "sid": sid, "ok": False, "err": str(result)}
    return {"ev": "complete", "sid": sid, "ok": True, "v": result}


class SupervisedFarm:
    """A :class:`FarmBackend` whose coordinator can die and be replaced.

    ``fn`` must be an importable module-level callable (``module:qualname``
    reachable) on *every* backend — the journal stores it by name so a
    recovered coordinator, possibly in another process, can re-resolve it.

    ``farm_options`` are forwarded to each incarnation's constructor
    (heartbeat/backoff tuning etc.).  Dist workers are spawned with
    :attr:`WORKER_RECONNECT_ATTEMPTS` redials, so they survive coordinator
    restarts and reattach with capped backoff instead of exiting on EOF;
    the journal group-commits at its default ``fsync_batch``.

    A worker has one id, the journal's ``wid``, and every incarnation
    enrolls it under that id (``add_worker(worker_id=)``): a span, a
    ``worker=`` metric label and the journal name a worker alike, before
    a failover and after it.  :meth:`add_worker` returns the current
    incarnation's handle; the id, not the handle, is what is stable.
    """

    SUPPORTS_REQUIRE_SECURE = False
    WORKER_RECONNECT_ATTEMPTS = 100

    def __init__(
        self,
        fn: Any,
        *,
        backend: str = "thread",
        journal_path: str,
        name: str = "sfarm",
        initial_workers: int = 2,
        max_workers: int = 64,
        telemetry: Optional[Telemetry] = None,
        farm_options: Optional[Dict[str, Any]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if backend not in FARM_BACKENDS:
            raise ValueError(
                f"backend must be one of {tuple(FARM_BACKENDS)}, got {backend!r}"
            )
        if initial_workers < 1:
            raise ValueError("need at least one worker")
        self.fn_spec = fn_spec(fn)
        self.backend = backend
        self.name = name
        self.max_workers = max_workers
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.farm_options: Dict[str, Any] = dict(farm_options or {})
        self._clock = clock
        self._t0 = clock()

        self.journal = DispatchJournal(journal_path, telemetry=self.telemetry, name=name)
        self._lock = threading.RLock()
        self._next_wid = 0
        self._next_sid = 0
        self._roots: Dict[int, TaskRow] = {}  # sid → open root span's row
        self.submitted = 0
        self.completed = 0
        self.epoch = 0
        self.failovers = 0
        self.redispatched = 0
        self.last_failover_seconds: Optional[float] = None
        self.crashed = False
        self._shutdown_done = False
        self._listen_port = 0  # dist: the port every incarnation binds
        self._survivors: List[Any] = []  # dist: adoptable worker handles

        self.journal.append(
            {"ev": "open", "name": name, "backend": backend, "fn": self.fn_spec, "epoch": 0}
        )
        self.farm = self._build_farm(initial_workers=initial_workers)
        # the first incarnation's queue is every incarnation's
        self.results = self.farm.results
        with self._lock:
            for handle in self.farm.workers:
                self._journal_worker(handle.worker_id)
            self._attach()

    # ------------------------------------------------------------------
    # incarnation factory
    # ------------------------------------------------------------------
    def _build_farm(self, *, initial_workers: int) -> Any:
        """Construct one coordinator incarnation (named by its epoch)."""
        cls = FARM_BACKENDS[self.backend]
        if self.backend == "dist":
            fn = self.fn_spec
            placed = dict(
                port=self._listen_port,  # the standby rebinds this port
                epoch=self.epoch,
                worker_reconnect_attempts=self.WORKER_RECONNECT_ATTEMPTS,
            )
        else:
            fn, placed = resolve_fn(self.fn_spec), {}
        # one ``farm_options`` tunes whichever backend is underneath: each
        # incarnation takes the options its constructor knows
        known = inspect.signature(cls.__init__).parameters
        farm = cls(
            fn,
            initial_workers=initial_workers,
            name=f"{self.name}-e{self.epoch}",
            max_workers=self.max_workers,
            telemetry=self.telemetry,
            **placed,
            **{k: v for k, v in self.farm_options.items() if k in known},
        )
        if self.backend == "dist":
            self._listen_port = farm.port
        return farm

    def _attach(self) -> None:
        """Point the current incarnation's results and hooks here (lock
        held).  The hooks run under the farm's lock and take no lock of
        this side's, which calls into the farm holding its own; a worker
        lost before they were set is journaled now."""
        farm = self.farm
        with farm._lock:
            farm.results = self.results
            farm._on_complete = self._journal_complete
            farm._on_worker_lost = self._journal_death
            for _, farm_id in farm.crashes:
                self._journal_death(farm_id)

    def _journal_complete(
        self, frame: List[Tuple[int, Any, bool]]
    ) -> Optional[List[Any]]:
        """Journal one frame's fresh results as one record and close
        their roots (farm lock held).  A frame the codec refuses goes one
        result at a time; see :meth:`_journal_one_by_one`."""
        try:
            self.journal.extend([_complete_event(*entry) for entry in frame])
            journaled = None
        except Exception:  # noqa: BLE001 - a value the codec refuses
            journaled = self._journal_one_by_one(frame)
        self.completed += len(frame)
        if self._roots:
            now = self.telemetry.clock.now()
            for sid, _, failed in frame:
                root = self._roots.pop(sid, None)
                if root is not None:
                    root.close(now, "error" if failed else "ok")
        return journaled

    def _journal_one_by_one(self, frame: List[Tuple[int, Any, bool]]) -> List[Any]:
        """A frame that will not encode as one record, as one record per
        result (farm lock held); returns the results to deliver.

        A result the codec refuses completes as a failure naming the
        codec's error, in the journal and in ``frame``; the others are
        journaled as they are.  A journal that cannot be written at all
        refuses the failure too, and that raises.
        """
        results = []
        for i, (sid, result, failed) in enumerate(frame):
            try:
                self.journal.append(_complete_event(sid, result, failed))
            except Exception as exc:  # noqa: BLE001 - an unencodable result
                result = RuntimeError(f"{type(exc).__name__}: {exc}")
                frame[i] = (sid, result, True)
                self.journal.append(_complete_event(sid, result, True))
            results.append(result)
        return results

    def _journal_death(self, worker_id: int) -> None:
        """Journal a worker the incarnation declared dead (farm lock held):
        without the ``remove`` a failover would respawn it."""
        self.journal.append({"ev": "remove", "wid": worker_id})

    def _journal_worker(self, wid: int, quarantined: bool = False, secured: bool = False) -> None:
        """Journal a worker the incarnation enrolled under ``wid`` (lock held)."""
        self._next_wid = max(self._next_wid, wid + 1)
        self.journal.append(
            {"ev": "worker", "wid": wid, "quarantined": quarantined, "secured": secured}
        )

    def _add_fresh(self, *, secured: bool = False, quarantined: bool = False) -> Any:
        """Grow the incarnation by one worker and journal it (lock held),
        under an id past the journal's and the incarnation's own: a dist
        farm enrolls an unannounced dialler under its own numbering."""
        farm = self.farm
        with farm._lock:
            handle = farm.add_worker(
                secured=secured,
                quarantined=quarantined,
                worker_id=max(self._next_wid, farm._next_id),
            )
        self._journal_worker(handle.worker_id, quarantined=quarantined, secured=secured)
        return handle

    # ------------------------------------------------------------------
    # time base + heartbeat
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._clock() - self._t0

    def heartbeat_age(self) -> float:
        """Seconds since the incarnation's coordinator loop last ran a
        supervision pass; 0 on a thread farm, which has no loop to wedge."""
        if self.backend == "thread":
            return 0.0
        farm = self.farm
        return farm.now() - farm._last_pass

    # ------------------------------------------------------------------
    # stream
    # ------------------------------------------------------------------
    def submit(self, payload: Any, *, tenant: Optional[str] = None) -> None:
        """Journal one task admission, then dispatch it (if alive).

        A submit arriving while the coordinator is down is *accepted*:
        it is journaled, and failover redispatches it with everything
        else that was pending — admission survives the crash.
        """
        with self._lock:
            if self._shutdown_done:
                raise RuntimeError("supervised farm is shut down")
            sid = self._next_sid
            event = {"ev": "submit", "sid": sid, "p": payload}
            if tenant is not None:
                event["tenant"] = tenant
            # a payload the codec refuses raises here, before it is counted
            self.journal.append(event)
            self._next_sid += 1
            self.submitted += 1
            if self.telemetry.enabled:
                root = self._roots[sid] = TaskRow(
                    self.name, sid, tenant, None, self.telemetry.clock.now()
                )
                self.telemetry.spans._add_row(root)
            if not self.crashed:
                self._submit_to_farm(sid, payload, tenant)

    def _submit_to_farm(self, sid: int, payload: Any, tenant: Optional[str]) -> None:
        """Hand one task to the current incarnation, under its sid as the
        farm's task id (lock held).

        The traceparent is minted deterministically from the stable sid,
        so every incarnation's attempt chains under the same root — even
        an incarnation created after the span-owning process restarted.
        """
        traceparent = (
            task_context(self.name, sid).traceparent()
            if self.telemetry.enabled
            else None  # nobody downstream would parse it
        )
        self.farm.submit(payload, tenant=tenant, traceparent=traceparent, task_id=sid)

    def drain_results(self, count: int, timeout: float = 30.0) -> List[Any]:
        """Collect ``count`` results (completion order, exactly-once)."""
        return drain_queue(self.results, count, timeout)

    # ------------------------------------------------------------------
    # crash + failover (the tentpole)
    # ------------------------------------------------------------------
    def crash_coordinator(self) -> None:
        """Simulate the coordinator process dying (SIGKILL semantics).

        The incarnation's dispatcher state is gone, its heartbeat goes
        silent, its open dispatch spans close as ``coordinator-crashed``,
        and once this returns it journals and delivers nothing.
        Thread/process workers live *inside* the coordinator process and
        die with it; dist workers are separate OS processes across a TCP
        boundary and survive, ready to reattach to a promoted standby.
        """
        with self._lock:
            if self.crashed or self._shutdown_done:
                return
            self.crashed = True
            # under the lock, so no failover replays the journal while the
            # dying incarnation may still complete a task (its hooks take
            # no supervisor lock); only dist worker processes outlive it
            self._survivors = self.farm.crash() or []
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "repro_sup_coordinator_crashes_total",
                "coordinator incarnations that died",
            ).labels(farm=self.name).inc()

    def failover(self) -> JournalState:
        """Rebuild the coordinator from the journal; returns the state.

        The journal on disk — not any in-memory mirror — is the source
        of truth: it is synced, read back and replayed, and the replayed
        state decides what is redispatched, who stays quarantined and
        which contract the restarted controller enforces.
        """
        t0 = time.monotonic()
        adaptation = self.telemetry.adaptation
        if adaptation is not None:
            # the dependability concern's adaptation cycle: the crash is
            # the observed violation, the rebuilt coordinator the plan
            adaptation.violation_observed("coordinator-crashed", farm=self.name)
        with self._lock:
            if self._shutdown_done or not self.crashed:
                raise RuntimeError("failover requires a crashed coordinator")
            self.epoch += 1
            self.journal.append({"ev": "epoch", "epoch": self.epoch})
            self.journal.sync()
            state = self.journal.replay()
            span = None
            if self.telemetry.enabled:
                span = self.telemetry.start_span(
                    "sup.failover", actor=self.name, epoch=self.epoch
                )
                span.add_event(
                    "journal-replayed",
                    self.now(),
                    events=self.journal.appended,
                    pending=len(state.pending),
                    completed=len(state.completed),
                )
            self._rebuild(state, span)
            self._attach()
            for sid, payload in state.pending.items():
                self._submit_to_farm(sid, payload, state.tenants.get(sid))
            self.redispatched += len(state.pending)
            self.crashed = False
            self.failovers += 1
        elapsed = time.monotonic() - t0
        self.last_failover_seconds = elapsed
        if adaptation is not None:
            adaptation.plan_committed(
                "failover", farm=self.name, epoch=self.epoch,
                redispatched=len(state.pending),
            )
        if self.telemetry.enabled:
            if span is not None:
                self.telemetry.end_span(
                    span,
                    outcome="recovered",
                    redispatched=len(state.pending),
                    quarantined=len(state.quarantined_wids),
                    latency=elapsed,
                )
            metrics = self.telemetry.metrics
            metrics.counter(
                "repro_sup_failovers_total", "coordinator failovers completed"
            ).labels(farm=self.name).inc()
            metrics.counter(
                "repro_sup_redispatched_total",
                "pending tasks redispatched by a failover",
            ).labels(farm=self.name).inc(len(state.pending))
            metrics.gauge(
                "repro_sup_epoch", "current coordinator incarnation"
            ).labels(farm=self.name).set(self.epoch)
            metrics.histogram(
                "repro_sup_failover_seconds", "journal replay + rebuild latency"
            ).labels(farm=self.name).observe(elapsed)
        return state

    def _rebuild(self, state: JournalState, span: Optional[Span]) -> None:
        """Build the next incarnation, empty, then fill it under the
        journaled ids (lock held): thread and process workers died with
        the coordinator and respawn, gated as they were; a dist standby
        binds the same port and adopts each live survivor, to reattach.
        A live wid that did not come back is journaled removed; a farm
        with nothing serving gets one fresh worker.  One that raises is
        left crashed, for the next failover to replace.
        """
        live = state.admitted_wids + state.quarantined_wids
        farm = self.farm = self._build_farm(initial_workers=0)
        try:
            if self.backend == "dist":
                for old in self._survivors:
                    worker = state.workers.get(old.worker_id)
                    if worker is not None and worker["active"]:
                        farm.adopt_worker(
                            old.worker_id,
                            process=old.process,
                            quarantined=worker["quarantined"],
                        )
            else:
                farm._start_workers([
                    {"worker_id": wid, "quarantined": state.workers[wid]["quarantined"]}
                    for wid in live
                ])
            back = {w.worker_id for w in farm.workers}
            for wid in live:
                if wid not in back:
                    self.journal.append({"ev": "remove", "wid": wid})
            if not farm.num_workers:
                self._add_fresh()
            if self.backend != "dist":
                # a dist worker redoes its handshake once it has reattached
                for wid in back:
                    if state.workers[wid]["secured"]:
                        farm.secure_worker(wid)
        except Exception:
            farm.crash()
            raise
        self._survivors = []
        if span is not None and self.backend == "dist":
            span.add_event(
                "standby-promoted", self.now(), port=self._listen_port, adopted=len(back)
            )
        elif span is not None:
            span.add_event(
                "farm-rebuilt", self.now(),
                admitted=len(state.admitted_wids), quarantined=len(state.quarantined_wids),
            )

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def snapshot(self) -> RuntimeFarmSnapshot:
        """The incarnation's sample, counted in this farm's tasks."""
        snap = self.farm.snapshot()
        with self._lock:
            completed = self.completed
            pending = max(0, self.submitted - self.completed)
        return replace(snap, time=self.now(), completed=completed, pending=pending)

    @property
    def num_workers(self) -> int:
        return self.farm.num_workers

    @property
    def emitter_node(self) -> Any:
        return self.farm.emitter_node

    @property
    def quarantined_workers(self) -> int:
        return self.farm.quarantined_workers

    # ------------------------------------------------------------------
    # actuators (journaled; a worker is named by its one id)
    # ------------------------------------------------------------------
    def add_worker(self, *, secured: bool = False, quarantined: bool = False) -> Any:
        """Grow the current incarnation by one worker under the next wid
        (journaled); returns that incarnation's handle."""
        with self._lock:
            if self.crashed:
                raise RuntimeError("coordinator is down; failover pending")
            return self._add_fresh(secured=secured, quarantined=quarantined)

    def admit_worker(self, worker_id: int) -> bool:
        """Lift the gate for one worker (journaled)."""
        with self._lock:
            if not self.farm.admit_worker(worker_id):
                return False
            self.journal.append({"ev": "admit", "wid": worker_id})
            return True

    def secure_worker(self, worker_id: int) -> bool:
        if not self.farm.secure_worker(worker_id):
            return False
        with self._lock:
            self.journal.append({"ev": "secure", "wid": worker_id})
        return True

    def remove_worker(self) -> Optional[Any]:
        with self._lock:
            victim = self.farm.remove_worker()
            if victim is not None:
                self.journal.append({"ev": "remove", "wid": victim.worker_id})
            return victim

    def balance_load(self) -> int:
        if self.crashed:
            return 0
        return self.farm.balance_load()

    def secure_all(self) -> None:
        with self._lock:
            self.farm.secure_all()
            self.journal.append({"ev": "secure_all"})

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> None:
        with self._lock:
            if self._shutdown_done:
                return
            self._shutdown_done = True
            farm = self.farm
            crashed = self.crashed
        if not crashed:
            farm.shutdown(timeout)
        with farm._lock:
            # a task that outlived the farm's shutdown journals nothing
            farm._on_complete = farm._on_worker_lost = None
            for root in self._roots.values():
                root.close(self.telemetry.clock.now(), "abandoned")
            self._roots.clear()
        self.journal.close()
        if self.telemetry.enabled:
            self.telemetry.flush()


class Supervisor:
    """Heartbeat-watching restart policy over a :class:`SupervisedFarm`.

    Owns the :class:`FarmController` steering the supervised farm — the
    controller is part of the coordinator stack, so
    :meth:`crash_coordinator` kills it too, and every failover rebuilds
    it with the contract the journal proves was in force.
    """

    def __init__(
        self,
        farm: SupervisedFarm,
        *,
        contract: Optional[Any] = None,
        control_period: float = 0.2,
        check_period: float = 0.05,
        heartbeat_timeout: float = 1.0,
        max_workers: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        name: Optional[str] = None,
    ) -> None:
        self.farm = farm
        self.contract = contract
        self.max_workers = max_workers
        self.control_period = control_period
        self.check_period = check_period
        self.heartbeat_timeout = heartbeat_timeout
        self.telemetry = telemetry if telemetry is not None else farm.telemetry
        self.name = name or f"{farm.name}-sup"
        self.controller: Optional[FarmController] = None
        self.failovers = 0
        self.failover_errors = 0
        self.last_error: Optional[Exception] = None  # what the last failed failover raised
        self._loop: Optional[Any] = None
        self._failures = 0  # consecutive failed failovers
        self._retry_at = 0.0  # farm time before which no failover is tried
        self._restart_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "Supervisor":
        if self.contract is not None:
            self.farm.journal.append(
                {"ev": "contract", "c": contract_to_wire(self.contract)}
            )
            self.controller = self._make_controller(self.contract)
        self._loop = WallTimeBase(self.farm.now).periodic(
            self.check_period, self._check, name=f"{self.name}.loop"
        )
        return self

    def stop(self, timeout: float = 5.0) -> None:
        if self._loop is not None:
            self._loop.cancel(timeout)
        if self.controller is not None:
            self.controller.stop(timeout)

    def _make_controller(self, contract: Any) -> FarmController:
        # the name is deliberately epoch-stable: the manager *role*
        # outlives any coordinator incarnation, so its gauges form one
        # continuous series the SLO layer can judge across failovers
        # (each incarnation is still distinguishable via repro_sup_epoch
        # and the sup.failover spans)
        return FarmController(
            self.farm,
            contract,
            control_period=self.control_period,
            max_workers=self.max_workers,
            telemetry=self.telemetry,
            name=f"{self.name}-am",
        ).start()

    # -- contract (journaled swap) ---------------------------------------
    def assign_contract(self, contract: Any) -> None:
        """Swap the enforced contract; the swap itself is journaled, so
        a post-crash rebuild enforces the *new* contract."""
        if self.controller is not None:
            self.controller.assign_contract(contract)
        self.contract = contract
        self.farm.journal.append({"ev": "contract", "c": contract_to_wire(contract)})

    # -- crash + restart -------------------------------------------------
    def crash_coordinator(self) -> None:
        """Kill the whole coordinator stack: controller + dispatcher."""
        if self.controller is not None:
            # simulated SIGKILL: the control thread is told nothing and
            # simply stops being scheduled (cancelled, no graceful join)
            self.controller.stop(timeout=0.0)
        self.farm.crash_coordinator()

    def restart(self) -> JournalState:
        """One failover: journal replay, rebuild, controller restart."""
        with self._restart_lock:
            state = self.farm.failover()
            contract = self.contract
            if state.contract is not None:
                contract = contract_from_wire(state.contract)
                self.contract = contract
            if contract is not None:
                self.controller = self._make_controller(contract)
            self.failovers += 1
            return state

    def _check(self) -> None:
        """One heartbeat check: fail over a crashed or silent coordinator,
        but not before the backoff after a failed attempt has passed."""
        farm = self.farm
        if farm._shutdown_done:
            self._loop.cancel()
            return
        if farm.now() < self._retry_at:
            return
        if not (farm.crashed or farm.heartbeat_age() > self.heartbeat_timeout):
            return
        try:
            if not farm.crashed:
                # silent wedge: declare the coordinator dead first
                self.crash_coordinator()
            self.restart()
            self._failures = 0
        except Exception as exc:  # noqa: BLE001 - the supervisor must survive
            self.last_error = exc
            self.failover_errors += 1
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "repro_sup_failover_errors_total",
                    "failover attempts that raised (retried with backoff)",
                ).labels(farm=farm.name).inc()
            delay = FAILOVER_BACKOFF[min(self._failures, len(FAILOVER_BACKOFF) - 1)]
            self._failures += 1
            self._retry_at = farm.now() + delay
