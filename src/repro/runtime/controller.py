"""Live autonomic control of a farm backend: the same manager, a real clock.

:class:`FarmController` *is* the paper's farm manager
(:class:`~repro.core.skeleton_manager.FarmManager`: the Figure 5 rules,
the MAPE cycle, contract → thresholds, the operation sink, P_rol) — the
class the simulated experiments run — over the two things that differ on
a live substrate, and only those:

* :class:`LiveFarmABC` — the paper's ABC (monitor + actuators, §4.1) over
  any :class:`~repro.runtime.backend.FarmBackend`, so
  :class:`~repro.runtime.farm_runtime.ThreadFarm`,
  :class:`~repro.runtime.process_farm.ProcessFarm` and
  :class:`~repro.runtime.dist_farm.DistFarm` are interchangeable
  underneath it;
* :class:`WallTimeBase` — the manager's time base on the farm's wall
  clock: the control loop ticks on a daemon thread.

The same two seams put the §3.2 managers on the wall clock:
:class:`~repro.core.multiconcern.GeneralManager` plans, commits and
aborts grows through :class:`LiveFarmABC` exactly as through the
simulated ``FarmABC``, and
:class:`~repro.security.manager.SecurityManager` ticks on a
:class:`WallTimeBase`.  Policy never learns which substrate it steers;
``tests/runtime/test_decision_replay.py`` and
``test_multiconcern_replay.py`` hold the two clocks to the same
decisions.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..core.contracts import Contract
from ..core.policies import ManagersConstants
from ..core.skeleton_manager import FarmManager
from ..gcm.abc_controller import ABCError, AutonomicBehaviourController, PlannedReconfiguration
from ..obs.telemetry import NOOP, Telemetry
from ..rules.beans import ManagerOperation
from ..sim.resources import TRUSTED_DEFAULT, Node, ResourceManager
from .backend import FarmBackend

__all__ = ["FarmController", "LiveFarmABC", "WallTimeBase"]


class LiveFarmABC(AutonomicBehaviourController):
    """ABC for a live task farm: ``snapshot()`` in, actuator calls out.

    With a ``resources`` pool it also has
    :class:`~repro.gcm.abc_controller.FarmABC`'s two-phase grow —
    :meth:`plan_add_workers` / :meth:`commit_plan` / :meth:`abort_plan`
    — over the farm's admission gate, and the worker → node map that
    tells the security concern which channels cross untrusted ground.
    """

    _OPS = frozenset(
        {
            ManagerOperation.ADD_EXECUTOR,
            ManagerOperation.REMOVE_EXECUTOR,
            ManagerOperation.BALANCE_LOAD,
        }
    )

    #: the emitter/collector end of every channel: the coordinator's host
    emitter_node = Node("emitter", domain=TRUSTED_DEFAULT)

    def __init__(self, farm: FarmBackend, resources: Optional[ResourceManager] = None) -> None:
        self.farm = farm
        self.resources = resources
        self.last_balance_moved = 0
        self._worker_nodes: Dict[int, List[Node]] = {}

    def monitor(self) -> Dict[str, Any]:
        # RuntimeFarmSnapshot names its fields as FarmABC.monitor keys the
        # simulated sample; a live farm has no blackout, so never None
        return {**vars(self.farm.snapshot()), "end_of_stream": False}

    def supported_operations(self) -> FrozenSet[ManagerOperation]:
        return self._OPS

    def execute(self, op: ManagerOperation, data: Any = None) -> bool:
        if op is ManagerOperation.ADD_EXECUTOR:
            count = int(data.get("count", 1)) if isinstance(data, Mapping) else 1
            for added in range(count):
                try:
                    self.farm.add_worker()
                except RuntimeError:  # the backend is at its max_workers
                    # growing by some of ``count`` is still a success
                    return added > 0
            return True
        if op is ManagerOperation.REMOVE_EXECUTOR:
            worker = self.farm.remove_worker()
            if worker is None:
                return False
            self._release(worker.worker_id)
            return True
        if op is ManagerOperation.BALANCE_LOAD:
            self.last_balance_moved = self.farm.balance_load()
            return True
        raise ABCError(f"LiveFarmABC does not implement {op}")

    # -- the channel view the security concern reads ----------------------
    def bindings(self) -> List[Tuple[Any, Node]]:
        """``(worker, node)`` for every placed worker in the dispatch set.

        A worker at the admission gate is left out: no task reaches it,
        and the commit that owns it is securing its channel.
        """
        nodes = dict(self._worker_nodes)
        return [
            (w, nodes[w.worker_id][0])
            for w in self.farm.workers
            if w.worker_id in nodes and w.active and not w.retiring and not w.quarantined
        ]

    def secure(self, worker: Any) -> bool:
        return self.farm.secure_worker(worker.worker_id)

    # -- two-phase grow (the intent protocol, §3.2) -----------------------
    def plan_add_workers(self, count: int = 1) -> Optional[PlannedReconfiguration]:
        """Reserve a node for each of ``count`` workers; None if the pool
        cannot satisfy it.  Nodes of workers that died since are
        released first, so a crashed worker's node hosts its successor."""
        if self.resources is None:
            return None
        active = {w.worker_id for w in self.farm.workers if w.active}
        for worker_id in set(self._worker_nodes) - active:
            self._release(worker_id)
        nodes = self.resources.try_recruit(count)
        return PlannedReconfiguration(nodes) if nodes else None

    def commit_plan(self, plan: PlannedReconfiguration) -> List[Any]:
        """Start one worker per reserved node through the admission gate;
        returns the workers admitted.

        Per node: ``add_worker(quarantined=True)`` (the dispatcher cannot
        touch it), then — where the plan was amended — ``secure_worker``
        (a real handshake on the dist farm), then ``admit_worker``.  A
        worker whose securing fails is *left quarantined*: it holds a
        slot but can never receive a task, which is the safe failure
        mode.  One ``mc.commit`` span, on the farm's telemetry, narrates
        each worker's path.
        """
        if not plan.open:
            raise ABCError("plan already committed or aborted")
        plan.committed = True
        tel = getattr(self.farm, "telemetry", NOOP)
        admitted: List[Any] = []
        with tel.span(
            "mc.commit", actor=self.farm.name, nodes=[n.name for n in plan.nodes]
        ) as span:
            for node in plan.nodes:
                secure = plan.secured.get(node.name, False)
                kwargs: Dict[str, Any] = {"quarantined": True}
                if secure and getattr(self.farm, "SUPPORTS_REQUIRE_SECURE", False):
                    # double-ended gate: the dist worker itself bounces
                    # any task frame that beats the handshake
                    kwargs["require_secure"] = True
                try:
                    worker = self.farm.add_worker(**kwargs)
                except RuntimeError:  # the backend is at its max_workers
                    self.resources.release(node)
                    tel.event("mc.no_capacity", node=node.name)
                    continue
                wid = worker.worker_id
                self._worker_nodes[wid] = [node]
                tel.event("mc.quarantine", worker=wid, node=node.name)
                if secure:
                    if not self.farm.secure_worker(wid):
                        tel.event("mc.secure_failed", worker=wid, node=node.name)
                        continue
                    tel.event("mc.secured", worker=wid, node=node.name)
                if self.farm.admit_worker(wid):
                    admitted.append(worker)
                    tel.event("mc.admit", worker=wid, node=node.name)
            span.set_attribute("admitted", len(admitted))
            span.set_attribute("failures", len(plan.nodes) - len(admitted))
        return admitted

    def abort_plan(self, plan: PlannedReconfiguration) -> None:
        """Release the plan's reserved nodes without starting anything."""
        if not plan.open:
            raise ABCError("plan already committed or aborted")
        plan.aborted = True
        self.resources.release_all(plan.nodes)

    def _release(self, worker_id: int) -> None:
        nodes = self._worker_nodes.pop(worker_id, None)
        if nodes:
            self.resources.release_all(nodes)


class _Ticker(threading.Thread):
    """A periodic callback on a daemon thread (what ``periodic`` returns)."""

    def __init__(self, period: float, fn: Callable[[], Any], name: str) -> None:
        super().__init__(name=name, daemon=True)
        self.period = period
        self.fn = fn
        self._cancel = threading.Event()
        self.start()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def cancel(self, timeout: float = 5.0) -> None:
        """Stop ticking and wait up to ``timeout`` for an in-flight tick
        (no wait when a tick cancels its own ticker)."""
        self._cancel.set()
        if threading.current_thread() is not self and self.is_alive():
            self.join(timeout)

    def run(self) -> None:
        while not self._cancel.wait(self.period):
            self.fn()


class WallTimeBase:
    """A manager's :class:`~repro.core.manager.TimeBase` on a real clock.

    ``clock`` is a zero-argument callable returning seconds (a farm's
    ``now``); ``periodic`` ticks on its own daemon thread and
    ``schedule`` fires once from a timer thread.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock()

    def periodic(self, period: float, fn: Callable[[], Any], *, name: str = "") -> _Ticker:
        return _Ticker(period, fn, name)

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> threading.Timer:
        timer = threading.Timer(delay, fn, args)
        timer.daemon = True
        timer.start()
        return timer


class FarmController(FarmManager):
    """The farm manager enforcing a contract on a live :class:`FarmBackend`.

    A root manager (violations land in ``unhandled_violations`` and it
    stays ACTIVE), not started until :meth:`start`; ``control_step()``
    stays public so tests can drive ticks deterministically.

    When a :class:`~repro.core.multiconcern.GeneralManager` has
    registered this controller (setting :attr:`coordinator`), grow
    actuations become *intents*: the GM plans them on this controller's
    ABC over the ``resources`` pool, other concern managers may amend or
    veto them, and the commit goes through the farm's admission gate.
    """

    def __init__(
        self,
        farm: FarmBackend,
        contract: Contract,
        *,
        control_period: float = 0.5,
        constants: Optional[ManagersConstants] = None,
        max_workers: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        name: str = "AM_live",
        resources: Optional[ResourceManager] = None,
    ) -> None:
        constants = constants or ManagersConstants()
        if max_workers is not None:
            constants.FARM_MAX_NUM_WORKERS = max_workers
        self.farm = farm
        super().__init__(
            name,
            WallTimeBase(farm.now),
            LiveFarmABC(farm, resources),
            constants=constants,
            manage_workers=False,
            telemetry=telemetry,
            control_period=control_period,
            autostart=False,
        )
        self.assign_contract(contract)

    def start(self) -> "FarmController":
        super().start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop ticking and wait up to ``timeout`` for an in-flight cycle
        (``0`` is a crash: cancelled, never joined)."""
        if self._loop is not None:
            self._loop.cancel(timeout)

    @property
    def _thread(self) -> Optional[threading.Thread]:
        return self._loop
