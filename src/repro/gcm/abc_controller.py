"""Autonomic Behaviour Controllers: the paper's ABC membrane component.

"The AM interacts with (uses services provided by) an Autonomic
Behaviour Controller (ABC) that provides methods to access the
computation status (monitoring) and to implement the actions ordered by
the AM (actuators)." (§4.1)

The ABC is the *passive part* of autonomic management (§3.1's P_rol
solution): pure mechanism, no policy.  Three concrete ABCs cover the
paper's component kinds:

* :class:`FarmABC` — wraps any farm with the admission gate, simulated
  (:class:`~repro.sim.farm.FunctionalReplication`) or live
  (:class:`~repro.runtime.backend.FarmBackend`), plus the resource
  manager.  Its ``ADD_EXECUTOR`` actuator is split into
  **plan / commit / abort** so the multi-concern two-phase protocol of
  §3.2 can interpose between resource recruitment and worker
  instantiation ("AM_perf should express the *intent* to add a new
  node; AM_sec could react by prompting securing of communications;
  AM_perf may then instantiate the new secure worker").
* :class:`ProducerABC` — wraps a rate-controllable
  :class:`~repro.sim.workload.TaskSource` (``SET_RATE``).
* :class:`StageABC` — wraps a sequential
  :class:`~repro.sim.pipeline.SeqStage` (monitor only).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..obs.telemetry import NOOP
from ..rules.beans import ManagerOperation
from ..sim.pipeline import SeqStage
from ..sim.resources import TRUSTED_DEFAULT, Node, ResourceManager
from ..sim.workload import TaskSource

__all__ = [
    "AutonomicBehaviourController",
    "FarmABC",
    "ProducerABC",
    "StageABC",
    "PlannedReconfiguration",
    "ABCError",
]


class ABCError(RuntimeError):
    """Raised for invalid actuator usage."""


class AutonomicBehaviourController(abc.ABC):
    """Monitoring + actuator surface offered to an autonomic manager."""

    NAME = "autonomic-behaviour-controller"

    @abc.abstractmethod
    def monitor(self) -> Optional[Dict[str, Any]]:
        """Current sensor data, or None during a reconfiguration blackout."""

    @abc.abstractmethod
    def supported_operations(self) -> FrozenSet[ManagerOperation]:
        """Actuator verbs this controller implements."""

    @abc.abstractmethod
    def execute(self, op: ManagerOperation, data: Any = None) -> bool:
        """Perform ``op``; returns False when the mechanism cannot comply
        (e.g. no resources available) — the signal a manager turns into a
        violation report to its parent."""

    def can_execute(self, op: ManagerOperation) -> bool:
        return op in self.supported_operations()


@dataclass
class PlannedReconfiguration:
    """An *intent* to add workers: resources reserved, nothing running yet.

    Between :meth:`FarmABC.plan_add_workers` and
    :meth:`FarmABC.commit_plan`, other managers may inspect the chosen
    nodes and amend the plan (``require_secure``) — phase one of the
    §3.2 two-phase protocol.
    """

    nodes: List[Node]
    secured: Dict[str, bool] = field(default_factory=dict)
    committed: bool = False
    aborted: bool = False

    def require_secure(self, node: Node) -> None:
        """Mark one reserved node's future bindings as secure."""
        self.secured[node.name] = True

    def require_secure_all(self) -> None:
        for n in self.nodes:
            self.secured[n.name] = True

    @property
    def open(self) -> bool:
        return not (self.committed or self.aborted)


class FarmABC(AutonomicBehaviourController):
    """ABC for any farm with the admission gate, simulated or live.

    It keeps the worker → node map over the ``resources`` pool; without
    one, ADD_EXECUTOR grows the farm directly.  MIGRATE is offered by a
    farm that can ``migrate_worker``; ``nodes_per_executor`` > 1 places
    composite executors (a pipeline replica needs a node per stage).
    """

    _OPS = frozenset({ManagerOperation.ADD_EXECUTOR, ManagerOperation.REMOVE_EXECUTOR,
                      ManagerOperation.BALANCE_LOAD, ManagerOperation.SECURE_CHANNEL})

    #: how much faster than the victim's a node must be to migrate to it
    MIGRATION_SPEEDUP = 1.2
    _COORDINATOR = Node("emitter", domain=TRUSTED_DEFAULT)

    def __init__(
        self, farm: Any, resources: Optional[ResourceManager] = None, *, nodes_per_executor: int = 1
    ) -> None:
        if nodes_per_executor < 1:
            raise ABCError("nodes_per_executor must be >= 1")
        self.farm = farm
        self.resources = resources
        self.nodes_per_executor = nodes_per_executor
        migrate = hasattr(farm, "migrate_worker")
        self._ops = self._OPS | ({ManagerOperation.MIGRATE} if migrate else set())
        self._worker_nodes: Dict[int, List[Node]] = {}
        # admitted but not serving yet: a simulated worker in its setup delay
        self._starting: Set[int] = set()
        self.last_balance_moved = 0

    def monitor(self) -> Optional[Dict[str, Any]]:
        """The farm's snapshot as a dict; None during a blackout."""
        snap = self.farm.snapshot()
        return None if snap is None else dict(vars(snap))

    def _placed(self) -> List[Any]:
        """Workers on pool nodes that have not retired (nor crashed)."""
        nodes = self._worker_nodes
        return [w for w in self.farm.workers if w.worker_id in nodes and not w.retiring]

    @property
    def nodes_in_use(self) -> List[Node]:
        return [n for w in self._placed() for n in self._worker_nodes[w.worker_id]]

    @property
    def emitter_node(self) -> Node:
        """One end of every channel: the farm's emitter, or the coordinator."""
        return getattr(self.farm, "emitter_node", self._COORDINATOR)

    def bindings(self) -> List[Tuple[Any, Node]]:
        """``(worker, node)`` for every placed worker serving or starting;
        one at the admission gate is left out (its commit secures it)."""
        return [
            (w, self._worker_nodes[w.worker_id][0])
            for w in self._placed()
            if (w.active or w.worker_id in self._starting) and not w.quarantined
        ]

    def secure(self, worker: Any) -> bool:
        """Switch one worker's channel to the secure protocol."""
        return self.farm.secure_worker(worker.worker_id)

    def plan_add_workers(self, count: int = 1) -> Optional[PlannedReconfiguration]:
        """Reserve nodes for ``count`` executors; None if they can't be had.
        A lost live worker's node is released first, for its successor (a
        simulated crash retires its worker, and keeps the node it downed)."""
        if self.resources is None:
            return None
        for w in self._placed():
            if not (w.active or w.worker_id in self._starting):
                self._release(w.worker_id)
        nodes = self.resources.try_recruit(count * self.nodes_per_executor)
        return PlannedReconfiguration(nodes) if nodes else None

    def commit_plan(self, plan: PlannedReconfiguration) -> List[Any]:
        """Per executor: ``add_worker(quarantined=True)``, placement, a
        ``secure_worker`` where amended, ``admit_worker`` (not if securing
        failed).  Returns those admitted; ``mc.commit`` narrates it all."""
        if not plan.open:
            raise ABCError("plan already committed or aborted")
        plan.committed = True
        tel = getattr(self.farm, "telemetry", None) or NOOP
        k = self.nodes_per_executor
        admitted: List[Any] = []
        with tel.span(
            "mc.commit", actor=self.farm.name, nodes=[n.name for n in plan.nodes]
        ) as span:
            for i in range(0, len(plan.nodes), k):
                group = plan.nodes[i : i + k]
                node = group[0].name
                secure = any(plan.secured.get(n.name, False) for n in group)
                kwargs: Dict[str, Any] = {"quarantined": True}
                if secure and getattr(self.farm, "SUPPORTS_REQUIRE_SECURE", False):
                    # double-ended gate: the dist worker bounces early tasks
                    kwargs["require_secure"] = True
                try:
                    worker = self.farm.add_worker(**kwargs)
                except RuntimeError:  # the backend is at its max_workers
                    self.resources.release_all(group)
                    tel.event("mc.no_capacity", node=node)
                    continue
                wid = worker.worker_id
                worker.node = group[0] if k == 1 else group  # before it may serve
                self._worker_nodes[wid] = group
                tel.event("mc.quarantine", worker=wid, node=node)
                if secure:
                    if not self.farm.secure_worker(wid):
                        tel.event("mc.secure_failed", worker=wid, node=node)
                        continue
                    tel.event("mc.secured", worker=wid, node=node)
                if self.farm.admit_worker(wid):
                    if not worker.active:  # a simulated worker still setting up
                        self._starting.add(wid)
                    admitted.append(worker)
                    tel.event("mc.admit", worker=wid, node=node)
            span.set_attribute("admitted", len(admitted))
            span.set_attribute("failures", len(plan.nodes) // k - len(admitted))
        return admitted

    def abort_plan(self, plan: PlannedReconfiguration) -> None:
        """Release the plan's reserved nodes without starting anything."""
        if not plan.open:
            raise ABCError("plan already committed or aborted")
        plan.aborted = True
        self.resources.release_all(plan.nodes)

    def _release(self, worker_id: int) -> None:
        self._starting.discard(worker_id)
        nodes = self._worker_nodes.pop(worker_id, None)
        if nodes:
            self.resources.release_all(nodes)

    def supported_operations(self) -> FrozenSet[ManagerOperation]:
        return self._ops

    def execute(self, op: ManagerOperation, data: Any = None) -> bool:
        if op not in self._ops:
            raise ABCError(f"FarmABC does not implement {op}")
        if op is ManagerOperation.ADD_EXECUTOR:
            count = int(data.get("count", 1)) if isinstance(data, Mapping) else 1
            if self.resources is not None:
                plan = self.plan_add_workers(count)
                # growing by some of ``count`` is still a success
                return plan is not None and bool(self.commit_plan(plan))
            for added in range(count):
                try:
                    self.farm.add_worker()
                except RuntimeError:  # the backend is at its max_workers
                    return added > 0
            return True
        if op is ManagerOperation.REMOVE_EXECUTOR:
            worker = self.farm.remove_worker()
            if worker is not None:
                self._release(worker.worker_id)
            return worker is not None
        if op is ManagerOperation.BALANCE_LOAD:
            self.last_balance_moved = self.farm.balance_load()
            return True
        if op is ManagerOperation.SECURE_CHANNEL:
            if data is None or isinstance(data, Mapping):
                self.farm.secure_all()
                return True
            return self.secure(data)
        return self._migrate_slowest()

    def _migrate_slowest(self) -> bool:
        """Move the slowest worker to a node ``MIGRATION_SPEEDUP`` faster."""
        now = self.farm.sim.now
        live = [w for w in self.farm.workers if w.active]
        if not live:
            return False
        victim = min(live, key=lambda w: w.node.effective_speed(now))
        floor = victim.node.effective_speed(now) * self.MIGRATION_SPEEDUP
        candidates = [n for n in self.resources.available() if n.effective_speed(now) >= floor]
        if not candidates:
            return False
        target = max(candidates, key=lambda n: n.effective_speed(now))
        self.resources.recruit(1, lambda n: n is target)
        replacement = self.farm.migrate_worker(victim, target)
        self._release(victim.worker_id)
        self._worker_nodes[replacement.worker_id] = [target]
        self._starting.add(replacement.worker_id)
        return True

    def bootstrap(self, degree: int) -> List[Any]:
        """Initial deployment: recruit and start ``degree`` workers."""
        plan = self.plan_add_workers(degree)
        if plan is None:
            raise ABCError(f"cannot bootstrap farm: {degree} node(s) unavailable")
        return self.commit_plan(plan)


class ProducerABC(AutonomicBehaviourController):
    """ABC for a producer stage driven by a rate-controllable source."""

    _OPS = frozenset({ManagerOperation.SET_RATE})

    def __init__(self, source: TaskSource) -> None:
        self.source = source

    def monitor(self) -> Optional[Dict[str, Any]]:
        return {
            "rate": self.source.rate,
            "emitted": self.source.emitted,
            "finished": self.source.finished,
            "max_rate": self.source.max_rate,
        }

    def supported_operations(self) -> FrozenSet[ManagerOperation]:
        return self._OPS

    def execute(self, op: ManagerOperation, data: Any = None) -> bool:
        if op is ManagerOperation.SET_RATE:
            if isinstance(data, Mapping) and "rate" in data:
                target = float(data["rate"])
            elif isinstance(data, (int, float)):
                target = float(data)
            else:
                raise ABCError(f"SET_RATE needs a rate, got {data!r}")
            applied = self.source.set_rate(target)
            # False when the producer is already at its physical limit
            # and was asked to go faster.
            return not (applied < target and applied == self.source.max_rate)
        raise ABCError(f"ProducerABC does not implement {op}")


class StageABC(AutonomicBehaviourController):
    """ABC for a sequential stage: monitoring only (no actuators yet).

    The paper notes (§4.2) that for overloaded sequential stages "we are
    investigating ways to transform the pipeline stage into a farm" —
    that rewrite lives at the skeleton level
    (:func:`repro.skeletons.visitors.farm_out_stage`), not here.
    """

    _OPS: FrozenSet[ManagerOperation] = frozenset()

    def __init__(self, stage: SeqStage) -> None:
        self.stage = stage

    def monitor(self) -> Optional[Dict[str, Any]]:
        snap = self.stage.snapshot()
        return {
            "time": snap.time,
            "arrival_rate": snap.arrival_rate,
            "departure_rate": snap.departure_rate,
            "utilization": snap.utilization,
            "completed": snap.completed,
            "queue_length": snap.queue_length,
        }

    def supported_operations(self) -> FrozenSet[ManagerOperation]:
        return self._OPS

    def execute(self, op: ManagerOperation, data: Any = None) -> bool:
        raise ABCError(f"StageABC does not implement {op}")
