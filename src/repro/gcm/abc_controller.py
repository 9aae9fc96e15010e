"""Autonomic Behaviour Controllers: the paper's ABC membrane component.

"The AM interacts with (uses services provided by) an Autonomic
Behaviour Controller (ABC) that provides methods to access the
computation status (monitoring) and to implement the actions ordered by
the AM (actuators)." (§4.1)

The ABC is the *passive part* of autonomic management (§3.1's P_rol
solution): pure mechanism, no policy.  Three concrete ABCs cover the
paper's component kinds:

* :class:`FarmABC` — wraps a :class:`~repro.sim.farm.SimFarm` plus the
  resource manager.  Its ``ADD_EXECUTOR`` actuator is split into
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
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..rules.beans import ManagerOperation
from ..sim.farm import FarmWorker, SimFarm
from ..sim.pipeline import SeqStage
from ..sim.resources import Node, NodePredicate, ResourceManager, any_node
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
    """ABC for a task-farm behavioural skeleton."""

    _OPS = frozenset(
        {
            ManagerOperation.ADD_EXECUTOR,
            ManagerOperation.REMOVE_EXECUTOR,
            ManagerOperation.BALANCE_LOAD,
            ManagerOperation.SECURE_CHANNEL,
            ManagerOperation.MIGRATE,
        }
    )

    #: a candidate node must be this much faster than the victim's for a
    #: migration to be worth the reconfiguration cost
    MIGRATION_SPEEDUP = 1.2

    def __init__(
        self,
        farm: SimFarm,
        resources: ResourceManager,
        *,
        node_predicate: NodePredicate = any_node,
        secure_by_default: bool = False,
        nodes_per_executor: int = 1,
    ) -> None:
        if nodes_per_executor < 1:
            raise ABCError("nodes_per_executor must be >= 1")
        self.farm = farm
        self.resources = resources
        self.node_predicate = node_predicate
        self.secure_by_default = secure_by_default
        # >1 when an "executor" is a composite (e.g. a pipeline replica in
        # a farm-of-pipelines, which needs one node per stage)
        self.nodes_per_executor = nodes_per_executor
        self._worker_nodes: Dict[int, List[Node]] = {}
        self.last_balance_moved = 0

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def monitor(self) -> Optional[Dict[str, Any]]:
        snap = self.farm.snapshot()
        if snap is None:
            return None
        return {
            "time": snap.time,
            "arrival_rate": snap.arrival_rate,
            "departure_rate": snap.departure_rate,
            "num_workers": snap.num_workers,
            "queue_lengths": snap.queue_lengths,
            "queue_variance": snap.queue_variance,
            "utilization": snap.utilization,
            "completed": snap.completed,
            "pending": snap.pending,
            "mean_latency": snap.mean_latency,
            "end_of_stream": self.farm.end_of_stream,
        }

    @property
    def nodes_in_use(self) -> List[Node]:
        """Nodes currently hosting active or deploying workers."""
        out: List[Node] = []
        for w in self.farm.workers:
            if not w._stopped and w.worker_id in self._worker_nodes:
                out.extend(self._worker_nodes[w.worker_id])
        return out

    # ------------------------------------------------------------------
    # channel view (what the security concern reads and actuates)
    # ------------------------------------------------------------------
    @property
    def emitter_node(self) -> Node:
        """Where the emitter runs: one end of every worker's channel."""
        return self.farm.emitter_node

    def bindings(self) -> List[Tuple[FarmWorker, Node]]:
        """``(worker, node)`` for every active or deploying worker."""
        return [(w, w.node) for w in self.farm.workers if not w._stopped]

    def secure(self, worker: FarmWorker) -> bool:
        """Switch one worker's channel to the secure protocol."""
        self.farm.secure_worker(worker)
        return True

    # ------------------------------------------------------------------
    # two-phase reconfiguration (intent protocol, §3.2)
    # ------------------------------------------------------------------
    def plan_add_workers(self, count: int = 1) -> Optional[PlannedReconfiguration]:
        """Reserve nodes for ``count`` executors; None if they can't be had."""
        nodes = self.resources.try_recruit(
            count * self.nodes_per_executor, self.node_predicate
        )
        if not nodes:
            return None
        return PlannedReconfiguration(nodes)

    def commit_plan(self, plan: PlannedReconfiguration) -> List[FarmWorker]:
        """Instantiate executors on the plan's reserved nodes."""
        if not plan.open:
            raise ABCError("plan already committed or aborted")
        plan.committed = True
        workers = []
        k = self.nodes_per_executor
        for i in range(0, len(plan.nodes), k):
            group = plan.nodes[i : i + k]
            secured = any(
                plan.secured.get(n.name, self.secure_by_default) for n in group
            )
            if k == 1:
                worker = self.farm.add_worker(group[0], secured=secured)
            else:
                worker = self.farm.add_worker(group, secured=secured)
            self._worker_nodes[worker.worker_id] = list(group)
            workers.append(worker)
        return workers

    def abort_plan(self, plan: PlannedReconfiguration) -> None:
        """Release the plan's reserved nodes without instantiating."""
        if not plan.open:
            raise ABCError("plan already committed or aborted")
        plan.aborted = True
        self.resources.release_all(plan.nodes)

    # ------------------------------------------------------------------
    # actuators
    # ------------------------------------------------------------------
    def supported_operations(self) -> FrozenSet[ManagerOperation]:
        return self._OPS

    def execute(self, op: ManagerOperation, data: Any = None) -> bool:
        if op is ManagerOperation.ADD_EXECUTOR:
            count = int(data.get("count", 1)) if isinstance(data, Mapping) else 1
            plan = self.plan_add_workers(count)
            if plan is None:
                return False
            self.commit_plan(plan)
            return True
        if op is ManagerOperation.REMOVE_EXECUTOR:
            worker = self.farm.remove_worker()
            if worker is None:
                return False
            nodes = self._worker_nodes.pop(worker.worker_id, None)
            if nodes:
                self.resources.release_all(nodes)
            return True
        if op is ManagerOperation.BALANCE_LOAD:
            self.last_balance_moved = self.farm.balance_load()
            return True
        if op is ManagerOperation.SECURE_CHANNEL:
            if isinstance(data, FarmWorker):
                self.farm.secure_worker(data)
            else:
                self.farm.secure_all()
            return True
        if op is ManagerOperation.MIGRATE:
            return self._migrate_slowest()
        raise ABCError(f"FarmABC does not implement {op}")

    def _migrate_slowest(self) -> bool:
        """Move the worst-performing worker to a clearly faster free node.

        Returns False when no live worker exists, or no free node beats
        the victim's current effective speed by ``MIGRATION_SPEEDUP`` —
        in which case the manager should fall back to adding capacity.
        """
        now = self.farm.sim.now
        live = [w for w in self.farm.workers if w.active]
        if not live:
            return False
        victim = min(live, key=lambda w: w.node.effective_speed(now))
        victim_speed = victim.node.effective_speed(now)
        candidates = [
            n
            for n in self.resources.available(self.node_predicate)
            if n.effective_speed(now) >= victim_speed * self.MIGRATION_SPEEDUP
        ]
        if not candidates:
            return False
        target = max(candidates, key=lambda n: n.effective_speed(now))
        self.resources.recruit(1, lambda n: n is target)
        replacement = self.farm.migrate_worker(victim, target)
        old_nodes = self._worker_nodes.pop(victim.worker_id, None)
        if old_nodes:
            self.resources.release_all(old_nodes)
        self._worker_nodes[replacement.worker_id] = [target]
        return True

    def bootstrap(self, degree: int, *, secured: Optional[bool] = None) -> List[FarmWorker]:
        """Initial deployment: recruit and start ``degree`` workers."""
        plan = self.plan_add_workers(degree)
        if plan is None:
            raise ABCError(f"cannot bootstrap farm: {degree} node(s) unavailable")
        if secured or (secured is None and self.secure_by_default):
            plan.require_secure_all()
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
