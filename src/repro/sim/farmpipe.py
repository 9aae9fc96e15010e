"""Farm of pipeline replicas: the paper's nested-pattern composition.

Section 3.1's canonical example tree is
``farm(pipeline(sequential, farm(sequential), sequential))``: a farm
whose *workers are themselves pipelines*.  :class:`SimFarmOfPipelines`
provides that composition on the DES substrate: each "executor" is a
:class:`PipelineReplica` — a chain of :class:`~repro.sim.pipeline.
SeqStage`s on its own nodes — and the dispatcher round-robins whole
tasks across replica heads.

The monitoring/actuator surface (``snapshot``, ``add_worker``,
blackout, ``num_workers``) is :class:`~repro.sim.farm.
FunctionalReplication`'s, the one :class:`~repro.sim.farm.SimFarm` has,
so the standard :class:`~repro.gcm.abc_controller.FarmABC` (with
``nodes_per_executor = number of stages``) and
:class:`~repro.core.skeleton_manager.FarmManager` drive it unchanged —
the nested tree needs no new policy code, exactly as
behavioural-skeleton composition promises.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence

from .engine import Simulator
from .farm import FunctionalReplication
from .metrics import UtilizationMeter
from .pipeline import SeqStage
from .queues import Store, rebalance as rebalance_stores, transfer
from .resources import Node
from .workload import Task

__all__ = ["PipelineReplica", "SimFarmOfPipelines"]


class PipelineReplica:
    """One farm executor: a pipeline instance over its own nodes."""

    def __init__(
        self,
        sim: Simulator,
        owner: "SimFarmOfPipelines",
        replica_id: int,
        nodes: Sequence[Node],
        stage_works: Sequence[float],
        *,
        secured: bool = False,
        rate_window: float = 10.0,
    ) -> None:
        if len(nodes) != len(stage_works):
            raise ValueError(
                f"replica needs one node per stage "
                f"({len(stage_works)} stages, {len(nodes)} nodes)"
            )
        self.sim = sim
        self.owner = owner
        # `worker_id` (not replica_id) so FarmABC bookkeeping matches.
        self.worker_id = replica_id
        self.nodes = list(nodes)
        self.secured = secured
        self.active = True
        self._stopped = False
        self.completed = 0
        self.current_task: Optional[Task] = None  # FarmSnapshot compat

        self.stages: List[SeqStage] = []
        store = Store(sim, name=f"{owner.name}.r{replica_id}.s0")
        self.head = store
        for i, (node, work) in enumerate(zip(nodes, stage_works)):
            is_last = i == len(stage_works) - 1
            out = None if is_last else Store(sim, name=f"{owner.name}.r{replica_id}.s{i + 1}")
            stage = SeqStage(
                sim,
                name=f"{owner.name}.r{replica_id}.stage{i}",
                node=node,
                input_store=store,
                output_store=out,
                service_work=work,
                rate_window=rate_window,
                on_done=(lambda t, self=self: self._on_done(t)) if is_last else None,
            )
            self.stages.append(stage)
            store = out  # type: ignore[assignment]

    @property
    def name(self) -> str:
        return f"{self.owner.name}.r{self.worker_id}"

    @property
    def queue(self) -> Store:
        """The replica's head queue (rebalancing moves tasks here)."""
        return self.head

    def queued_total(self) -> int:
        """Tasks anywhere inside the replica (queued or in service)."""
        q = sum(len(s.input) for s in self.stages)
        in_service = sum(1 for s in self.stages if s.util._busy_since is not None)
        return q + in_service

    def _on_done(self, task: Task) -> None:
        self.completed += 1
        task.completed_at = self.sim.now
        self.owner._deliver(task)

    def stop(self) -> None:
        self.active = False
        self._stopped = True
        for s in self.stages:
            s.stop()


class SimFarmOfPipelines(FunctionalReplication):
    """Functional replication whose workers are pipeline replicas."""

    def __init__(
        self,
        sim: Simulator,
        *,
        name: str = "farmpipe",
        stage_works: Sequence[float],
        rate_window: float = 10.0,
        replica_setup_time: float = 5.0,
        on_result: Optional[Callable[[Task], None]] = None,
    ) -> None:
        if not stage_works:
            raise ValueError("need at least one stage")
        if any(w < 0 for w in stage_works):
            raise ValueError("stage works must be >= 0")
        super().__init__(
            sim,
            name=name,
            rate_window=rate_window,
            worker_setup_time=replica_setup_time,
            on_result=on_result,
        )
        self.stage_works = list(stage_works)
        self._rr = 0

        self._proc = sim.process(self._dispatch_loop(), name=f"{name}.dispatcher")

    def _new_worker(
        self, nodes: Sequence[Node], replica_id: int, secured: bool
    ) -> PipelineReplica:
        """Deploy a new pipeline replica over ``nodes`` (one per stage)."""
        if isinstance(nodes, Node):
            nodes = [nodes]
        return PipelineReplica(
            self.sim,
            self,
            replica_id,
            nodes,
            self.stage_works,
            secured=secured,
            rate_window=self.rate_window,
        )

    def _backlog(self, replica: PipelineReplica) -> int:
        return replica.queued_total()

    def _meters(self, replica: PipelineReplica) -> List[UtilizationMeter]:
        return [s.util for s in replica.stages]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> Iterator[Any]:
        while True:
            if not any(r.active for r in self.workers):
                yield self.sim.timeout(0.05)
                continue
            task = yield self.input.get()
            self.arrival_est.mark(self.sim.now)
            live = [r for r in self.workers if r.active]
            self._rr = (self._rr + 1) % len(live)
            live[self._rr].head.put_nowait(task)

    @property
    def pending(self) -> int:
        inside = sum(r.queued_total() for r in self.workers if not r._stopped)
        return len(self.input) + inside

    # ------------------------------------------------------------------
    # actuators whose rules are the farm of pipelines' own
    # ------------------------------------------------------------------
    def remove_worker(self) -> Optional[PipelineReplica]:
        """Retire the newest replica; its head queue migrates first."""
        live = [r for r in self.workers if r.active]
        if len(live) <= 1:
            return None
        victim = live[-1]
        victim.active = False  # no new dispatches
        survivors = [r for r in live if r is not victim]
        queued = len(victim.head)
        for i in range(queued):
            transfer(victim.head, survivors[i % len(survivors)].head, 1)

        def finalize() -> None:
            if victim.queued_total() == 0:
                victim.stop()
            else:
                self.sim.schedule(0.5, finalize)

        finalize()
        self.reconfigurations += 1
        return victim

    def balance_load(self) -> int:
        """Equalise replica *head* queues (in-pipe tasks stay put)."""
        return rebalance_stores(r.head for r in self.workers if r.active)

    def secure_worker(self, replica: PipelineReplica) -> None:
        replica.secured = True
        for s in replica.stages:
            s.secured = True
