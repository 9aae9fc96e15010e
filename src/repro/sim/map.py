"""Simulated data-parallel map: functional replication with scatter/reduce.

"By varying the way input tasks are distributed to the available
concurrent computations, the way the results are gathered into the
output stream and the amount of data shared among the concurrent
computations, several distinct parallel patterns can be modeled,
including embarrassingly parallel computation on streams (task farm)
and data parallel computation" (§3).

:class:`SimMap` is the data-parallel variant: each incoming task is
*scattered* into one chunk per live worker (chunk work = task work /
degree), the chunks execute concurrently, and a *reduce* step gathers
them back into one result before the next task is taken.  Per-task
service time is therefore ``scatter + work/degree (slowest worker) +
gather`` — the classic data-parallel model.

The monitoring/actuator surface (``snapshot``, ``add_worker``,
blackouts…) is :class:`~repro.sim.farm.FunctionalReplication`'s, the
same one :class:`~repro.sim.farm.SimFarm` has, so the *same*
:class:`~repro.gcm.abc_controller.FarmABC` and
:class:`~repro.core.skeleton_manager.FarmManager` drive either pattern —
the paper's point that one functional-replication BS covers both.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from .engine import Interrupt, Process, SimEvent, Simulator, wait_all
from .farm import FunctionalReplication
from .metrics import UtilizationMeter
from .network import Message, Network
from .queues import Store
from .resources import Node
from .workload import Task

__all__ = ["SimMap", "MapWorker"]


class _Chunk:
    """One scattered slice of a task."""

    __slots__ = ("work", "done")

    def __init__(self, work: float, done: SimEvent) -> None:
        self.work = work
        self.done = done


class MapWorker:
    """One data-parallel worker: serves chunks from its private queue."""

    def __init__(self, sim: Simulator, owner: "SimMap", node: Node, worker_id: int, *, secured: bool = False) -> None:
        self.sim = sim
        self.owner = owner
        self.node = node
        self.worker_id = worker_id
        self.secured = secured
        self.queue = Store(sim, name=f"{owner.name}.mw{worker_id}.q")
        self.util = UtilizationMeter(start_time=sim.now)
        self.chunks_done = 0
        self.active = True
        self._stopped = False
        self.current_chunk: Optional[_Chunk] = None
        self._proc: Process = sim.process(self._run(), name=f"{owner.name}.mw{worker_id}")

    @property
    def name(self) -> str:
        return f"{self.owner.name}.mw{self.worker_id}"

    @property
    def retiring(self) -> bool:
        """Stopped or crashed: it takes no chunk again."""
        return self._stopped

    def stop(self) -> None:
        self.active = False
        self._stopped = True
        if self._proc.alive:
            self._proc.interrupt("stop")

    def _run(self) -> Iterator[Any]:
        while not self._stopped:
            try:
                chunk = yield self.queue.get()
            except Interrupt:
                break
            self.current_chunk = chunk
            self.util.set_busy(self.sim.now)
            try:
                yield self.sim.timeout(self.node.service_time(chunk.work, self.sim.now))
            except Interrupt:
                break  # crashed mid-chunk; owner re-scatters current_chunk
            self.util.set_idle(self.sim.now)
            self.chunks_done += 1
            self.current_chunk = None
            chunk.done.succeed()


class SimMap(FunctionalReplication):
    """Data-parallel map over the DES substrate (scatter → compute → reduce)."""

    def __init__(
        self,
        sim: Simulator,
        *,
        name: str = "map",
        emitter_node: Node,
        network: Optional[Network] = None,
        scatter_overhead: float = 0.02,
        gather_overhead: float = 0.02,
        rate_window: float = 10.0,
        worker_setup_time: float = 5.0,
        chunk_size_kb: float = 32.0,
        on_result: Optional[Callable[[Task], None]] = None,
        telemetry: Any = None,
    ) -> None:
        if scatter_overhead < 0 or gather_overhead < 0:
            raise ValueError("overheads must be >= 0")
        super().__init__(
            sim,
            name=name,
            rate_window=rate_window,
            worker_setup_time=worker_setup_time,
            on_result=on_result,
            telemetry=telemetry,
        )
        self.emitter_node = emitter_node
        self.network = network
        self.scatter_overhead = scatter_overhead
        self.gather_overhead = gather_overhead
        self.chunk_size_kb = chunk_size_kb

        # Arrivals are measured at enqueue time: the dispatcher blocks
        # while a collection computes, so sampling at dequeue would
        # confuse input pressure with our own service rate.
        self.input.on_put = lambda _item: self.arrival_est.mark(self.sim.now)
        self._in_service = 0

        self._proc = sim.process(self._dispatch_loop(), name=f"{name}.dispatcher")

    def _new_worker(self, node: Node, worker_id: int, secured: bool) -> MapWorker:
        """Widen the map: future tasks scatter across one more worker."""
        return MapWorker(self.sim, self, node, worker_id, secured=secured)

    # ------------------------------------------------------------------
    # the scatter/compute/reduce loop (one collection at a time)
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> Iterator[Any]:
        while True:
            if not any(w.active for w in self.workers):
                yield self.sim.timeout(0.05)
                continue
            task = yield self.input.get()
            self._in_service = 1
            task.started_at = self.sim.now

            live = [w for w in self.workers if w.active]
            if self.scatter_overhead > 0:
                yield self.sim.timeout(self.scatter_overhead)
            chunk_work = task.work / len(live)
            done_events = []
            for w in live:
                ev = self.sim.event(f"{self.name}.chunk")
                w.queue.put_nowait(_Chunk(chunk_work, ev))
                if self.network is not None:
                    self.network.record_transfer(
                        self.sim.now,
                        self.emitter_node,
                        w.node,
                        Message(self.chunk_size_kb, "chunk", task.task_id),
                        secured=w.secured,
                    )
                done_events.append(ev)
            yield wait_all(self.sim, done_events)
            if self.gather_overhead > 0:
                yield self.sim.timeout(self.gather_overhead)

            task.completed_at = self.sim.now
            self._in_service = 0
            self._deliver(task)

    @property
    def pending(self) -> int:
        return len(self.input) + self._in_service

    # ------------------------------------------------------------------
    # actuators whose rules are the map's own
    # ------------------------------------------------------------------
    def remove_worker(self) -> Optional[MapWorker]:
        """Narrow the map (never below one worker).

        Safe at any time: chunks already scattered to the victim finish
        first (stop is lazy), and subsequent tasks scatter across the
        survivors only.
        """
        live = [w for w in self.workers if w.active]
        if len(live) <= 1:
            return None
        victim = live[-1]
        victim.active = False  # excluded from future scatters

        def finalize() -> None:
            if not len(victim.queue):
                victim.stop()
            else:
                self.sim.schedule(0.5, finalize)

        finalize()
        self.reconfigurations += 1
        return victim

    def balance_load(self) -> int:
        """Scatter is inherently balanced; nothing to move."""
        return 0

    def fail_worker(self, worker: MapWorker) -> int:
        """Crash a map worker; its outstanding chunks are re-scattered.

        Chunks are re-enqueued on survivors so the in-flight task still
        completes (the reduce waits for every chunk event).
        """
        if worker not in self.workers or worker._stopped:
            return 0
        worker.active = False
        worker._stopped = True
        if worker._proc.alive:
            worker._proc.interrupt("crash")
        recovered = 0
        survivors = [w for w in self.workers if w.active]
        pending_chunks = []
        if worker.current_chunk is not None:
            pending_chunks.append(worker.current_chunk)
            worker.current_chunk = None
        while True:
            ok, chunk = worker.queue.try_get()
            if not ok:
                break
            pending_chunks.append(chunk)
        for chunk in pending_chunks:
            if survivors:
                survivors[recovered % len(survivors)].queue.put_nowait(chunk)
            recovered += 1
        self.failures += 1
        return recovered
