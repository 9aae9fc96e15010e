"""The substrate contract every live farm backend satisfies.

The paper's behavioural skeletons separate *mechanism* (the pattern
implementation with its monitoring and actuator interfaces) from
*policy* (the rule set the autonomic manager evaluates).  This module
pins down the mechanism side for wall-clock substrates: anything that
implements :class:`FarmBackend` — the thread, process and distributed
farms built on :class:`~repro.runtime.farm_core.FarmCore`, and the
supervised and sharded farms that wrap them — can be driven by
:class:`~repro.runtime.controller.FarmController` with the *unmodified*
Figure 5 rules, exactly as the simulated
:class:`~repro.sim.farm.SimFarm` is driven by the simulated managers.

The protocol is structural (:class:`typing.Protocol`): backends do not
inherit from it, they just provide the surface.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Protocol, runtime_checkable

__all__ = ["FarmBackend", "RuntimeFarmSnapshot", "drain_queue"]


def drain_queue(results: "queue.Queue[Any]", count: int, timeout: float) -> List[Any]:
    """Collect ``count`` items from a results queue, all or nothing.

    Every backend's ``drain_results`` is this — the wrappers' as well as
    the core's, which is why it lives beside the protocol.  Whatever is
    ready, up to ``count``, is taken under one acquisition of the
    queue's mutex; it waits only while the queue is empty.  On timeout
    the items already collected go back to the *head* of the queue, in
    order, so a caller that retries (or drains fewer) loses nothing.
    The queue is unbounded: no producer waits on ``not_full``.
    """
    out: List[Any] = []
    deadline = time.monotonic() + timeout
    ready = results.queue
    with results.not_empty:
        while True:
            take = min(count - len(out), len(ready))
            if take == len(ready):
                out.extend(ready)
                ready.clear()
            else:
                out.extend(ready.popleft() for _ in range(take))
            if len(out) >= count:
                return out
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                ready.extendleft(reversed(out))
                results.not_empty.notify(len(out))
                raise TimeoutError(f"collected {len(out)}/{count} results")
            results.not_empty.wait(remaining)


@dataclass(frozen=True)
class RuntimeFarmSnapshot:
    """One monitoring sample of a live farm (mirrors the sim's FarmSnapshot).

    This is the monitoring half of the ABC surface: every field maps to
    one of the beans the Figure 5 rules match on (arrival/departure rate,
    worker count, queue variance) plus the latency-SLA extension.
    """

    time: float
    arrival_rate: float
    departure_rate: float
    num_workers: int
    queue_lengths: tuple
    queue_variance: float
    completed: int
    pending: int
    #: mean completion latency over the monitoring window (0 if none)
    mean_latency: float = 0.0
    #: workers admitted to the farm but held out of dispatch (the
    #: admission gate of the two-phase intent protocol; not counted in
    #: ``num_workers``, which is serving capacity)
    quarantined: int = 0


@runtime_checkable
class FarmBackend(Protocol):
    """Monitoring + actuator surface of a live task farm.

    Monitoring (sampled each MAPE tick)::

        snapshot()     -> RuntimeFarmSnapshot
        num_workers    -> int (live workers)
        now()          -> float (seconds since the farm started)

    Actuators (fired by rule actions)::

        add_worker()    grow the farm by one executor
        remove_worker() retire one executor, preserving its queued tasks
        balance_load()  redistribute queued tasks across executors
        secure_all()    switch task channels to encrypted payloads

    Admission gate (the mechanism half of the two-phase intent
    protocol — see docs/MULTICONCERN.md)::

        add_worker(quarantined=True)  executor joins held out of dispatch
        secure_worker(worker_id)      secure one executor's channel
        admit_worker(worker_id)       lift the gate; dispatch may begin
        quarantined_workers           how many executors sit at the gate

    A quarantined executor is alive (connected, heart-beating) but the
    dispatcher never selects it — not for fresh submits, not for
    rebalancing, not for fault replays — until ``admit_worker`` commits
    it.  That is the window in which a coordinator secures the channel,
    so no task can ever travel to an executor the security concern has
    not signed off on.

    Stream interface::

        submit(payload)          dispatch one task
        drain_results(n, ...)    collect n results (completion order)
        shutdown()               stop every executor
    """

    name: str

    # -- time base ------------------------------------------------------
    def now(self) -> float: ...

    # -- stream ---------------------------------------------------------
    def submit(self, payload: Any, *, tenant: Optional[str] = None) -> None:
        """Accept one task.  ``tenant`` (optional) is stamped on the
        task's root trace span for per-tenant narration."""
        ...

    def drain_results(self, count: int, timeout: float = 30.0) -> List[Any]: ...

    # -- monitoring -----------------------------------------------------
    def snapshot(self) -> RuntimeFarmSnapshot: ...

    @property
    def num_workers(self) -> int: ...

    # -- actuators ------------------------------------------------------
    def add_worker(self, *, secured: bool = False, quarantined: bool = False) -> Any: ...

    def remove_worker(self) -> Optional[Any]: ...

    def balance_load(self) -> int: ...

    def secure_all(self) -> None: ...

    # -- admission gate -------------------------------------------------
    def secure_worker(self, worker_id: int) -> bool: ...

    def admit_worker(self, worker_id: int) -> bool: ...

    @property
    def quarantined_workers(self) -> int: ...

    # -- shutdown -------------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> None: ...
