"""One shard of a :class:`ShardedFarm`: a full farm under its own AM.

A shard is exactly the paper's managed component, unchanged: a
:class:`~repro.runtime.backend.FarmBackend` (thread, process or dist)
with a :class:`~repro.runtime.controller.FarmController` running the
unmodified Figure 5 rule set against its *sub*-contract.  The only
additions are the three calls the parent manager makes on it:

* :meth:`FarmShard.poll` — a :class:`ShardReport` combining the
  farm's monitor snapshot with the violations the shard's controller
  raised since the previous poll (the upward half of §3.1's
  "violations propagate to the parent");
* :meth:`FarmShard.set_budget` — the downward capacity lever: the
  parent adjusts ``FARM_MAX_NUM_WORKERS`` so the shard's own rules can
  (or can no longer) grow it, actively shrinking when the shard already
  exceeds its new budget;
* :meth:`FarmShard.assign_contract` — sub-contract (re)assignment,
  forwarded to the controller's atomic swap.

A :class:`FarmShard` is therefore its own in-process link: the parent
calls it directly, or — across a TCP boundary — calls a
:class:`~repro.runtime.hierarchy.wire.TcpShardLink` whose
:class:`~repro.runtime.hierarchy.wire.ShardAgent` calls it.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...core.contracts import Contract
from ...obs.telemetry import NOOP, Telemetry
from ..backend import FarmBackend
from ..controller import FarmController

__all__ = ["FarmShard", "ShardReport"]


@dataclass
class ShardReport:
    """One monitoring sample a shard sends up to its parent.

    JSON-serialisable by construction (``violations`` are
    ``[time, kind]`` pairs) so the same dataclass crosses the TCP link
    unchanged — the parent cannot tell a local shard from a remote one
    by its reports.
    """

    shard_id: int
    time: float
    arrival_rate: float
    departure_rate: float
    num_workers: int
    budget: int
    completed: int
    pending: int
    mean_latency: float
    queue_variance: float
    contract: str = ""
    violations: List[Tuple[float, str]] = field(default_factory=list)

    def to_wire(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ShardReport":
        fields = dict(data)
        fields["violations"] = [
            (float(t), str(kind)) for t, kind in fields.get("violations", [])
        ]
        return cls(**fields)


class FarmShard:
    """A farm + its Figure 5 controller, packaged as one managed shard."""

    def __init__(
        self,
        shard_id: int,
        farm: FarmBackend,
        contract: Contract,
        *,
        control_period: float = 0.5,
        budget: int = 16,
        telemetry: Optional[Telemetry] = None,
        name: Optional[str] = None,
    ) -> None:
        self.shard_id = shard_id
        self.farm = farm
        self.name = name or f"shard{shard_id}"
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.controller = FarmController(
            farm,
            contract,
            control_period=control_period,
            max_workers=budget,
            telemetry=telemetry,
            name=f"AM_{self.name}",
        )
        # the budget is a hard cap: mirror it onto the farm itself so a
        # refused grow becomes a noLocalPlan violation (the starvation
        # signal the parent rebalances on) instead of silent overgrowth
        farm.max_workers = budget
        self._lock = threading.Lock()
        self._violation_cursor = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FarmShard":
        self.controller.start()
        return self

    def stop(self) -> None:
        self.controller.stop()

    # ------------------------------------------------------------------
    # the parent-facing management surface
    # ------------------------------------------------------------------
    @property
    def budget(self) -> int:
        return self.controller.constants.FARM_MAX_NUM_WORKERS

    def assign_contract(self, contract: Contract) -> None:
        """Swap this shard's sub-contract (atomic w.r.t. its MAPE cycle)."""
        self.controller.assign_contract(contract)

    def set_budget(self, budget: int) -> int:
        """Re-cap this shard's worker budget; shrink actively if over it.

        Returns the number of workers actually removed (0 when the shard
        was already within the new budget).  Removal drains gracefully —
        the backend's ``remove_worker`` poisons a worker *after* its
        queued tasks, so no task is lost by a shrink.
        """
        if budget < 1:
            raise ValueError("shard budget must be at least 1")
        self.controller.constants.FARM_MAX_NUM_WORKERS = budget
        self.farm.max_workers = budget
        removed = 0
        while self.farm.num_workers > budget:
            if self.farm.remove_worker() is None:
                break
            removed += 1
        return removed

    def poll(self) -> ShardReport:
        """Snapshot + violations raised since the last poll."""
        snap = self.farm.snapshot()
        with self._lock:
            violations = self.controller.violations
            fresh = list(violations[self._violation_cursor:])
            self._violation_cursor = len(violations)
        return ShardReport(
            shard_id=self.shard_id,
            time=snap.time,
            arrival_rate=snap.arrival_rate,
            departure_rate=snap.departure_rate,
            num_workers=snap.num_workers,
            budget=self.budget,
            completed=snap.completed,
            pending=snap.pending,
            mean_latency=snap.mean_latency,
            queue_variance=snap.queue_variance,
            contract=self.controller.contract.describe(),
            violations=fresh,
        )
