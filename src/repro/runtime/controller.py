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

Policy never learns which substrate it steers; ``tests/runtime/
test_decision_replay.py`` holds the two clocks to the same decisions.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional

from ..core.contracts import Contract
from ..core.policies import ManagersConstants
from ..core.skeleton_manager import FarmManager
from ..gcm.abc_controller import ABCError, AutonomicBehaviourController
from ..obs.telemetry import Telemetry
from ..rules.beans import ManagerOperation
from .backend import FarmBackend

__all__ = ["FarmController", "LiveFarmABC", "WallTimeBase"]


class LiveFarmABC(AutonomicBehaviourController):
    """ABC for a live task farm: ``snapshot()`` in, actuator calls out."""

    _OPS = frozenset(
        {
            ManagerOperation.ADD_EXECUTOR,
            ManagerOperation.REMOVE_EXECUTOR,
            ManagerOperation.BALANCE_LOAD,
        }
    )

    def __init__(self, farm: FarmBackend) -> None:
        self.farm = farm
        self.last_balance_moved = 0

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
            return self.farm.remove_worker() is not None
        if op is ManagerOperation.BALANCE_LOAD:
            self.last_balance_moved = self.farm.balance_load()
            return True
        raise ABCError(f"LiveFarmABC does not implement {op}")


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

    def cancel(self) -> None:
        self._cancel.set()

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

    When a :class:`~repro.runtime.multiconcern.LiveGeneralManager` has
    registered this controller (setting :attr:`coordinator`), grow
    actuations become *intents*: they route through the GM's two-phase
    protocol, where other concern managers may amend or veto them,
    instead of reaching ``farm.add_worker()`` directly.
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
    ) -> None:
        constants = constants or ManagersConstants()
        if max_workers is not None:
            constants.FARM_MAX_NUM_WORKERS = max_workers
        self.farm = farm
        super().__init__(
            name,
            WallTimeBase(farm.now),
            LiveFarmABC(farm),
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
        """Stop ticking and wait up to ``timeout`` for an in-flight cycle."""
        super().stop()
        if self._loop is not None:
            self._loop.join(timeout)

    @property
    def _thread(self) -> Optional[threading.Thread]:
        return self._loop
