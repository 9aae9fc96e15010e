"""Live autonomic control of a farm backend: the same manager, a real clock.

:class:`FarmController` *is* the paper's farm manager
(:class:`~repro.core.skeleton_manager.FarmManager`: the Figure 5 rules,
the MAPE cycle, contract → thresholds, the operation sink, P_rol) — the
class the simulated experiments run — over the paper's ABC (monitor +
actuators, §4.1), :class:`~repro.gcm.abc_controller.FarmABC`, the very
class that drives the simulated farms, and one thing that differs on a
live substrate:

* :class:`WallTimeBase` — the manager's time base on the farm's wall
  clock: the control loop ticks on a daemon thread.

``FarmABC`` drives any :class:`~repro.runtime.backend.FarmBackend`
through its admission gate, so
:class:`~repro.runtime.farm_runtime.ThreadFarm`,
:class:`~repro.runtime.process_farm.ProcessFarm` and
:class:`~repro.runtime.dist_farm.DistFarm` are interchangeable
underneath it.  The same seams put the §3.2 managers on the wall clock:
:class:`~repro.core.multiconcern.GeneralManager` plans, commits and
aborts grows through the one ``FarmABC`` on either clock, and
:class:`~repro.security.manager.SecurityManager` ticks on a
:class:`WallTimeBase`.  Policy never learns which substrate it steers;
``tests/runtime/test_decision_replay.py`` and
``test_multiconcern_replay.py`` hold the two clocks to the same
decisions.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from ..core.contracts import Contract
from ..core.policies import ManagersConstants
from ..core.skeleton_manager import FarmManager
from ..gcm.abc_controller import FarmABC
from ..obs.telemetry import Telemetry
from ..sim.resources import ResourceManager
from .backend import FarmBackend

__all__ = ["FarmController", "WallTimeBase"]


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
            FarmABC(farm, resources),
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
