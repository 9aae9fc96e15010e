"""The security autonomic manager (AM_sec) and its ABC.

Section 3.2's second concern hierarchy: a manager whose goal is that no
plaintext data crosses untrusted network segments.  It participates in
multi-concern coordination in two ways:

* **reactively** — its own MAPE loop scans the managed farms for
  *exposed* workers (unsecured bindings to untrusted nodes) and for
  recorded leaks, and fires ``SECURE_CHANNEL`` to close the hole.  This
  is the only defence available in *naive* coordination mode and is
  inherently late: messages sent between the worker's instantiation and
  the next security tick leak (the window the paper warns about).
* **proactively** — :meth:`SecurityManager.review_intent` implements
  phase two of the two-phase intent protocol: when AM_perf proposes new
  workers, any reserved node in an untrusted domain gets its plan entry
  amended to ``secure`` *before* instantiation, so not a single message
  leaks; a node in a domain whose trust was revoked outright vetoes the
  whole plan.

The same manager runs on both clocks, on the simulator or on a
:class:`~repro.runtime.controller.WallTimeBase`, over the one
:class:`~repro.gcm.abc_controller.FarmABC` — :class:`SecurityABC` only
asks a farm ABC for its (worker, node) bindings and to secure one
worker.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..gcm.abc_controller import AutonomicBehaviourController, PlannedReconfiguration
from ..rules.beans import Bean, ManagerOperation
from ..rules.dsl import rule, value_gt
from ..sim.network import Network
from ..core.contracts import Contract, SecurityContract
from ..core.events import Events
from ..core.manager import AutonomicManager, TimeBase
from ..core.multiconcern import ConcernReview
from .domains import SecurityPolicy

__all__ = [
    "SecurityABC",
    "SecurityManager",
    "ExposureBean",
    "LeakBean",
]


class ExposureBean(Bean):
    """Number of exposed workers (unsecured channels to untrusted nodes)."""


class LeakBean(Bean):
    """Number of plaintext messages that have crossed untrusted links."""


class SecurityABC(AutonomicBehaviourController):
    """Monitoring + actuators for the security concern.

    Oversees one or more farm ABCs plus the network audit log (``None``
    on a live substrate, where the farms count insecure dispatches).
    """

    _OPS = frozenset({ManagerOperation.SECURE_CHANNEL})

    def __init__(
        self,
        farm_abcs: List[Any],
        network: Optional[Network],
        policy: SecurityPolicy,
    ) -> None:
        self.farm_abcs = list(farm_abcs)
        self.network = network
        self.policy = policy
        self.secured_actions = 0

    # -- monitoring ------------------------------------------------------
    def _exposed(self) -> List[Tuple[Any, Any]]:
        """``(farm ABC, worker)`` for every channel violating the policy."""
        return [
            (fabc, w)
            for fabc in self.farm_abcs
            for w, node in fabc.bindings()
            if self.policy.worker_exposed(fabc.emitter_node, node, w.secured)
        ]

    def exposed_workers(self) -> List[Any]:
        """All farm workers whose channel violates the policy right now."""
        return [w for _, w in self._exposed()]

    def monitor(self) -> Optional[Dict[str, Any]]:
        return {
            "insecure_untrusted_workers": len(self._exposed()),
            "leak_count": self.network.leak_count if self.network else 0,
            "secured_actions": self.secured_actions,
        }

    # -- actuators ---------------------------------------------------------
    def supported_operations(self) -> FrozenSet[ManagerOperation]:
        return self._OPS

    def execute(self, op: ManagerOperation, data: Any = None) -> bool:
        if op is ManagerOperation.SECURE_CHANNEL:
            for fabc, w in self._exposed():
                if fabc.secure(w):
                    self.secured_actions += 1
            return True
        raise ValueError(f"SecurityABC does not implement {op}")


class SecurityManager(AutonomicManager, ConcernReview):
    """AM_sec: keeps every channel crossing untrusted ground secured.

    ``veto_domains`` names domains whose trust was revoked outright: a
    plan reserving a node there must not host a worker even over a
    secured channel, so :meth:`review_intent` vetoes it.
    """

    def __init__(
        self,
        name: str,
        sim: TimeBase,
        abc: SecurityABC,
        *,
        veto_domains: Iterable[str] = (),
        **kwargs: Any,
    ) -> None:
        kwargs.setdefault("concern", "security")
        super().__init__(name, sim, abc=abc, **kwargs)
        self.security_abc = abc
        self.veto_domains = frozenset(veto_domains)
        self.amendments = 0  # nodes amended to run secured
        self.vetoes = 0
        self.engine.add_rules(self._rules())

    def _rules(self):
        def secure_exposed(act):
            act["exposure"].fire_operation(ManagerOperation.SECURE_CHANNEL)

        return [
            rule("SecureExposedWorkers")
            .doc("close any unsecured channel to an untrusted node")
            .salience(50)
            .when(ExposureBean, value_gt(0), bind="exposure")
            .then(secure_exposed),
        ]

    # -- MAPE hooks --------------------------------------------------------
    def on_contract(self, contract: Contract) -> None:
        if not isinstance(contract, SecurityContract):
            raise ValueError(
                f"{self.name}: security manager needs a SecurityContract, "
                f"got {type(contract).__name__}"
            )

    def observe(self, data: Mapping[str, Any]) -> None:
        mem = self.engine.memory
        mem.replace(self.make_bean(ExposureBean(data["insecure_untrusted_workers"])))
        mem.replace(self.make_bean(LeakBean(data["leak_count"])))
        tel = self.telemetry
        if tel.enabled:
            tel.metrics.gauge(
                "repro_security_exposed_workers",
                "workers with unsecured channels to untrusted nodes",
            ).labels(manager=self.name).set(data["insecure_untrusted_workers"])
            tel.metrics.gauge(
                "repro_security_leaked_messages",
                "plaintext messages that crossed untrusted links",
            ).labels(manager=self.name).set(data["leak_count"])

    def on_operation(self, op: ManagerOperation, data: Any) -> None:
        if op is ManagerOperation.SECURE_CHANNEL:
            n_before = len(self.security_abc.exposed_workers())
            secured_before = self.security_abc.secured_actions
            self.security_abc.execute(op, data)
            self._mark(Events.SECURE_WORKER, count=n_before)
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "repro_mc_reactive_secured_total",
                    "channels secured reactively, after instantiation",
                ).labels(manager=self.name).inc(
                    self.security_abc.secured_actions - secured_before
                )
            return
        super().on_operation(op, data)

    # -- two-phase protocol (phase 2) ---------------------------------------
    def review_intent(
        self, originator: AutonomicManager, plan: PlannedReconfiguration
    ) -> bool:
        """Veto a plan touching a revoked domain; otherwise amend it so
        every untrusted reserved node runs secured.

        Short of revocation security is always *achievable* by securing
        the channel; it just costs throughput (the perf/sec trade-off the
        paper leaves to the GM's contract arithmetic).
        """
        tel = self.telemetry
        for node in plan.nodes:
            if node.domain.name in self.veto_domains:
                self.vetoes += 1
                tel.event("security.veto", node=node.name, domain=node.domain.name)
                return False
        amended = []
        for node in plan.nodes:
            if not self.security_abc.policy.node_trusted(node):
                plan.require_secure(node)
                amended.append(node.name)
        if amended:
            self.amendments += len(amended)
            tel.event("security.amend", nodes=amended)
        return True
