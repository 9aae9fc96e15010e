"""Experiment MC-2PC — performance/security conflict and the intent protocol.

Section 3.2's running example: the farm must grow to re-establish
``c_perf``, but "if the recruited resource belongs to domain
untrusted_ip_domain_A then a violation of c_sec will arise as a result
of trying to re-establish c_perf" — unless the two-phase protocol runs:
"i) AM_perf should express the intent to add a new node, ii) AM_sec
could react by prompting securing of communications and iii) AM_perf
may then instantiate the new secure worker."

Set-up: a resource pool whose trusted nodes are exhausted by the initial
deployment, so every growth step lands in the untrusted domain.  We run
the identical scenario under the two coordination modes and compare:

* ``naive``  — AM_perf commits immediately; AM_sec only closes the hole
  at its next control tick → a positive number of **leaked** plaintext
  messages (the audit log counts every one);
* ``two-phase`` — AM_sec amends the plan before commit → **zero** leaks,
  at the cost of the secured channel's throughput overhead.

Both modes must end with the performance contract satisfied and all
untrusted-domain channels secured; only the leak window differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.behavioural import FarmBS, build_farm_bs
from ..core.contracts import MinThroughputContract, SecurityContract
from ..core.multiconcern import CoordinationMode, GeneralManager
from ..obs.events import TraceRecorder
from ..security.domains import SecurityPolicy
from ..security.manager import SecurityABC, SecurityManager
from ..sim.engine import Simulator
from ..sim.network import Network
from ..sim.resources import Domain, Node, ResourceManager
from ..sim.workload import ConstantWork, TaskSource

__all__ = ["MultiConcernConfig", "MultiConcernResult", "run_multiconcern"]


@dataclass
class MultiConcernConfig:
    mode: str = "two-phase"          # "two-phase" | "naive"
    target_throughput: float = 0.6
    worker_rate: float = 0.2
    input_rate: float = 1.0
    trusted_nodes: int = 2           # capacity 0.4 t/s: growth forced offsite
    untrusted_nodes: int = 10
    duration: float = 600.0
    perf_control_period: float = 10.0
    sec_control_period: float = 15.0  # slower than perf: the naive window
    worker_setup_time: float = 5.0
    rate_window: float = 20.0
    secure_factor: float = 1.3

    @property
    def worker_work(self) -> float:
        return 1.0 / self.worker_rate


@dataclass
class MultiConcernResult:
    config: MultiConcernConfig
    bs: FarmBS
    network: Network
    gm: GeneralManager
    sec_manager: SecurityManager
    final_throughput: float
    final_workers: int
    leaks: int
    exposed_at_end: int
    untrusted_workers: int
    secured_workers: int
    amended_intents: int
    reactive_secure_actions: int

    @property
    def trace(self) -> TraceRecorder:
        """The run's decision marks."""
        return self.bs.trace

    @property
    def perf_contract_met(self) -> bool:
        return self.final_throughput >= self.config.target_throughput * 0.9

    @property
    def security_contract_met_at_end(self) -> bool:
        return self.exposed_at_end == 0

    @property
    def leak_free(self) -> bool:
        return self.leaks == 0


def run_multiconcern(config: Optional[MultiConcernConfig] = None) -> MultiConcernResult:
    cfg = config or MultiConcernConfig()
    mode = (
        CoordinationMode.TWO_PHASE if cfg.mode == "two-phase" else CoordinationMode.NAIVE
    )
    sim = Simulator()
    network = Network(secure_factor=cfg.secure_factor)

    lan = Domain("lan", trusted=True)
    wan = Domain("untrusted_ip_domain_A", trusted=False)
    nodes = [Node(f"t{i}", domain=lan) for i in range(cfg.trusted_nodes)] + [
        Node(f"u{i}", domain=wan) for i in range(cfg.untrusted_nodes)
    ]
    rm = ResourceManager(nodes)

    bs = build_farm_bs(
        sim,
        rm,
        name="farm",
        worker_work=cfg.worker_work,
        initial_degree=cfg.trusted_nodes,  # fill the trusted capacity
        network=network,
        control_period=cfg.perf_control_period,
        worker_setup_time=cfg.worker_setup_time,
        rate_window=cfg.rate_window,
        constants_kwargs={"add_burst": 1, "max_workers": len(nodes)},
        spawn_worker_managers=False,
        emitter_node=Node("frontend", domain=lan),
    )

    policy = SecurityPolicy()
    sec_abc = SecurityABC([bs.abc], network, policy)
    sec_manager = SecurityManager(
        "AM_sec",
        sim,
        sec_abc,
        telemetry=bs.manager.telemetry,
        control_period=cfg.sec_control_period,
    )
    sec_manager.assign_contract(SecurityContract())

    gm = GeneralManager(mode=mode, telemetry=bs.manager.telemetry)
    gm.register(sec_manager)            # boolean concern: priority 10
    gm.register(bs.manager, priority=0)

    TaskSource(
        sim,
        bs.farm.input,
        rate=cfg.input_rate,
        work_model=ConstantWork(cfg.worker_work),
        name="stream",
    )
    bs.assign_contract(MinThroughputContract(cfg.target_throughput))
    sim.run(until=cfg.duration)

    snap = bs.farm.force_snapshot()
    live_workers = [w for w in bs.farm.workers if not w._stopped]
    untrusted_workers = [w for w in live_workers if not w.node.trusted]

    return MultiConcernResult(
        config=cfg,
        bs=bs,
        network=network,
        gm=gm,
        sec_manager=sec_manager,
        final_throughput=snap.departure_rate,
        final_workers=snap.num_workers,
        leaks=network.leak_count,
        exposed_at_end=len(sec_abc.exposed_workers()),
        untrusted_workers=len(untrusted_workers),
        secured_workers=sum(1 for w in live_workers if w.secured),
        amended_intents=sum(r.amendments for r in gm.intents),
        reactive_secure_actions=sec_abc.secured_actions,
    )
