"""Behavioural skeletons: ⟨parallel pattern, autonomic manager⟩ pairs.

"A behavioural skeleton is a pair ⟨P, M_C⟩, where P is a well known
parallelism exploitation pattern and M_C is an AM taking care of a
concern C in the computation of P." (§3)

A :class:`BehaviouralSkeleton` bundles the pattern's *mechanism* (the
simulated farm/stage entities), its GCM composite component with the AM
and ABC in the membrane, and the manager itself.  The builders assemble
the two configurations the paper evaluates:

* :func:`build_farm_bs` — a single task-farm BS (Figure 3's set-up);
* :func:`build_three_stage_pipeline` — the Figure 4 application,
  ``pipeline(seq producer, farm(seq) filter, seq consumer)`` with the
  four-manager hierarchy AM_A / AM_P / AM_F / AM_C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from ..gcm.abc_controller import (
    AutonomicBehaviourController,
    FarmABC,
    ProducerABC,
    StageABC,
)
from ..gcm.component import CompositeComponent
from ..gcm.controllers import (
    BindingController,
    ContentController,
    LifecycleController,
    install_standard_controllers,
)
from ..obs.clock import SimClock
from ..obs.events import TraceRecorder
from ..obs.telemetry import Telemetry
from ..sim.engine import Simulator
from ..sim.farm import SimFarm
from ..sim.network import Network
from ..sim.pipeline import Forwarder, SeqStage, SimPipeline
from ..sim.queues import Store
from ..sim.resources import Node, ResourceManager
from ..sim.workload import TaskSource, WorkModel
from ..skeletons.ast import Farm as FarmSkel
from ..skeletons.ast import Pipe as PipeSkel
from ..skeletons.ast import Seq as SeqSkel
from ..skeletons.ast import Skeleton
from .contracts import Contract
from .manager import AutonomicManager
from .skeleton_manager import (
    ConsumerManager,
    FarmManager,
    PipelineManager,
    ProducerManager,
)

__all__ = ["BehaviouralSkeleton", "FarmBS", "PipelineApp", "build_farm_bs", "build_map_bs", "build_three_stage_pipeline"]

AM_CONTROLLER = "autonomic-manager"


@dataclass
class BehaviouralSkeleton:
    """⟨pattern, manager⟩ plus the GCM component realising it."""

    pattern: Skeleton
    manager: AutonomicManager
    component: CompositeComponent
    abc: Optional[AutonomicBehaviourController] = None
    children: List["BehaviouralSkeleton"] = field(default_factory=list)

    def assign_contract(self, contract: Contract) -> None:
        """Hand the user SLA to this BS's (top-level) manager."""
        self.manager.assign_contract(contract)

    @property
    def trace(self) -> TraceRecorder:
        return self.manager.trace


def _make_component(name: str, manager: AutonomicManager, abc: Any) -> CompositeComponent:
    comp = install_standard_controllers(CompositeComponent(name))
    comp.add_controller(AM_CONTROLLER, manager)
    if abc is not None:
        comp.add_controller(AutonomicBehaviourController.NAME, abc)
    comp.add_server_interface(
        "contract", manager.assign_contract, functional=False
    )
    return comp


@dataclass
class FarmBS(BehaviouralSkeleton):
    """A task-farm behavioural skeleton with its simulated mechanism."""

    farm: SimFarm = None  # type: ignore[assignment]
    resources: ResourceManager = None  # type: ignore[assignment]

    def current_pattern(self) -> FarmSkel:
        """The skeleton tree reflecting the *live* parallelism degree.

        ``pattern`` records the configuration at build time; the manager
        reconfigures the mechanism underneath it, and this accessor
        re-reads the degree so cost-model queries stay truthful.
        """
        assert isinstance(self.pattern, FarmSkel)
        return self.pattern.with_degree(max(1, self.farm.num_workers))


def build_farm_bs(
    sim: Simulator,
    resources: ResourceManager,
    *,
    name: str = "farm",
    worker_work: float,
    initial_degree: int = 1,
    network: Optional[Network] = None,
    control_period: float = 10.0,
    worker_setup_time: float = 5.0,
    rate_window: float = 10.0,
    emitter_node: Optional[Node] = None,
    constants_kwargs: Optional[dict] = None,
    spawn_worker_managers: bool = True,
    on_result: Optional[Callable[..., None]] = None,
    policy: str = "standard",
    telemetry: Optional[Telemetry] = None,
) -> FarmBS:
    """Assemble a task-farm BS (Figure 3 configuration).

    ``worker_work`` is the per-task work in seconds-at-unit-speed (the
    simulated image-filter cost); ``initial_degree`` workers are
    bootstrapped immediately from ``resources``.  With
    ``initial_degree=0`` the manager instead performs model-based initial
    deployment when its contract arrives (§3's "initial parallelism
    degree setup": ``optimal_degree`` workers straight away).
    Without a ``telemetry`` the BS records on its own one, on ``sim``'s
    clock.
    """
    telemetry = telemetry if telemetry is not None else Telemetry(SimClock(sim))
    emitter = emitter_node or Node(f"{name}-frontend")
    farm = SimFarm(
        sim,
        name=name,
        emitter_node=emitter,
        network=network,
        worker_setup_time=worker_setup_time,
        rate_window=rate_window,
        on_result=on_result,
        telemetry=telemetry,
    )
    abc = FarmABC(farm, resources)
    from .policies import ManagersConstants

    constants = ManagersConstants(**(constants_kwargs or {}))
    manager = FarmManager(
        f"AM_{name}",
        sim,
        abc,
        constants=constants,
        control_period=control_period,
        manage_workers=spawn_worker_managers,
        policy=policy,
        worker_work=worker_work,
        telemetry=telemetry,
    )
    if initial_degree > 0:
        abc.bootstrap(initial_degree)
        if spawn_worker_managers:
            manager.spawn_worker_managers()
    component = _make_component(name, manager, abc)
    pattern = FarmSkel(SeqSkel(worker_work), degree=max(1, initial_degree))
    return FarmBS(
        pattern=pattern,
        manager=manager,
        component=component,
        abc=abc,
        farm=farm,
        resources=resources,
    )


def build_map_bs(
    sim: Simulator,
    resources: ResourceManager,
    *,
    name: str = "map",
    initial_degree: int = 1,
    network: Optional[Network] = None,
    control_period: float = 10.0,
    worker_setup_time: float = 5.0,
    rate_window: float = 10.0,
    scatter_overhead: float = 0.02,
    gather_overhead: float = 0.02,
    emitter_node: Optional[Node] = None,
    constants_kwargs: Optional[dict] = None,
    policy: str = "standard",
    on_result: Optional[Callable[..., None]] = None,
    telemetry: Optional[Telemetry] = None,
) -> FarmBS:
    """Assemble a data-parallel map BS.

    Same manager stack as :func:`build_farm_bs` — the map is the
    scatter/reduce variant of functional replication (§3), so a
    :class:`FarmManager` over a :class:`~repro.gcm.abc_controller.
    FarmABC` drives it unchanged.  Tasks are *collections*: each is
    scattered across all current workers and reduced back to one result.
    """
    from ..sim.map import SimMap

    telemetry = telemetry if telemetry is not None else Telemetry(SimClock(sim))
    emitter = emitter_node or Node(f"{name}-frontend")
    smap = SimMap(
        sim,
        name=name,
        emitter_node=emitter,
        network=network,
        scatter_overhead=scatter_overhead,
        gather_overhead=gather_overhead,
        worker_setup_time=worker_setup_time,
        rate_window=rate_window,
        on_result=on_result,
    )
    abc = FarmABC(smap, resources)  # type: ignore[arg-type]
    from .policies import ManagersConstants

    constants = ManagersConstants(**(constants_kwargs or {}))
    manager = FarmManager(
        f"AM_{name}",
        sim,
        abc,
        constants=constants,
        control_period=control_period,
        manage_workers=False,
        policy=policy,
        telemetry=telemetry,
    )
    if initial_degree > 0:
        abc.bootstrap(initial_degree)
    component = _make_component(name, manager, abc)
    # the skeleton algebra models a map as a farm with scatter dispatch
    pattern = FarmSkel(
        SeqSkel(1.0), degree=max(1, initial_degree), dispatch="scatter", collect="reduce"
    )
    return FarmBS(
        pattern=pattern,
        manager=manager,
        component=component,
        abc=abc,
        farm=smap,  # type: ignore[arg-type]
        resources=resources,
    )


@dataclass
class PipelineApp:
    """The Figure 4 application: mechanisms, managers, plumbing."""

    sim: Simulator
    pattern: Skeleton
    # mechanisms
    source: TaskSource
    farm: SimFarm
    consumer_stage: SeqStage
    pipeline: SimPipeline
    resources: ResourceManager
    network: Optional[Network]
    # managers (the paper's names)
    am_a: PipelineManager
    am_p: ProducerManager
    am_f: FarmManager
    am_c: ConsumerManager
    # components
    component: CompositeComponent

    def assign_contract(self, contract: Contract) -> None:
        self.am_a.assign_contract(contract)

    def cores_in_use(self) -> int:
        """Resources used right now: producer + consumer + farm workers.

        The Figure 4 bottom graph: the two sequential stages run on one
        core each; every (active or deploying) farm worker adds one.
        """
        farm_nodes = len(self.am_f.farm_abc.nodes_in_use)
        return 2 + farm_nodes

    @property
    def delivered(self) -> int:
        return self.pipeline.delivered

    @property
    def trace(self) -> TraceRecorder:
        return self.am_a.trace


def build_three_stage_pipeline(
    sim: Simulator,
    resources: ResourceManager,
    *,
    work_model: WorkModel,
    worker_work: float,
    initial_rate: float,
    max_rate: Optional[float] = None,
    total_tasks: Optional[int] = None,
    initial_degree: int = 3,
    producer_work: float = 0.0,
    consumer_work: float = 0.1,
    control_period: float = 10.0,
    worker_setup_time: float = 5.0,
    rate_window: float = 10.0,
    network: Optional[Network] = None,
    spawn_worker_managers: bool = False,
    inc_factor: float = 1.3,
    dec_factor: float = 0.92,
    name: str = "app",
    telemetry: Optional[Telemetry] = None,
) -> PipelineApp:
    """Assemble Figure 4's ``pipeline(seq, farm(seq), seq)`` application.

    The producer is a rate-controllable :class:`TaskSource` (its initial
    rate deliberately set by the caller — Figure 4 starts it too low);
    the filter is a task farm bootstrapped at ``initial_degree``; the
    consumer drains results.  The manager hierarchy AM_A→{AM_P, AM_F,
    AM_C} is fully wired, including end-of-stream notification.  All
    four record on ``telemetry`` (by default one on ``sim``'s clock).
    """
    telemetry = telemetry if telemetry is not None else Telemetry(SimClock(sim))

    producer_node = Node(f"{name}-producer")
    consumer_node = Node(f"{name}-consumer")

    farm = SimFarm(
        sim,
        name=f"{name}.filter",
        emitter_node=Node(f"{name}-frontend"),
        network=network,
        worker_setup_time=worker_setup_time,
        rate_window=rate_window,
        telemetry=telemetry,
    )

    # consumer: drains the farm's output through a forwarder
    consumer_in = Store(sim, name=f"{name}.consumer.in")
    Forwarder(sim, farm.output, consumer_in, name=f"{name}.fwd")
    pipeline = SimPipeline(sim, [farm], name=name)
    consumer_stage = SeqStage(
        sim,
        name=f"{name}.consumer",
        node=consumer_node,
        input_store=consumer_in,
        output_store=None,
        service_work=consumer_work,
        rate_window=rate_window,
        on_done=pipeline.record_delivery,
    )

    # managers (children created before the source so the end-of-stream
    # callback can reach AM_A)
    farm_abc = FarmABC(farm, resources)
    am_f = FarmManager(
        "AM_F",
        sim,
        farm_abc,
        control_period=control_period,
        manage_workers=spawn_worker_managers,
        telemetry=telemetry,
    )

    consumer_abc = StageABC(consumer_stage)
    am_c = ConsumerManager(
        "AM_C",
        sim,
        consumer_abc,
        control_period=control_period,
        telemetry=telemetry,
    )

    am_a = PipelineManager(
        "AM_A",
        sim,
        control_period=control_period,
        inc_factor=inc_factor,
        dec_factor=dec_factor,
        telemetry=telemetry,
    )

    source = TaskSource(
        sim,
        farm.input,
        rate=initial_rate,
        work_model=work_model,
        total=total_tasks,
        max_rate=max_rate,
        name=f"{name}.producer",
        on_end_of_stream=lambda: (
            farm.notify_end_of_stream(),
            am_a.notify_end_of_stream(),
        ),
    )
    producer_abc = ProducerABC(source)
    am_p = ProducerManager(
        "AM_P",
        sim,
        producer_abc,
        control_period=control_period,
        telemetry=telemetry,
    )

    am_a.producer = am_p
    am_a.add_child(am_p)
    am_a.add_child(am_f)
    am_a.add_child(am_c)

    if initial_degree > 0:
        farm_abc.bootstrap(initial_degree)
        if spawn_worker_managers:
            am_f.spawn_worker_managers()

    pipeline.stages.insert(0, source)
    pipeline.stages.append(consumer_stage)

    pattern = PipeSkel(
        SeqSkel(producer_work if producer_work > 0 else 0.0, label="producer"),
        FarmSkel(SeqSkel(worker_work), degree=max(1, initial_degree)),
        SeqSkel(consumer_work, label="consumer"),
    )

    # GCM structure: the application is a composite whose membrane hosts
    # AM_A; each stage is a child component with its manager and ABC in
    # its own membrane, and the inter-stage data flow is expressed as
    # bindings created through the composite's BindingController
    # (Figure 2, right).
    component = _make_component(name, am_a, None)
    content: ContentController = component.controller(ContentController.NAME)
    bindings: BindingController = component.controller(BindingController.NAME)

    producer_comp = _make_component(f"{name}.producer", am_p, producer_abc)
    filter_comp = _make_component(f"{name}.filter", am_f, farm_abc)
    consumer_comp = _make_component(f"{name}.consumer", am_c, consumer_abc)

    producer_out = producer_comp.add_client_interface("out")
    filter_in = filter_comp.add_server_interface("in", farm.submit)
    filter_out = filter_comp.add_client_interface("out")
    consumer_in_itf = consumer_comp.add_server_interface("in", consumer_in.put_nowait)

    for child in (producer_comp, filter_comp, consumer_comp):
        content.add(child)
    bindings.bind(producer_out, filter_in)
    bindings.bind(filter_out, consumer_in_itf)
    component.controller(LifecycleController.NAME).start()

    return PipelineApp(
        sim=sim,
        pattern=pattern,
        source=source,
        farm=farm,
        consumer_stage=consumer_stage,
        pipeline=pipeline,
        resources=resources,
        network=network,
        am_a=am_a,
        am_p=am_p,
        am_f=am_f,
        am_c=am_c,
        component=component,
    )
