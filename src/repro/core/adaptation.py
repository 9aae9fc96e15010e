"""Run-time pattern adaptation: the §4.2 stage-to-farm transformation.

"in the pipeline stage case we are investigating ways to transform the
pipeline stage into a farm with the workers behaving as instances of
the original stage" (§4.2).  This module completes that investigation
for the simulated substrate:

:func:`promote_stage_to_farm` performs the mechanism rewiring — stop the
:class:`~repro.sim.pipeline.SeqStage`, start a
:class:`~repro.sim.farm.SimFarm` *in place* over the stage's own input
store, with every worker executing the stage's service work
(``work_override``) and results flowing into the same downstream
callback.  No task in flight is lost: whatever sits in the stage's input
store is simply consumed by the farm's emitter.

:func:`install_stage_promotion` arms a :class:`~repro.core.
skeleton_manager.PipelineManager` with a promoter for one of its
sequential-stage children, so the transformation fires autonomically
when that stage reports ``contractUnsatisfiable`` (saturated yet below
contract).  The skeleton-tree counterpart of this rewrite is
:func:`repro.skeletons.visitors.farm_out_stage`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..gcm.abc_controller import FarmABC
from ..sim.engine import Simulator
from ..sim.farm import SimFarm
from ..sim.network import Network
from ..sim.pipeline import SeqStage
from ..sim.resources import ResourceManager
from .manager import AutonomicManager
from .skeleton_manager import ConsumerManager, FarmManager, PipelineManager

__all__ = ["promote_stage_to_farm", "install_stage_promotion"]


def promote_stage_to_farm(
    sim: Simulator,
    stage: SeqStage,
    resources: ResourceManager,
    *,
    degree: int = 2,
    name: Optional[str] = None,
    network: Optional[Network] = None,
    worker_setup_time: float = 5.0,
    rate_window: float = 10.0,
) -> tuple[SimFarm, FarmABC]:
    """Replace a sequential stage's mechanism with a farm, in place.

    The farm adopts the stage's input store and downstream plumbing
    (``output`` store and/or ``on_done`` callback) and executes the
    stage's ``service_work`` per task.  Returns the farm and its ABC,
    already bootstrapped to ``degree`` workers.
    """
    if degree < 1:
        raise ValueError("farm degree must be >= 1")
    if stage.service_work <= 0:
        raise ValueError(
            "cannot farm a zero-work stage: it cannot be a bottleneck"
        )
    stage.stop()
    farm = SimFarm(
        sim,
        name=name or f"{stage.name}.farm",
        emitter_node=stage.node,
        network=network,
        worker_setup_time=worker_setup_time,
        rate_window=rate_window,
        input_store=stage.input,
        output_store=stage.output,
        work_override=stage.service_work,
        on_result=stage.on_done,
    )
    abc = FarmABC(farm, resources)
    abc.bootstrap(degree)
    return farm, abc


def install_stage_promotion(
    pipeline_manager: PipelineManager,
    stage_manager: ConsumerManager,
    resources: ResourceManager,
    *,
    degree: int = 2,
    network: Optional[Network] = None,
    worker_setup_time: float = 5.0,
    rate_window: float = 10.0,
    on_promoted: Optional[Callable[[SimFarm, FarmManager], None]] = None,
) -> None:
    """Arm autonomic stage-to-farm promotion for one pipeline stage.

    When ``stage_manager`` reports ``contractUnsatisfiable``, the
    pipeline manager will stop it, rewire its mechanism into a farm of
    ``degree`` stage-instances and install a :class:`FarmManager` (named
    ``<stage>.AM_farm``) over it, re-assigning the stage contract.
    """
    sim = pipeline_manager.sim
    stage = stage_manager.abc.stage  # type: ignore[union-attr]

    def promoter() -> AutonomicManager:
        farm, abc = promote_stage_to_farm(
            sim,
            stage,
            resources,
            degree=degree,
            network=network,
            worker_setup_time=worker_setup_time,
            rate_window=rate_window,
        )
        manager = FarmManager(
            f"{stage_manager.name}.farm",
            sim,
            abc,
            telemetry=pipeline_manager.telemetry,
            control_period=pipeline_manager.control_period,
            manage_workers=False,
        )
        if on_promoted is not None:
            on_promoted(farm, manager)
        return manager

    pipeline_manager.register_stage_promoter(stage_manager.name, promoter)
