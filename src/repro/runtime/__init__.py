"""Live (wall-clock) runtime: the ProActive analog.

Active objects (:mod:`~.active_object`), three real farm substrates
with the same monitoring/actuator surface as the simulated one —
threads (:mod:`~.farm_runtime`), and worker processes behind one asyncio
stream coordinator with crash replay, forked over socketpairs
(:mod:`~.process_farm`) or spawned and dialling in over TCP
(:mod:`~.dist_farm`) — all behind the
:class:`~.backend.FarmBackend` protocol, a thread pipeline
(:mod:`~.pipeline_runtime`), a controller that runs the *same*
Figure 5 rule set against any live backend (:mod:`~.controller`) —
mechanism/policy separation made concrete — and live multi-concern
coordination (:mod:`~.multiconcern`): a general manager running the
two-phase intent protocol over any backend's admission gate.  See
``docs/RUNTIME.md`` and ``docs/MULTICONCERN.md``.
"""

from .active_object import ActiveObject, ActiveObjectError, FutureResult
from .backend import FarmBackend, RuntimeFarmSnapshot
from .controller import FarmController, ThreadFarmController
from .dist_farm import DistFarm, DistWorkerHandle
from .farm_core import DeadLetter
from .farm_runtime import ThreadFarm, ThreadWorker
from .multiconcern import LiveGeneralManager, WorkerPlacement
from .pipeline_runtime import ThreadPipeline, ThreadStage
from .process_farm import ProcessFarm

__all__ = [
    "ActiveObject",
    "ActiveObjectError",
    "FutureResult",
    "FarmBackend",
    "FarmController",
    "ThreadFarm",
    "ThreadWorker",
    "RuntimeFarmSnapshot",
    "ThreadFarmController",
    "ThreadPipeline",
    "ThreadStage",
    "ProcessFarm",
    "DeadLetter",
    "DistFarm",
    "DistWorkerHandle",
    "LiveGeneralManager",
    "WorkerPlacement",
]
