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
mechanism/policy separation made concrete — whose ABC also carries the
two-phase grow (plan → commit through any backend's admission gate)
that :class:`repro.core.multiconcern.GeneralManager` coordinates live.
See ``docs/RUNTIME.md`` and ``docs/MULTICONCERN.md``.
"""

from .. import _lazy_exports

#: where each export lives.  Resolved on first access (PEP 562), never at
#: package import: ``python -m repro.runtime.dist_worker`` imports this
#: package on its way to two of its modules, and a worker's cold start is
#: the floor under every grow/heal decision (docs/ARCHITECTURE.md,
#: "Worker import closure")
_HOME = {
    "ActiveObject": "active_object",
    "ActiveObjectError": "active_object",
    "FutureResult": "active_object",
    "FarmBackend": "backend",
    "RuntimeFarmSnapshot": "backend",
    "FarmController": "controller",
    "DistFarm": "dist_farm",
    "DistWorkerHandle": "dist_farm",
    "DeadLetter": "farm_core",
    "ThreadFarm": "farm_runtime",
    "ThreadWorker": "farm_runtime",
    "ThreadPipeline": "pipeline_runtime",
    "ThreadStage": "pipeline_runtime",
    "ProcessFarm": "process_farm",
}

__all__ = list(_HOME)

__getattr__, __dir__ = _lazy_exports(__name__, _HOME)
