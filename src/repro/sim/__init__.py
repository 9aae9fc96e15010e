"""Discrete-event simulation substrate (the "grid" the skeletons run on).

This package substitutes for the paper's GCM/ProActive middleware and
8-core SMP testbed: a deterministic process-based DES (:mod:`engine`),
FIFO channels (:mod:`queues`), processing resources with external load
(:mod:`resources`), a domain-aware network with secure-channel costs and
leak auditing (:mod:`network`), synthetic stream workloads
(:mod:`workload`), the farm and pipeline pattern mechanisms
(:mod:`farm`, :mod:`pipeline`) and monitoring probes (:mod:`metrics`).
"""

from .engine import (
    Interrupt,
    PeriodicTask,
    Process,
    SimEvent,
    SimulationError,
    Simulator,
    Timeout,
)
from .farm import DispatchPolicy, FarmSnapshot, FarmWorker, SimFarm
from .farmpipe import PipelineReplica, SimFarmOfPipelines
from .map import MapWorker, SimMap
from .metrics import (
    EwmaRateEstimator,
    TimeWeightedMean,
    UtilizationMeter,
    WindowRateEstimator,
    queue_length_stats,
    queue_length_variance,
)
from .network import Link, Message, Network, TransferRecord
from .pipeline import Forwarder, SeqStage, SimPipeline, StageSnapshot
from .queues import Store, drain, transfer
from .resources import (
    Domain,
    LoadSchedule,
    Node,
    NoResourceAvailable,
    ResourceManager,
    any_node,
    make_cluster,
    trusted_only,
)
from .workload import (
    ConstantWork,
    HotSpotWork,
    Task,
    TaskSource,
    UniformWork,
    WorkModel,
    finite_stream,
)

__all__ = [
    "Simulator",
    "SimEvent",
    "Timeout",
    "Process",
    "PeriodicTask",
    "Interrupt",
    "SimulationError",
    "Store",
    "drain",
    "transfer",
    "WindowRateEstimator",
    "EwmaRateEstimator",
    "UtilizationMeter",
    "TimeWeightedMean",
    "queue_length_stats",
    "queue_length_variance",
    "Domain",
    "Node",
    "LoadSchedule",
    "ResourceManager",
    "NoResourceAvailable",
    "any_node",
    "trusted_only",
    "make_cluster",
    "Link",
    "Message",
    "Network",
    "TransferRecord",
    "Task",
    "WorkModel",
    "ConstantWork",
    "UniformWork",
    "HotSpotWork",
    "TaskSource",
    "finite_stream",
    "SimFarm",
    "FarmWorker",
    "FarmSnapshot",
    "DispatchPolicy",
    "SimMap",
    "MapWorker",
    "SimFarmOfPipelines",
    "PipelineReplica",
    "SeqStage",
    "StageSnapshot",
    "Forwarder",
    "SimPipeline",
]
