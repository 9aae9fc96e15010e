"""Live shard hierarchy: a parent manager over N child farm shards.

The paper's §3.1 contract hierarchy (root SLA → sub-contracts down,
violations back up) running over the real farm backends, plus the
multi-tenant layer that multiplexes many per-tenant rate SLAs onto one
shard tree.  See ``docs/HIERARCHY.md`` for the architecture.

* :class:`ShardedFarm` — the farm-of-farms and its parent MAPE loop
* :class:`FarmShard` / :class:`ShardReport` — one managed shard (the
  parent's in-process link to it) and its upward report
* :class:`TcpShardLink` / :class:`ShardAgent` — the same link over TCP
  (``contract``/``budget``/``poll`` requests, ``violation``/``report``
  replies)
* :class:`TenantRegistry` / :class:`FairShareScheduler` — tenants,
  admission control and weighted fair-share dispatch
* :func:`contract_to_wire` / :func:`contract_from_wire` — the JSON
  contract codec those frames carry
"""

from .codec import contract_from_wire, contract_to_wire
from .shard import FarmShard, ShardReport
from .sharded_farm import RebalanceEvent, ShardedFarm, make_shard_backend
from .tenants import Admission, FairShareScheduler, Tenant, TenantRegistry
from .wire import ShardAgent, TcpShardLink

__all__ = [
    "Admission",
    "FairShareScheduler",
    "FarmShard",
    "RebalanceEvent",
    "ShardAgent",
    "ShardReport",
    "ShardedFarm",
    "TcpShardLink",
    "Tenant",
    "TenantRegistry",
    "contract_from_wire",
    "contract_to_wire",
    "make_shard_backend",
]
