"""Live shard hierarchy: a parent manager over N child farm shards.

The paper's §3.1 contract hierarchy (root SLA → sub-contracts down,
violations back up) running over the real farm backends, plus the
multi-tenant layer that multiplexes many per-tenant rate SLAs onto one
shard tree.  See ``docs/HIERARCHY.md`` for the architecture.

* :class:`ShardedFarm` — the farm-of-farms and its parent MAPE loop
* :class:`FarmShard` / :class:`ShardReport` — one managed shard and
  its upward report
* :class:`LocalShardLink` / :class:`TcpShardLink` /
  :class:`ShardAgent` — the management-plane links (direct calls, or
  ``contract``/``violation``/``report``/``poll`` frames over TCP)
* :class:`TenantRegistry` / :class:`FairShareScheduler` — tenants,
  admission control and weighted fair-share dispatch
* :func:`contract_to_wire` / :func:`contract_from_wire` — the JSON
  contract codec those frames carry
"""

from .codec import contract_from_wire, contract_to_wire
from .shard import FarmShard, ShardReport
from .sharded_farm import RebalanceEvent, ShardedFarm, make_shard_backend
from .tenants import Admission, FairShareScheduler, Tenant, TenantRegistry
from .wire import (
    LocalShardLink,
    ShardAgent,
    ShardLink,
    TcpShardLink,
    connect_shard,
)

__all__ = [
    "Admission",
    "FairShareScheduler",
    "FarmShard",
    "LocalShardLink",
    "RebalanceEvent",
    "ShardAgent",
    "ShardLink",
    "ShardReport",
    "ShardedFarm",
    "TcpShardLink",
    "Tenant",
    "TenantRegistry",
    "connect_shard",
    "contract_from_wire",
    "contract_to_wire",
    "make_shard_backend",
]
