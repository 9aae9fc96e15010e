"""Contract ↔ JSON codec for the parent ↔ shard wire links.

The shard hierarchy re-assigns sub-contracts at run time — over a real
TCP link when the shard is a :class:`~repro.runtime.dist_farm.DistFarm`
coordinator — so contracts must cross the frame layer the dist
protocol uses (:mod:`repro.runtime.dist_proto`), as the body of a
codec-json frame.  The encoding is self-describing JSON, never pickle:
a ``contract`` frame seen in ``tcpdump`` reads as what it is, and a
management link can refuse every other codec outright.

Only the contract types a shard's :class:`FarmController` can enforce
(plus the boolean security concern and composites of those) are
encodable; asking for anything else is a programming error surfaced
eagerly on the *sending* side.
"""

from __future__ import annotations

from typing import Any, Dict

from ...core.contracts import (
    BestEffortContract,
    CompositeContract,
    Contract,
    ContractError,
    MaxLatencyContract,
    MinThroughputContract,
    RateContract,
    SecurityContract,
    ThroughputRangeContract,
)

__all__ = ["contract_to_wire", "contract_from_wire"]


def contract_to_wire(contract: Contract) -> Dict[str, Any]:
    """Encode a contract as a JSON-safe dict (raises for exotic types)."""
    if isinstance(contract, ThroughputRangeContract):
        return {"kind": "throughput_range", "low": contract.low, "high": contract.high}
    if isinstance(contract, MinThroughputContract):
        return {"kind": "min_throughput", "target": contract.target}
    if isinstance(contract, RateContract):
        return {"kind": "rate", "rate": contract.rate}
    if isinstance(contract, MaxLatencyContract):
        return {"kind": "max_latency", "limit": contract.limit}
    if isinstance(contract, BestEffortContract):
        return {"kind": "best_effort"}
    if isinstance(contract, SecurityContract):
        return {"kind": "security"}
    if isinstance(contract, CompositeContract):
        return {
            "kind": "composite",
            "parts": [contract_to_wire(p) for p in contract.parts],
        }
    raise ContractError(
        f"{type(contract).__name__} cannot cross the shard wire"
    )


def contract_from_wire(data: Dict[str, Any]) -> Contract:
    """Decode :func:`contract_to_wire` output (raises on malformed data)."""
    try:
        kind = data["kind"]
        if kind == "throughput_range":
            return ThroughputRangeContract(float(data["low"]), float(data["high"]))
        if kind == "min_throughput":
            return MinThroughputContract(target=float(data["target"]))
        if kind == "rate":
            return RateContract(rate=float(data["rate"]))
        if kind == "max_latency":
            return MaxLatencyContract(limit=float(data["limit"]))
        if kind == "best_effort":
            return BestEffortContract()
        if kind == "security":
            return SecurityContract()
        if kind == "composite":
            return CompositeContract([contract_from_wire(p) for p in data["parts"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"malformed wire contract {data!r}: {exc}") from exc
    raise ContractError(f"unknown wire contract kind {kind!r}")
