"""SLA contracts and the P_spl splitting heuristics.

"The top level manager will receive from the user a contract (SLA)
specifying the constraints on the parameters within which the
application must operate […]. In turn, each lower level manager will be
given a (sub-)contract by its parent." (§3.1)

Contract taxonomy (each judged against a monitor sample):

* :class:`ThroughputRangeContract` — Figure 4's ``c_tRange``
  (0.3–0.7 tasks/s).
* :class:`MinThroughputContract` — Figure 3's 0.6 images/s SLA.
* :class:`BestEffortContract` — the farm gives its workers
  ``c_bestEffort`` "in accordance with the definition of task farm BS"
  (§4.2): always satisfied, workers just do their best locally.
* :class:`RateContract` — an output-rate demand on a producer stage
  (what AM_A's incRate/decRate actions send to AM_P).
* :class:`ParallelismDegreeContract` — a bound on resources used.
* :class:`SecurityContract` — the boolean concern of §3.2: all
  communications touching untrusted domains must be secured.
* :class:`CompositeContract` — conjunction (the paper's two-goal SLA
  ``⟨c_perf, c_sec⟩``).

The **P_spl** solution is :func:`split_contract`: domain-specific
heuristics keyed on the skeleton pattern, exploiting the cost models of
:mod:`repro.skeletons.cost` — a pipeline's throughput SLA is forwarded
unchanged to every stage (slowest-stage model); a parallelism-degree SLA
is split proportionally to stage weights; a farm hands its workers
best-effort sub-contracts.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, Mapping, Optional, Sequence

from ..skeletons.ast import Farm, Pipe, Skeleton
from ..skeletons.cost import stage_weights

__all__ = [
    "Contract",
    "ThroughputRangeContract",
    "MinThroughputContract",
    "MaxLatencyContract",
    "BestEffortContract",
    "RateContract",
    "ParallelismDegreeContract",
    "SecurityContract",
    "CompositeContract",
    "WeightedCompositeContract",
    "derive_super_contract",
    "split_contract",
    "split_rate",
    "split_rate_weighted",
    "split_rate_contract",
    "split_rate_contract_weighted",
    "ContractError",
]


class ContractError(ValueError):
    """Raised for malformed contracts or impossible splits."""


class Contract(abc.ABC):
    """Base SLA: a predicate over monitoring data.

    ``check`` returns True (satisfied), False (violated) or None when the
    sample does not carry the quantities this contract constrains (e.g. a
    security contract judged against a throughput sample).

    ``satisfaction`` refines the boolean into a degree in [0, 1] — the
    quantity the §3.2 "linear combination" super-contract aggregates.
    The default derives it from ``check``; quantitative contracts
    override it with a smooth score so a manager can tell *how far* from
    the SLA the computation is.
    """

    concern: str = "performance"

    @abc.abstractmethod
    def check(self, monitor: Mapping[str, Any]) -> Optional[bool]:
        """Judge one monitoring sample against this contract."""

    def satisfaction(self, monitor: Mapping[str, Any]) -> Optional[float]:
        """Degree of satisfaction in [0, 1] (None if unjudgeable)."""
        verdict = self.check(monitor)
        if verdict is None:
            return None
        return 1.0 if verdict else 0.0

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable contract text (for traces and reports)."""

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class ThroughputRangeContract(Contract):
    """Tasks must be processed at a rate within [low, high] tasks/sec."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 < self.low <= self.high:
            raise ContractError(f"need 0 < low <= high, got [{self.low}, {self.high}]")

    def check(self, monitor: Mapping[str, Any]) -> Optional[bool]:
        rate = monitor.get("departure_rate")
        if rate is None:
            return None
        return self.low <= rate <= self.high

    def describe(self) -> str:
        return f"throughput in [{self.low:g}, {self.high:g}] tasks/s"

    def satisfaction(self, monitor: Mapping[str, Any]) -> Optional[float]:
        rate = monitor.get("departure_rate")
        if rate is None:
            return None
        if self.low <= rate <= self.high:
            return 1.0
        # linear fall-off proportional to relative distance from the band
        if rate < self.low:
            return max(0.0, rate / self.low)
        return max(0.0, self.high / rate)

    @property
    def midpoint(self) -> float:
        return (self.low + self.high) / 2.0


@dataclass(frozen=True)
class MinThroughputContract(Contract):
    """At least ``target`` results per second (Figure 3's SLA)."""

    target: float

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ContractError(f"target must be positive, got {self.target}")

    def check(self, monitor: Mapping[str, Any]) -> Optional[bool]:
        rate = monitor.get("departure_rate")
        if rate is None:
            return None
        return rate >= self.target

    def satisfaction(self, monitor: Mapping[str, Any]) -> Optional[float]:
        rate = monitor.get("departure_rate")
        if rate is None:
            return None
        return min(1.0, max(0.0, rate / self.target))

    def describe(self) -> str:
        return f"throughput >= {self.target:g} tasks/s"


@dataclass(frozen=True)
class MaxLatencyContract(Contract):
    """Mean task completion latency must stay below ``limit`` seconds.

    Judged against the farm's windowed mean latency; combine with a
    throughput contract in a :class:`CompositeContract` for the classic
    "fast *and* responsive" SLA.
    """

    limit: float

    def __post_init__(self) -> None:
        if self.limit <= 0:
            raise ContractError(f"latency limit must be positive, got {self.limit}")

    def check(self, monitor: Mapping[str, Any]) -> Optional[bool]:
        lat = monitor.get("mean_latency")
        if lat is None:
            return None
        if lat == 0.0:
            return None  # no completions observed yet: cannot judge
        return lat <= self.limit

    def satisfaction(self, monitor: Mapping[str, Any]) -> Optional[float]:
        lat = monitor.get("mean_latency")
        if lat is None or lat == 0.0:
            return None
        return min(1.0, self.limit / lat)

    def describe(self) -> str:
        return f"mean latency <= {self.limit:g} s"


@dataclass(frozen=True)
class BestEffortContract(Contract):
    """Always satisfied: do the best you can locally (worker AMs)."""

    def check(self, monitor: Mapping[str, Any]) -> Optional[bool]:
        return True

    def describe(self) -> str:
        return "best effort"


@dataclass(frozen=True)
class RateContract(Contract):
    """Produce output at (at least) ``rate`` tasks/second.

    Judged against a producer's monitor sample (its configured rate),
    since a producer that *is* configured at the demanded rate satisfies
    the demand — whether the demand was achievable is reported through
    the actuator result instead.
    """

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ContractError(f"rate must be positive, got {self.rate}")

    def check(self, monitor: Mapping[str, Any]) -> Optional[bool]:
        configured = monitor.get("rate")
        if configured is None:
            return None
        return configured >= self.rate - 1e-9

    def describe(self) -> str:
        return f"output rate >= {self.rate:g} tasks/s"


@dataclass(frozen=True)
class ParallelismDegreeContract(Contract):
    """Use a parallelism degree within [min_degree, max_degree]."""

    min_degree: int = 1
    max_degree: int = 1_000_000

    def __post_init__(self) -> None:
        if not 1 <= self.min_degree <= self.max_degree:
            raise ContractError(
                f"need 1 <= min <= max, got [{self.min_degree}, {self.max_degree}]"
            )

    def check(self, monitor: Mapping[str, Any]) -> Optional[bool]:
        n = monitor.get("num_workers")
        if n is None:
            return None
        return self.min_degree <= n <= self.max_degree

    def describe(self) -> str:
        return f"parallelism degree in [{self.min_degree}, {self.max_degree}]"


@dataclass(frozen=True)
class SecurityContract(Contract):
    """All communications touching untrusted domains must be secured.

    A *boolean* concern (§3.2): "data and code communication is either
    secure or it is not.  Therefore, when considering security concerns,
    they should be given a priority."
    """

    concern: str = "security"

    def check(self, monitor: Mapping[str, Any]) -> Optional[bool]:
        leaks = monitor.get("leak_count")
        insecure = monitor.get("insecure_untrusted_workers")
        if leaks is None and insecure is None:
            return None
        if leaks:
            return False
        if insecure:
            return False
        return True

    def describe(self) -> str:
        return "secure all communications crossing untrusted domains"


class CompositeContract(Contract):
    """Conjunction of sub-contracts (multi-goal SLA)."""

    def __init__(self, parts: Sequence[Contract]) -> None:
        if not parts:
            raise ContractError("composite contract needs at least one part")
        self.parts: List[Contract] = list(parts)

    def check(self, monitor: Mapping[str, Any]) -> Optional[bool]:
        verdicts = [p.check(monitor) for p in self.parts]
        if any(v is False for v in verdicts):
            return False
        if all(v is True for v in verdicts):
            return True
        return None

    def describe(self) -> str:
        return " AND ".join(p.describe() for p in self.parts)

    def of_concern(self, concern: str) -> List[Contract]:
        """The sub-contracts belonging to one concern."""
        return [p for p in self.parts if p.concern == concern]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CompositeContract) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(tuple(self.parts))


class WeightedCompositeContract(CompositeContract):
    """The §3.2 super-contract c̄ derived from c₁ … c_h.

    "For contracts where non-boolean concerns are considered, it may be
    possible to devise c̄ from c₁, …, c_h using some sort of linear
    combination.  This is an area which requires significant further
    investigation." (§3.2)  This class is that investigation's outcome
    for this reproduction:

    * **boolean concerns are hard constraints** — any violated boolean
      part (security) forces the overall score to 0, encoding the
      paper's "c_sec must have priority over c_perf";
    * **quantitative concerns combine linearly** — each part contributes
      its ``satisfaction`` degree times its weight (weights normalised).

    ``check`` holds iff the score reaches ``threshold``, so a GM can
    manage the whole multi-concern SLA through the ordinary single-
    contract machinery.
    """

    #: concerns treated as hard (boolean) constraints
    BOOLEAN_CONCERNS = frozenset({"security"})

    def __init__(
        self,
        parts: Sequence[Contract],
        weights: Optional[Sequence[float]] = None,
        threshold: float = 0.99,
    ) -> None:
        super().__init__(parts)
        if weights is None:
            weights = [1.0] * len(self.parts)
        if len(weights) != len(self.parts):
            raise ContractError("need one weight per part")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ContractError("weights must be non-negative with positive sum")
        if not 0 < threshold <= 1:
            raise ContractError("threshold must be in (0, 1]")
        total = sum(weights)
        self.weights = [w / total for w in weights]
        self.threshold = threshold

    def score(self, monitor: Mapping[str, Any]) -> Optional[float]:
        """Linear-combination satisfaction in [0, 1] (None if unjudgeable)."""
        acc = 0.0
        judged_any = False
        for part, weight in zip(self.parts, self.weights):
            s = part.satisfaction(monitor)
            if part.concern in self.BOOLEAN_CONCERNS:
                if s is None:
                    continue
                judged_any = True
                if s < 1.0:
                    return 0.0  # hard constraint violated
                acc += weight
            else:
                if s is None:
                    continue
                judged_any = True
                acc += weight * s
        if not judged_any:
            return None
        # normalised weights can sum to 1 ± a few ulps
        return min(1.0, max(0.0, acc))

    def check(self, monitor: Mapping[str, Any]) -> Optional[bool]:
        s = self.score(monitor)
        if s is None:
            return None
        return s >= self.threshold

    def satisfaction(self, monitor: Mapping[str, Any]) -> Optional[float]:
        return self.score(monitor)

    def describe(self) -> str:
        parts = ", ".join(
            f"{w:.2f}*({p.describe()})" for p, w in zip(self.parts, self.weights)
        )
        return f"linear[{parts}] >= {self.threshold:g}"


def derive_super_contract(
    contracts: Sequence[Contract], weights: Optional[Sequence[float]] = None
) -> WeightedCompositeContract:
    """Build the GM's c̄ from per-concern contracts (§3.2)."""
    return WeightedCompositeContract(contracts, weights)


# ----------------------------------------------------------------------
# P_spl: contract splitting heuristics
# ----------------------------------------------------------------------

def split_contract(contract: Contract, skeleton: Skeleton) -> List[Contract]:
    """Split ``contract`` into one sub-contract per child of ``skeleton``.

    Heuristics (§3.1):

    * pipeline × throughput — identical contract per stage ("a throughput
      SLA for the pipeline may be split into identical SLAs for the
      pipeline stage AMs");
    * pipeline × parallelism degree — proportional to stage weights;
    * farm × anything performance — best-effort per worker ("it passes
      the AM_Wi a c_bestEffort contract in accordance with the
      definition of task farm BS", §4.2);
    * security — boolean, forwarded unchanged everywhere;
    * composite — split each part, recombine per child.

    A Seq has no children; splitting over it returns [].
    """
    children = skeleton.children
    if not children:
        return []

    if isinstance(contract, CompositeContract):
        per_child: List[List[Contract]] = [[] for _ in children]
        for part in contract.parts:
            for i, sub in enumerate(split_contract(part, skeleton)):
                per_child[i].append(sub)
        return [
            subs[0] if len(subs) == 1 else CompositeContract(subs)
            for subs in per_child
        ]

    if isinstance(contract, SecurityContract):
        return [contract for _ in children]

    if isinstance(skeleton, Farm):
        # One conceptual child (the replicated worker); callers expand to
        # the actual worker count themselves.
        return [BestEffortContract()]

    if isinstance(skeleton, Pipe):
        if isinstance(contract, (ThroughputRangeContract, MinThroughputContract, RateContract, MaxLatencyContract)):
            return [contract for _ in children]
        if isinstance(contract, ParallelismDegreeContract):
            weights = stage_weights(skeleton)
            return _split_degree(contract, weights)
        if isinstance(contract, BestEffortContract):
            return [contract for _ in children]
        raise ContractError(
            f"no pipeline splitting heuristic for {type(contract).__name__}"
        )

    raise ContractError(
        f"no splitting heuristic for {type(contract).__name__} over "
        f"{type(skeleton).__name__}"
    )


def _split_degree(
    contract: ParallelismDegreeContract, weights: Sequence[float]
) -> List[Contract]:
    """Proportional degree split preserving the parent's total budget.

    Minimum degrees stay >= 1 per stage; maxima distribute the parent's
    max budget by weight (largest-remainder rounding so they sum to at
    most the parent max whenever that is feasible).
    """
    n = len(weights)
    if contract.max_degree < n:
        raise ContractError(
            f"cannot split max degree {contract.max_degree} across {n} stages"
        )
    raw = [w * contract.max_degree for w in weights]
    floors = [max(1, math.floor(r)) for r in raw]
    budget = contract.max_degree - sum(floors)
    # distribute remaining budget by largest fractional remainder
    remainders = sorted(
        range(n), key=lambda i: (raw[i] - math.floor(raw[i])), reverse=True
    )
    idx = 0
    while budget > 0 and idx < n:
        floors[remainders[idx]] += 1
        budget -= 1
        idx += 1
    return [
        ParallelismDegreeContract(min_degree=1, max_degree=f) for f in floors
    ]


# ----------------------------------------------------------------------
# exact rate splits (shard sub-contracts)
# ----------------------------------------------------------------------
#
# The degree split above conserves an *integer* budget with largest-
# remainder rounding.  Sharding a farm needs the float analogue: a root
# throughput SLA of R tasks/s split across N shards must hand out child
# rates whose sum is *exactly* R — naive ``R / N`` children leak a few
# ulps on uneven N, and a leaked ulp is a root contract the children can
# collectively satisfy while the parent still observes a violation (or
# vice versa).
#
# The scheme: write R = M * 2**k with M an integer < 2**53 (exact, via
# frexp), split M as an *integer* by largest remainder (the same
# rounding _split_degree uses), and scale each integer share back by
# 2**k.  Every share and every partial sum is an integer <= M times the
# same power of two, hence exactly representable — so plain left-to-
# right float addition incurs no rounding at any step and the float sum
# reproduces R bit-for-bit.  (Schemes that carve R with float cut
# points fail in a tie-to-even corner: when two running sums land
# exactly on half-ulp boundaries of an odd-mantissa target, *no* float
# share can make the rounded sum hit the target.)


def split_rate(total: float, n: int) -> List[float]:
    """Split a positive rate into ``n`` positive floats summing to it exactly.

    ``sum(split_rate(R, n)) == R`` holds for the plain built-in ``sum``
    (left-to-right float addition), not merely for ``math.fsum`` — the
    conservation law shards rely on.
    """
    if n < 1:
        raise ContractError(f"cannot split a rate across {n} shards")
    return split_rate_weighted(total, [1.0] * n)


def split_rate_weighted(total: float, weights: Sequence[float]) -> List[float]:
    """Weighted :func:`split_rate`: child i gets ~``weights[i]`` share.

    Used by shard rebalancing to re-solve the root SLA proportionally to
    observed per-shard demand while still conserving the parent budget
    exactly.
    """
    n = len(weights)
    if n < 1:
        raise ContractError("need at least one weight")
    if not (total > 0) or not math.isfinite(total):
        raise ContractError(f"rate must be positive and finite, got {total}")
    if any(w <= 0 or not math.isfinite(w) for w in weights):
        raise ContractError(f"weights must be positive and finite, got {weights}")
    mantissa, exponent = math.frexp(total)  # total == mantissa * 2**exponent
    units = int(math.ldexp(mantissa, 53))  # exact: 53-bit significand
    if math.ldexp(1.0, exponent - 53) == 0.0 or units < n:
        raise ContractError(
            f"rate {total} is too small to split into {n} positive shares"
        )
    # integer largest-remainder split of ``units`` by weight, min 1 each.
    # Exact rational arithmetic: at this magnitude float products have
    # ulp > 1, so a float floor() would over/under-count whole units.
    exact_weights = [Fraction(w) for w in weights]
    wsum = sum(exact_weights)
    raw = [units * w / wsum for w in exact_weights]
    floors = [max(1, math.floor(r)) for r in raw]
    budget = units - sum(floors)
    if budget < 0:
        raise ContractError(
            f"weights {weights} are too skewed to split rate {total} "
            f"into {n} positive shares"
        )
    by_remainder = sorted(
        range(n), key=lambda i: raw[i] - math.floor(raw[i]), reverse=True
    )
    idx = 0
    while budget > 0:
        floors[by_remainder[idx % n]] += 1
        budget -= 1
        idx += 1
    # every share and partial sum is (integer <= units) * 2**(e-53), so
    # each float addition below the total is exact by representability
    return [math.ldexp(f, exponent - 53) for f in floors]


def split_rate_contract(contract: Contract, n: int) -> List[Contract]:
    """Split a throughput SLA across ``n`` sibling shards, conserving rate.

    This is the shard-tree counterpart of the pipeline heuristics in
    :func:`split_contract`: where a pipeline forwards a throughput SLA
    unchanged to every stage (slowest-stage model), sibling *shards*
    divide the load, so each gets a proportional slice whose rates sum
    exactly to the parent's (see :func:`split_rate`).

    * :class:`MinThroughputContract` / :class:`RateContract` — split the
      target rate.
    * :class:`ThroughputRangeContract` — split both band edges.
    * :class:`MaxLatencyContract` / :class:`BestEffortContract` — latency
      is not additive across shards; forwarded unchanged.
    * :class:`SecurityContract` — boolean, forwarded unchanged.
    * :class:`CompositeContract` — split each part, recombine per shard.
    """
    return split_rate_contract_weighted(contract, [1.0] * max(n, 0))


def split_rate_contract_weighted(
    contract: Contract, weights: Sequence[float]
) -> List[Contract]:
    """Weighted :func:`split_rate_contract` (used by shard rebalancing)."""
    n = len(weights)
    if n < 1:
        raise ContractError("cannot split a contract across zero shards")

    if isinstance(contract, CompositeContract):
        per_shard: List[List[Contract]] = [[] for _ in range(n)]
        for part in contract.parts:
            for i, sub in enumerate(split_rate_contract_weighted(part, weights)):
                per_shard[i].append(sub)
        return [
            subs[0] if len(subs) == 1 else CompositeContract(subs)
            for subs in per_shard
        ]
    if isinstance(contract, MinThroughputContract):
        return [
            MinThroughputContract(target=r)
            for r in split_rate_weighted(contract.target, weights)
        ]
    if isinstance(contract, RateContract):
        return [
            RateContract(rate=r)
            for r in split_rate_weighted(contract.rate, weights)
        ]
    if isinstance(contract, ThroughputRangeContract):
        lows = split_rate_weighted(contract.low, weights)
        highs = split_rate_weighted(contract.high, weights)
        if any(hi < lo for lo, hi in zip(lows, highs)):
            raise ContractError(
                f"cannot split {contract.describe()} into {n} consistent bands"
            )
        return [
            ThroughputRangeContract(lo, hi) for lo, hi in zip(lows, highs)
        ]
    if isinstance(
        contract, (MaxLatencyContract, BestEffortContract, SecurityContract)
    ):
        return [contract for _ in range(n)]
    raise ContractError(
        f"no shard splitting heuristic for {type(contract).__name__}"
    )
