"""Processing resources: nodes, domains, external load, recruitment.

The paper's farm manager "recruits a new resource (possibly interacting
with some kind of external resource manager) and instantiates a new
worker on the resource" (§3.2).  This module provides that external
resource manager for the simulated grid:

* :class:`Domain` — an administrative/network domain with a trust flag.
  Section 3.2's ``untrusted_ip_domain_A`` is simply a domain with
  ``trusted=False``; the security manager consults it.
* :class:`Node` — a processing element with a relative ``speed`` and a
  time-varying *external load* (other tenants stealing cycles).  The
  effective speed at time *t* is ``speed * (1 - load(t))``; injecting a
  load step mid-run is how the EXT-LOAD experiment perturbs workers.
* :class:`ResourceManager` — recruit/release with pluggable selection
  predicates, so the performance manager can express "any node" while
  the security-amended plan expresses "trusted nodes only".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Domain", "Node", "ResourceManager", "LoadSchedule", "NoResourceAvailable"]


class NoResourceAvailable(RuntimeError):
    """Raised when recruitment cannot be satisfied."""


@dataclass(frozen=True)
class Domain:
    """Administrative domain; ``trusted`` drives the security concern."""

    name: str
    trusted: bool = True

    def __str__(self) -> str:
        flag = "trusted" if self.trusted else "UNTRUSTED"
        return f"{self.name}({flag})"


TRUSTED_DEFAULT = Domain("local", trusted=True)


class LoadSchedule:
    """Piecewise-constant external load profile for a node.

    A list of ``(time, load)`` breakpoints; the load in effect at time
    *t* is the value of the latest breakpoint ≤ *t*.  Loads are clipped
    to [0, 0.99] — a node never becomes infinitely slow, matching the
    paper's "overload" (slower, not dead) scenario.
    """

    MAX_LOAD = 0.99

    def __init__(self, breakpoints: Optional[Sequence[Tuple[float, float]]] = None) -> None:
        self._points: List[Tuple[float, float]] = [(0.0, 0.0)]
        if breakpoints:
            for t, load in breakpoints:
                self.set_load(t, load)

    def set_load(self, time: float, load: float) -> None:
        """Add/replace a breakpoint: from ``time`` on, external load is ``load``."""
        load = min(max(load, 0.0), self.MAX_LOAD)
        self._points = [(t, l) for (t, l) in self._points if t != time]
        self._points.append((time, load))
        self._points.sort()

    def load_at(self, time: float) -> float:
        """External load in effect at ``time`` (0 before first breakpoint)."""
        current = 0.0
        for t, l in self._points:
            if t <= time:
                current = l
            else:
                break
        return current


@dataclass
class Node:
    """A processing element of the simulated platform."""

    name: str
    speed: float = 1.0
    domain: Domain = TRUSTED_DEFAULT
    cores: int = 1
    load_schedule: LoadSchedule = field(default_factory=LoadSchedule)
    allocated: bool = False

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"node speed must be positive, got {self.speed}")
        if self.cores < 1:
            raise ValueError(f"node must have >=1 core, got {self.cores}")

    def effective_speed(self, time: float) -> float:
        """Speed available to our application at ``time``."""
        return self.speed * (1.0 - self.load_schedule.load_at(time))

    def service_time(self, work: float, time: float) -> float:
        """Time to execute ``work`` units starting at ``time``.

        Uses the load in effect at start time — adequate for the
        piecewise-constant schedules used in experiments, and it keeps
        service times analytically checkable in tests.
        """
        eff = self.effective_speed(time)
        if eff <= 0:
            raise ValueError(f"node {self.name} has no capacity at t={time}")
        return work / eff

    @property
    def trusted(self) -> bool:
        return self.domain.trusted

    def __str__(self) -> str:
        return f"{self.name}@{self.domain.name}"


NodePredicate = Callable[[Node], bool]


def any_node(_: Node) -> bool:
    """Selection predicate accepting every node."""
    return True


def trusted_only(node: Node) -> bool:
    """Selection predicate accepting only trusted-domain nodes."""
    return node.trusted


class ResourceManager:
    """External resource manager: a pool of nodes with recruit/release.

    Recruitment prefers trusted and faster nodes by default (stable
    deterministic ordering), which mirrors a sensible grid broker and
    makes the multi-concern scenario interesting only when trusted
    capacity is exhausted — exactly the §3.2 setup.
    """

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self._nodes: Dict[str, Node] = {}
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    # pool management
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add a node to the pool (name must be unique)."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node

    def get(self, name: str) -> Node:
        """Look up a node by name."""
        return self._nodes[name]

    @property
    def nodes(self) -> List[Node]:
        """All nodes, deterministic order (insertion)."""
        return list(self._nodes.values())

    def available(self, predicate: NodePredicate = any_node) -> List[Node]:
        """Free nodes matching ``predicate``, best-first."""
        free = [n for n in self._nodes.values() if not n.allocated and predicate(n)]
        # Prefer trusted, then faster, then stable by name.
        free.sort(key=lambda n: (not n.trusted, -n.speed, n.name))
        return free

    @property
    def allocated_count(self) -> int:
        return sum(1 for n in self._nodes.values() if n.allocated)

    # ------------------------------------------------------------------
    # recruit / release
    # ------------------------------------------------------------------
    def recruit(self, count: int = 1, predicate: NodePredicate = any_node) -> List[Node]:
        """Allocate ``count`` nodes matching ``predicate``.

        Raises :class:`NoResourceAvailable` if fewer than ``count`` match;
        in that case nothing is allocated (all-or-nothing semantics, so a
        partially provisioned reconfiguration never leaks resources).
        """
        if count < 1:
            raise ValueError(f"recruit count must be >=1, got {count}")
        candidates = self.available(predicate)
        if len(candidates) < count:
            raise NoResourceAvailable(
                f"requested {count} node(s), only {len(candidates)} available"
            )
        chosen = candidates[:count]
        for node in chosen:
            node.allocated = True
        return chosen

    def try_recruit(self, count: int = 1, predicate: NodePredicate = any_node) -> List[Node]:
        """Like :meth:`recruit` but returns [] instead of raising."""
        try:
            return self.recruit(count, predicate)
        except NoResourceAvailable:
            return []

    def release(self, node: Node) -> None:
        """Return a node to the pool (idempotent)."""
        if node.name not in self._nodes:
            raise ValueError(f"unknown node {node.name!r}")
        node.allocated = False

    def release_all(self, nodes: Iterable[Node]) -> None:
        for n in nodes:
            self.release(n)


def make_cluster(
    n: int,
    *,
    prefix: str = "node",
    speed: float = 1.0,
    domain: Domain = TRUSTED_DEFAULT,
) -> List[Node]:
    """Convenience: build ``n`` identical nodes named ``prefix-i``."""
    return [Node(f"{prefix}-{i}", speed=speed, domain=domain) for i in range(n)]
