"""Network model: links between domains, secure channels, leak accounting.

Section 3.2 of the paper revolves around the cost and necessity of
securing communications that cross untrusted network segments: "the
mapping of parallel activities to processing resources should not only
take into account the network dependent communication costs, but also
the fact these costs increase when the related network links are
non-private".  This module models exactly that:

* a message's transfer time is ``latency + size / bandwidth``;
* if the channel is *secured*, both terms are inflated by the cipher's
  cost model (:mod:`repro.security.crypto` supplies the factor);
* every plaintext message whose path touches an untrusted domain is
  counted as a **leak** — the headline metric of the MC-2PC experiment
  (two-phase protocol ⇒ zero leaks; naive commit ⇒ a positive leak
  window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .resources import Domain, Node

__all__ = ["Link", "Network", "Message", "TransferRecord"]


@dataclass(frozen=True)
class Message:
    """A unit of communication: payload size in KB plus bookkeeping."""

    size_kb: float = 1.0
    kind: str = "task"
    task_id: Optional[int] = None


@dataclass
class Link:
    """Directed-pair link parameters between two domains.

    ``latency`` in seconds, ``bandwidth`` in KB/s.  A link is *private*
    iff both endpoints are trusted domains; messages on non-private links
    must be secured or they count as leaks.
    """

    a: Domain
    b: Domain
    latency: float = 0.001
    bandwidth: float = 100_000.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")

    @property
    def private(self) -> bool:
        """True if traffic on this link never crosses untrusted territory."""
        return self.a.trusted and self.b.trusted

    def plain_time(self, msg: Message) -> float:
        """Transfer time without encryption."""
        return self.latency + msg.size_kb / self.bandwidth


@dataclass(frozen=True)
class TransferRecord:
    """Audit-log entry for one message transfer."""

    time: float
    src: str
    dst: str
    secured: bool
    private: bool
    duration: float
    kind: str

    @property
    def leaked(self) -> bool:
        """True if plaintext data crossed a non-private link."""
        return (not self.secured) and (not self.private)


class Network:
    """Domain-level network with per-pair links and a transfer audit log.

    ``secure_factor`` is the multiplicative overhead of the secure
    protocol (SSL stand-in): secured transfers take ``secure_factor``
    times longer, plus a fixed ``handshake`` latency.  Defaults are
    calibrated so security costs are visible but not dominant (paper
    [31] reports 10–40% overheads for skeletal systems; we default to
    1.3x).
    """

    def __init__(self, *, secure_factor: float = 1.3, handshake: float = 0.005) -> None:
        if secure_factor < 1.0:
            raise ValueError("secure_factor must be >= 1.0")
        self._links: Dict[Tuple[str, str], Link] = {}
        self.secure_factor = secure_factor
        self.handshake = handshake
        self.log: List[TransferRecord] = []
        self.default_latency = 0.001
        self.default_bandwidth = 100_000.0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_link(self, link: Link) -> None:
        """Register a (bidirectional) link between two domains."""
        self._links[(link.a.name, link.b.name)] = link
        self._links[(link.b.name, link.a.name)] = link

    def link_between(self, a: Domain, b: Domain) -> Link:
        """The link between domains ``a`` and ``b`` (default if absent).

        Intra-domain traffic gets a fast implicit loopback link.
        """
        key = (a.name, b.name)
        if key in self._links:
            return self._links[key]
        if a.name == b.name:
            return Link(a, b, latency=0.0001, bandwidth=1_000_000.0)
        return Link(a, b, latency=self.default_latency, bandwidth=self.default_bandwidth)

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def transfer_time(self, src: Node, dst: Node, msg: Message, *, secured: bool) -> float:
        """Time for ``msg`` to travel ``src -> dst``.

        Same-node transfers are free: in the paper's setting co-located
        components communicate through shared memory.
        """
        if src.name == dst.name:
            return 0.0
        link = self.link_between(src.domain, dst.domain)
        t = link.plain_time(msg)
        if secured:
            t = t * self.secure_factor + self.handshake
        return t

    def record_transfer(
        self, time: float, src: Node, dst: Node, msg: Message, *, secured: bool
    ) -> TransferRecord:
        """Compute transfer time and append an audit record."""
        duration = self.transfer_time(src, dst, msg, secured=secured)
        link = self.link_between(src.domain, dst.domain)
        private = link.private or src.name == dst.name
        rec = TransferRecord(
            time=time,
            src=src.name,
            dst=dst.name,
            secured=secured,
            private=private,
            duration=duration,
            kind=msg.kind,
        )
        self.log.append(rec)
        return rec

    # ------------------------------------------------------------------
    # audit queries
    # ------------------------------------------------------------------
    @property
    def leak_count(self) -> int:
        """Number of plaintext messages that crossed non-private links."""
        return sum(1 for r in self.log if r.leaked)

    def leaks(self) -> List[TransferRecord]:
        """All leaking transfer records (MC-2PC evidence)."""
        return [r for r in self.log if r.leaked]

    @property
    def secured_count(self) -> int:
        return sum(1 for r in self.log if r.secured)
