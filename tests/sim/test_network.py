"""Tests for the network model: transfer times, security, leak audit."""

import pytest

from repro.sim.network import Link, Message, Network
from repro.sim.resources import Domain, Node

LAN = Domain("lan", trusted=True)
LAN2 = Domain("lan2", trusted=True)
WAN = Domain("wan", trusted=False)


def nodes():
    return Node("a", domain=LAN), Node("b", domain=LAN2), Node("u", domain=WAN)


class TestLink:
    def test_validation(self):
        with pytest.raises(ValueError):
            Link(LAN, WAN, latency=-1.0)
        with pytest.raises(ValueError):
            Link(LAN, WAN, bandwidth=0.0)

    def test_private_iff_both_trusted(self):
        assert Link(LAN, LAN2).private
        assert not Link(LAN, WAN).private

    def test_plain_time(self):
        link = Link(LAN, LAN2, latency=0.01, bandwidth=1000.0)
        msg = Message(size_kb=10.0)
        assert link.plain_time(msg) == pytest.approx(0.01 + 10.0 / 1000.0)


class TestNetwork:
    def test_secure_factor_validation(self):
        with pytest.raises(ValueError):
            Network(secure_factor=0.5)

    def test_same_node_transfer_is_free(self):
        net = Network()
        a, _, _ = nodes()
        assert net.transfer_time(a, a, Message(), secured=False) == 0.0

    def test_default_link_when_unregistered(self):
        net = Network()
        a, b, _ = nodes()
        t = net.transfer_time(a, b, Message(size_kb=1.0), secured=False)
        assert t > 0.0

    def test_registered_link_used(self):
        net = Network()
        net.add_link(Link(LAN, LAN2, latency=0.5, bandwidth=10.0))
        a, b, _ = nodes()
        t = net.transfer_time(a, b, Message(size_kb=5.0), secured=False)
        assert t == pytest.approx(0.5 + 0.5)

    def test_link_is_bidirectional(self):
        net = Network()
        net.add_link(Link(LAN, LAN2, latency=0.5, bandwidth=10.0))
        a, b, _ = nodes()
        assert net.transfer_time(a, b, Message(), secured=False) == pytest.approx(
            net.transfer_time(b, a, Message(), secured=False)
        )

    def test_secured_transfer_costs_more(self):
        net = Network(secure_factor=2.0, handshake=0.01)
        a, _, u = nodes()
        plain = net.transfer_time(a, u, Message(size_kb=10.0), secured=False)
        secure = net.transfer_time(a, u, Message(size_kb=10.0), secured=True)
        assert secure == pytest.approx(plain * 2.0 + 0.01)

    def test_intra_domain_loopback(self):
        net = Network()
        a = Node("a", domain=LAN)
        a2 = Node("a2", domain=LAN)
        t = net.transfer_time(a, a2, Message(size_kb=1.0), secured=False)
        assert t < net.transfer_time(a, Node("b", domain=LAN2), Message(size_kb=1.0), secured=False) * 10


class TestLeakAccounting:
    def test_plaintext_to_untrusted_is_leak(self):
        net = Network()
        a, _, u = nodes()
        rec = net.record_transfer(1.0, a, u, Message(), secured=False)
        assert rec.leaked
        assert net.leak_count == 1
        assert net.leaks() == [rec]

    def test_secured_to_untrusted_is_not_leak(self):
        net = Network()
        a, _, u = nodes()
        rec = net.record_transfer(1.0, a, u, Message(), secured=True)
        assert not rec.leaked
        assert net.leak_count == 0
        assert net.secured_count == 1

    def test_plaintext_between_trusted_is_not_leak(self):
        net = Network()
        a, b, _ = nodes()
        rec = net.record_transfer(1.0, a, b, Message(), secured=False)
        assert not rec.leaked
        assert net.leak_count == 0

    def test_same_node_never_leaks(self):
        net = Network()
        u = Node("u", domain=WAN)
        rec = net.record_transfer(1.0, u, u, Message(), secured=False)
        assert not rec.leaked

    def test_total_transfer_time_accumulates(self):
        net = Network()
        a, b, _ = nodes()
        net.record_transfer(1.0, a, b, Message(size_kb=10.0), secured=False)
        net.record_transfer(2.0, a, b, Message(size_kb=10.0), secured=False)
        assert len(net.log) == 2
