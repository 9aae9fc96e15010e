"""The farm-of-farms acceptance suite, per backend.

The hierarchy's promises, asserted over every live substrate:

* **only the violating shard grows** — a starving root SLA with the
  whole feed skewed onto shard 0 grows shard 0 through its own
  Figure 5 rules while the idle shard stays at its initial size
  (it raises ``notEnoughTasks``, and arrival below the stripe is
  exactly the case where "nothing can usefully be done locally");
* **rebalancing moves budget, not tasks** — the parent shifts one
  unit of capacity from the idle donor to the capped shard, and every
  submitted task still comes back exactly once (zero loss, zero
  duplication), asserted from the drained results *and* the
  ``repro_hier_rebalance_total`` / ``repro_shard_*`` metrics;
* **budget and SLA conservation** — after any number of moves the
  budgets still sum to the total and the sub-contract rates still sum
  exactly to the root's (the exact-split invariant from
  ``repro.core.contracts``);
* **violations propagate** — shard-level violations surface in the
  parent's aggregated record and metrics;
* **the TCP management plane is a real protocol** — with
  ``over_wire=True`` the same parent loop drives ``contract`` /
  ``budget`` / ``poll`` / ``violation`` frames through a live
  :class:`~repro.runtime.hierarchy.ShardAgent`, which refuses
  version-mismatched peers with a clear error.

Run one backend with, e.g.::

    PYTHONPATH=src python -m pytest tests/runtime/test_sharded_farm.py -k thread
"""

import socket
import time

import pytest

from repro.core.contracts import ThroughputRangeContract
from repro.obs.telemetry import Telemetry
from repro.runtime.dist_proto import (
    PROTOCOL_VERSION,
    encode_frame_v4,
    read_frame_blocking,
)
from repro.runtime.hierarchy import ShardedFarm

from .waiting import wait_until

pytestmark = pytest.mark.hierarchy

BACKENDS = ("thread", "process", "dist")

#: fast fault detection for the process/dist shards, as in conformance
#: (heartbeat_timeout stays loose: crash detection is exit/EOF-driven,
#: and a tight staleness bound falsely kills idle workers under load)
FAULT_TUNING = dict(
    heartbeat_period=0.05,
    heartbeat_timeout=2.0,
    supervise_period=0.02,
    backoff_base=0.02,
    backoff_cap=0.2,
)


def shard_task(payload):
    """Module-level so it crosses the process/TCP boundary by name."""
    work, value = payload
    if work:
        time.sleep(work)
    return value * value


def make_sharded(backend, *, contract, telemetry=None, **kwargs):
    shard_kwargs = {"rate_window": 0.8}
    if backend in ("process", "dist"):
        shard_kwargs.update(FAULT_TUNING)
    return ShardedFarm(
        shard_task,
        contract=contract,
        backend=backend,
        shards=2,
        max_workers_total=4,
        control_period=0.1,
        rebalance_cooldown=0.3,
        telemetry=telemetry,
        shard_kwargs=shard_kwargs,
        **kwargs,
    )


def counter_value(telemetry, name, **labels):
    return telemetry.metrics.counter(name, "").labels(**labels).value


def gauge_value(telemetry, name, **labels):
    return telemetry.metrics.gauge(name, "").labels(**labels).value


@pytest.mark.parametrize("backend", BACKENDS)
class TestStarvationAndRebalance:
    def test_starving_shard_grows_rebalances_zero_loss(self, backend):
        """The acceptance scenario: skewed feed under a starving root SLA.

        The root floor (120/s over 2 shards -> 60/s each) needs three
        25/s workers on the hot shard, whose budget starts at 2: its own
        rules grow it 1 -> 2, the refused third grow becomes
        ``noLocalPlan``, the parent moves budget from the idle donor,
        and the hot shard grows to 3.  The donor must never grow.
        """
        tel = Telemetry()
        farm = make_sharded(
            backend, contract=ThroughputRangeContract(120.0, 400.0), telemetry=tel
        )
        n = 240
        try:
            for i in range(n):
                farm.shards[0].farm.submit((0.04, i))
                time.sleep(0.01)
            results = farm.drain_results(n, timeout=90.0)

            # zero loss, zero duplication: every task back exactly once
            assert sorted(results) == sorted(i * i for i in range(n))

            # the parent moved capacity toward the violating shard
            assert farm.rebalances, "no rebalance happened"
            move = farm.rebalances[0]
            assert (move.from_shard, move.to_shard) == (1, 0)
            assert move.latency >= 0.0
            assert farm.budgets[0] > farm.budgets[1]
            assert sum(farm.budgets) == farm.max_workers_total

            # only the violating shard grew; the idle donor never did
            assert farm.shards[0].farm.num_workers > 1
            assert farm.shards[1].farm.num_workers == 1

            # the sub-contracts still sum exactly to the root SLA
            lows = [c.low for c in farm.sub_contracts]
            highs = [c.high for c in farm.sub_contracts]
            assert sum(lows) == 120.0
            assert sum(highs) == 400.0

            # ... and the same story is told by the metrics
            assert counter_value(
                tel, "repro_hier_rebalance_total",
                farm=farm.name, source="1", target="0",
            ) >= 1
            assert gauge_value(
                tel, "repro_shard_budget", farm=farm.name, shard="0"
            ) == farm.budgets[0]
            assert gauge_value(
                tel, "repro_shard_workers", farm=farm.name, shard="1"
            ) == 1
            assert counter_value(
                tel, "repro_hier_violations_total",
                farm=farm.name, shard="0", kind="noLocalPlan",
            ) >= 1
        finally:
            farm.shutdown()

    def test_idle_tree_reports_violations_without_growing(self, backend):
        """No load at all: every shard raises ``notEnoughTasks`` into the
        parent's aggregate record, and nothing grows or rebalances —
        the paper's "nothing can usefully be done locally" case."""
        tel = Telemetry()
        farm = make_sharded(
            backend, contract=ThroughputRangeContract(120.0, 400.0), telemetry=tel
        )
        try:
            wait_until(
                lambda: {
                    shard for _, shard, kind in farm.violations
                    if kind == "notEnoughTasks"
                } == {0, 1},
                timeout=30.0,
                message="both idle shards should report notEnoughTasks",
            )
            assert not farm.rebalances
            assert farm.budgets == [2, 2]
            assert all(s.farm.num_workers == 1 for s in farm.shards)
        finally:
            farm.shutdown()


class TestRebalanceMechanics:
    """Thread-backend mechanics that need deterministic driving."""

    def test_shrink_with_queued_tasks_loses_nothing(self):
        """An active shrink poisons a worker *behind* its queue: budget
        revocation mid-stream must never lose a task."""
        farm = make_sharded(
            "thread",
            contract=ThroughputRangeContract(1.0, 1000.0),
            initial_workers_per_shard=2,
            autostart=False,
        )
        try:
            n = 40
            for i in range(n):
                farm.shards[1].farm.submit((0.01, i))
            removed = farm.links[1].set_budget(1)
            assert removed == 1
            assert farm.shards[1].budget == 1
            results = farm.drain_results(n, timeout=30.0)
            assert sorted(results) == sorted(i * i for i in range(n))
            assert farm.shards[1].farm.num_workers == 1
        finally:
            farm.shutdown()

    def test_dispatch_spreads_by_budget(self):
        """The parent's stride dispatcher weights shards by budget."""
        farm = make_sharded(
            "thread",
            contract=ThroughputRangeContract(1.0, 1000.0),
            autostart=False,
        )
        try:
            for i in range(20):
                farm.submit((0.0, i))
            # equal budgets -> an even split
            assert farm._dispatched_per_shard == [10, 10]
            results = farm.drain_results(20, timeout=30.0)
            assert sorted(results) == sorted(i * i for i in range(20))
        finally:
            farm.shutdown()

    def test_duplicate_violations_in_one_cycle_all_aggregate(self):
        """Several violations raised between two polls all reach the
        parent record, each exactly once (no dedup, no loss)."""
        farm = make_sharded(
            "thread",
            contract=ThroughputRangeContract(1.0, 1000.0),
            autostart=False,
        )
        try:
            controller = farm.shards[0].controller
            now = farm.shards[0].farm.now()
            controller.violations.append((now, "notEnoughTasks"))
            controller.violations.append((now, "notEnoughTasks"))
            controller.violations.append((now, "noLocalPlan"))
            farm.parent_step()
            kinds = [k for _, shard, k in farm.violations if shard == 0]
            assert kinds == ["notEnoughTasks", "notEnoughTasks", "noLocalPlan"]
            # the next poll must not replay them
            farm.parent_step()
            assert len([k for _, s, k in farm.violations if s == 0]) == 3
        finally:
            farm.shutdown()


class TestWireManagementPlane:
    """The same parent loop over real TCP frames (over_wire=True)."""

    def test_wire_link_round_trip(self):
        tel = Telemetry()
        farm = make_sharded(
            "thread",
            contract=ThroughputRangeContract(2.0, 1000.0),
            telemetry=tel,
            over_wire=True,
            autostart=False,
        )
        try:
            assert all(agent is not None for agent in farm.agents)
            for i in range(10):
                farm.submit((0.0, i))
            results = farm.drain_results(10, timeout=30.0)
            assert sorted(results) == sorted(i * i for i in range(10))

            farm.parent_step()  # polls every shard over TCP
            assert all(r is not None for r in farm.last_reports)
            # a budget change and a re-contract also cross the wire
            assert farm.links[0].set_budget(1) == 0
            farm.links[0].assign_contract(farm.sub_contracts[0])
            agent = farm.agents[0]
            assert agent.frames_served >= 3  # hello + poll + budget + contract
            assert counter_value(
                tel, "repro_hier_wire_frames_total",
                shard=farm.shards[0].name, type="poll",
            ) >= 1
        finally:
            farm.shutdown()

    def test_agent_refuses_mismatched_protocol_version(self):
        farm = make_sharded(
            "thread",
            contract=ThroughputRangeContract(2.0, 1000.0),
            over_wire=True,
            autostart=False,
        )
        try:
            agent = farm.agents[0]
            with socket.create_connection((agent.host, agent.port), timeout=5.0) as sock:
                sock.sendall(encode_frame_v4({"type": "hello", "proto": 999}))
                reply = read_frame_blocking(sock.makefile("rb"))
            assert reply is not None
            assert reply["type"] == "error"
            assert "protocol version mismatch" in reply["error"]
            assert str(PROTOCOL_VERSION) in reply["error"]
        finally:
            farm.shutdown()

    def test_agent_hangs_up_on_a_v3_framed_hello(self):
        """The length-prefixed-JSON dialect is gone from the management
        links too: such a peer is told why (in a frame it may not be
        able to read) and hung up on within a second, never served."""
        farm = make_sharded(
            "thread",
            contract=ThroughputRangeContract(2.0, 1000.0),
            over_wire=True,
            autostart=False,
        )
        try:
            agent = farm.agents[0]
            served = agent.frames_served
            body = b'{"type":"hello","proto":3}'
            with socket.create_connection((agent.host, agent.port), timeout=1.0) as sock:
                sock.sendall(len(body).to_bytes(4, "big") + body)
                rfile = sock.makefile("rb")
                reply = read_frame_blocking(rfile)
                assert rfile.read() == b""  # EOF inside the 1 s socket timeout
            assert reply["type"] == "error"
            assert "first byte is 0x00" in reply["error"]
            assert agent.frames_served == served
        finally:
            farm.shutdown()
