"""A live worker that retires or dies gives its node back.

The GM grows a live farm on nodes it plans from the controller ABC's
pool.  Every shrink (``REMOVE_EXECUTOR``) and every crash must return
the worker's node, or a pool smaller than the number of grows a long
run makes drains until growth stops with ``no-plan``.  Each test here
grows and shrinks through the GM more times than the pool has nodes.
"""

from repro.core.contracts import MinThroughputContract
from repro.core.multiconcern import GeneralManager
from repro.rules.beans import ManagerOperation
from repro.runtime.controller import FarmController
from repro.sim.resources import Domain, ResourceManager, make_cluster

from .test_multiconcern_live import make_farm
from .waiting import wait_until

POOL = 2
UNTRUSTED = Domain("edge", trusted=False)


def coordinated(farm):
    """A controller whose grows are GM intents over a ``POOL``-node pool."""
    resources = ResourceManager(make_cluster(POOL, prefix="u", domain=UNTRUSTED))
    controller = FarmController(
        farm, MinThroughputContract(1.0), max_workers=8, resources=resources
    )
    gm = GeneralManager()
    gm.register(controller)
    return controller, gm, resources


def grow(controller, count=POOL):
    controller.on_operation(ManagerOperation.ADD_EXECUTOR, {"count": count})


def shrink(controller, times=POOL):
    for _ in range(times):
        controller.on_operation(ManagerOperation.REMOVE_EXECUTOR, None)


def test_removal_returns_nodes_across_more_grows_than_nodes():
    farm = make_farm("thread", None, initial_workers=1)
    try:
        controller, gm, resources = coordinated(farm)
        for _ in range(3):
            grow(controller)
            assert farm.num_workers == 1 + POOL
            assert len(resources.available()) == 0
            shrink(controller)
            assert farm.num_workers == 1
            assert len(resources.available()) == POOL
        assert gm.outcomes() == {"committed": 3}
    finally:
        farm.shutdown()


def test_a_crashed_workers_node_hosts_its_successor():
    farm = make_farm("process", None, initial_workers=1)
    try:
        controller, gm, resources = coordinated(farm)
        grow(controller)
        newest = max(w.worker_id for w in farm.workers)
        assert farm.inject_crash(newest) == newest
        # serving now: the bootstrap worker and the grown survivor
        wait_until(lambda: farm.num_workers == 2, message="crash detected")
        shrink(controller, 1)  # the surviving grown worker retires
        grow(controller)  # one node from the removal, one from the dead worker
        assert farm.num_workers == 1 + POOL
        shrink(controller)
        grow(controller)
        assert gm.outcomes() == {"committed": 3}
        assert len(resources.available()) == 0
    finally:
        farm.shutdown()


def test_a_grow_past_the_farm_limit_commits_partially():
    farm = make_farm("thread", None, initial_workers=1, max_workers=2)
    try:
        controller, gm, resources = coordinated(farm)
        grow(controller)
        assert gm.outcomes() == {"partial": 1}
        assert farm.num_workers == 2
        # the node that found no executor slot went straight back
        assert len(resources.available()) == 1
    finally:
        farm.shutdown()
