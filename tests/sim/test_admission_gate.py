"""The admission gate on the simulated farms, and what FarmABC keeps of
each clock's answers.

A worker added ``quarantined=True`` is deployed but held out of dispatch
until ``admit_worker`` lifts the gate — the same gate the live farms
have, so one FarmABC commits a grow on either clock as quarantined add
→ secure → admit.  The setup delay still applies after admission.
"""

import pytest

from repro.gcm.abc_controller import FarmABC
from repro.sim.engine import Simulator
from repro.sim.farm import SimFarm
from repro.sim.farmpipe import SimFarmOfPipelines
from repro.sim.map import SimMap
from repro.sim.resources import Node, ResourceManager, make_cluster
from repro.sim.workload import ConstantWork, finite_stream

SETUP = 5.0


def submit(farm, count):
    for t in finite_stream(count, ConstantWork(1.0)):
        farm.submit(t)


def sim_farm(sim):
    return SimFarm(sim, emitter_node=Node("e"), worker_setup_time=SETUP), lambda w: w.completed


def sim_map(sim):
    smap = SimMap(sim, emitter_node=Node("e"), worker_setup_time=SETUP)
    return smap, lambda w: w.chunks_done


def farm_of_pipelines(sim):
    fp = SimFarmOfPipelines(sim, stage_works=[1.0], replica_setup_time=SETUP)
    return fp, lambda r: r.completed


@pytest.mark.parametrize("build", [sim_farm, sim_map, farm_of_pipelines])
def test_a_quarantined_worker_serves_only_after_admission_and_setup(build):
    sim = Simulator()
    farm, served = build(sim)
    nodes = make_cluster(3)
    farm.add_worker(nodes[0])
    held = farm.add_worker(nodes[1], quarantined=True)
    late = farm.add_worker(nodes[2], quarantined=True)
    submit(farm, 5)
    sim.run(until=20.0)  # well past the setup delay: only the gate holds
    assert held.quarantined and not held.active
    assert served(held) == 0 and served(late) == 0
    assert farm.admit_worker(held.worker_id)
    assert held.active and not held.quarantined
    submit(farm, 20)
    sim.run(until=60.0)
    assert served(held) > 0
    assert served(late) == 0  # still at the gate


@pytest.mark.parametrize("build", [sim_farm, sim_map, farm_of_pipelines])
def test_admission_before_setup_ends_waits_for_setup(build):
    sim = Simulator()
    farm, served = build(sim)
    nodes = make_cluster(2)
    farm.add_worker(nodes[0])
    worker = farm.add_worker(nodes[1], quarantined=True)
    sim.run(until=1.0)
    assert farm.admit_worker(worker.worker_id)
    sim.run(until=SETUP - 0.5)
    assert not worker.active
    sim.run(until=SETUP + 0.5)
    assert worker.active
    submit(farm, 20)
    sim.run(until=SETUP + 40.0)
    assert served(worker) > 0


def test_the_gate_refuses_unknown_and_stopped_workers():
    sim = Simulator()
    farm, _ = sim_farm(sim)
    worker = farm.add_worker(Node("n"), quarantined=True)
    assert not farm.admit_worker(worker.worker_id + 1)
    assert not farm.secure_worker(worker.worker_id + 1)
    assert farm.secure_worker(worker.worker_id) and worker.secured
    farm.fail_worker(worker)
    assert not farm.admit_worker(worker.worker_id)


def abc_setup(setup_time=0.0, n_pool=4):
    sim = Simulator()
    rm = ResourceManager(make_cluster(n_pool))
    farm = SimFarm(sim, emitter_node=Node("e"), worker_setup_time=setup_time)
    return sim, farm, rm, FarmABC(farm, rm)


def test_a_des_crash_keeps_its_node_across_a_later_plan():
    sim, farm, rm, abc = abc_setup()
    abc.bootstrap(2)
    victim = farm.workers[1]
    farm.fail_worker(victim)
    plan = abc.plan_add_workers(1)
    assert victim.node.allocated  # it crashed: not reusable
    assert victim.node not in plan.nodes
    assert rm.allocated_count == 3


def test_bindings_list_a_des_worker_during_its_setup_delay():
    sim, farm, rm, abc = abc_setup(setup_time=SETUP)
    abc.bootstrap(1)
    sim.run(until=SETUP + 1.0)
    (grown,) = abc.commit_plan(abc.plan_add_workers(1))
    assert not grown.active  # still deploying
    assert [w for w, _ in abc.bindings()] == farm.workers
    farm.fail_worker(grown)
    assert [w for w, _ in abc.bindings()] == farm.workers[:1]
