"""Tests for BS assembly and the hierarchy utilities."""

import pytest

from repro.core.behavioural import (
    AM_CONTROLLER,
    build_farm_bs,
    build_three_stage_pipeline,
)
from repro.core.contracts import MinThroughputContract, ThroughputRangeContract
from repro.core.hierarchy import (
    check_hierarchy,
    format_hierarchy,
    hierarchy_states,
    managers_preorder,
    passive_managers,
    propagate_contract,
)
from repro.core.manager import AutonomicManager, ManagerError
from repro.gcm.abc_controller import AutonomicBehaviourController
from repro.skeletons.ast import Farm, Pipe
from repro.sim.engine import Simulator
from repro.sim.resources import ResourceManager, make_cluster
from repro.sim.workload import ConstantWork, TaskSource


class TestBuildFarmBS:
    def _build(self, **kwargs):
        sim = Simulator()
        rm = ResourceManager(make_cluster(8))
        bs = build_farm_bs(
            sim, rm, worker_work=5.0, initial_degree=2, worker_setup_time=0.0, **kwargs
        )
        return sim, rm, bs

    def test_mechanism_bootstrapped(self):
        sim, rm, bs = self._build()
        assert bs.farm.num_workers == 2
        assert rm.allocated_count == 2

    def test_pattern_reflects_configuration(self):
        sim, rm, bs = self._build()
        assert isinstance(bs.pattern, Farm)
        assert bs.pattern.degree == 2
        assert bs.pattern.worker.work == 5.0

    def test_component_membrane(self):
        sim, rm, bs = self._build()
        assert bs.component.controller(AM_CONTROLLER) is bs.manager
        assert bs.component.controller(AutonomicBehaviourController.NAME) is bs.abc
        assert bs.component.has_controller("lifecycle-controller")

    def test_contract_interface_on_component(self):
        sim, rm, bs = self._build()
        itf = bs.component.interface("contract")
        itf.invoke(MinThroughputContract(0.5))
        assert bs.manager.contract == MinThroughputContract(0.5)

    def test_worker_managers_spawned_when_asked(self):
        sim, rm, bs = self._build(spawn_worker_managers=True)
        assert len(bs.manager.children) == 2

    def test_no_worker_managers_by_flag(self):
        sim, rm, bs = self._build(spawn_worker_managers=False)
        assert bs.manager.children == []

    def test_end_to_end_contract_enforcement(self):
        sim, rm, bs = self._build()
        TaskSource(sim, bs.farm.input, rate=0.9, work_model=ConstantWork(5.0))
        bs.assign_contract(MinThroughputContract(0.6))
        sim.run(until=400.0)
        assert bs.farm.force_snapshot().departure_rate >= 0.55


class TestBuildPipeline:
    def _build(self, **kwargs):
        sim = Simulator()
        rm = ResourceManager(make_cluster(12))
        defaults = dict(
            work_model=ConstantWork(10.0),
            worker_work=10.0,
            initial_rate=0.3,
            total_tasks=50,
            initial_degree=3,
            worker_setup_time=2.0,
        )
        defaults.update(kwargs)
        app = build_three_stage_pipeline(sim, rm, **defaults)
        return sim, app

    def test_manager_hierarchy_shape(self):
        sim, app = self._build()
        assert [c.name for c in app.am_a.children] == ["AM_P", "AM_F", "AM_C"]
        check_hierarchy(app.am_a)

    def test_pattern_is_paper_tree(self):
        sim, app = self._build()
        assert isinstance(app.pattern, Pipe)
        assert len(app.pattern.stages) == 3
        assert isinstance(app.pattern.stages[1], Farm)
        assert app.pattern.stages[1].degree == 3

    def test_cores_in_use_initial(self):
        sim, app = self._build()
        assert app.cores_in_use() == 5  # producer + consumer + 3 workers

    def test_tasks_flow_end_to_end(self):
        sim, app = self._build()
        app.assign_contract(ThroughputRangeContract(0.2, 2.0))
        # the manager control loops run forever; bound the run instead of
        # draining the event queue
        sim.run(until=600.0)
        assert app.delivered == 50
        assert len(app.pipeline.sink) == 50

    def test_end_of_stream_reaches_both_farm_and_am_a(self):
        sim, app = self._build(total_tasks=5, initial_rate=1.0)
        app.assign_contract(ThroughputRangeContract(0.2, 2.0))
        sim.run(until=60.0)
        assert app.farm.end_of_stream
        assert app.am_a.stream_ended


class TestHierarchyUtilities:
    def _tree(self):
        sim = Simulator()
        root = AutonomicManager("root", sim, autostart=False)
        a = AutonomicManager("a", sim, autostart=False)
        b = AutonomicManager("b", sim, autostart=False)
        leaf = AutonomicManager("leaf", sim, autostart=False)
        root.add_child(a)
        root.add_child(b)
        a.add_child(leaf)
        return sim, root, a, b, leaf

    def test_preorder(self):
        _, root, a, b, leaf = self._tree()
        assert [m.name for m in managers_preorder(root)] == ["root", "a", "leaf", "b"]

    def test_states_snapshot(self):
        _, root, a, b, leaf = self._tree()
        from repro.core.contracts import BestEffortContract

        a.assign_contract(BestEffortContract())
        states = hierarchy_states(root)
        assert states["a"] == "active"
        assert states["root"] == "passive"

    def test_passive_managers(self):
        _, root, a, b, leaf = self._tree()
        from repro.core.contracts import BestEffortContract

        for m in (root, a, b, leaf):
            m.assign_contract(BestEffortContract())
        b.raise_violation("x")
        assert passive_managers(root) == [b]

    def test_propagate_contract_alias(self):
        _, root, *_ = self._tree()
        from repro.core.contracts import BestEffortContract

        propagate_contract(root, BestEffortContract())
        assert root.active

    def test_check_hierarchy_accepts_valid(self):
        _, root, *_ = self._tree()
        check_hierarchy(root)

    def test_check_hierarchy_rejects_rooted_subtree(self):
        _, root, a, *_ = self._tree()
        with pytest.raises(ManagerError):
            check_hierarchy(a)  # a has a parent

    def test_check_hierarchy_rejects_bad_backlink(self):
        _, root, a, b, leaf = self._tree()
        leaf.parent = b  # corrupt the backlink
        with pytest.raises(ManagerError):
            check_hierarchy(root)

    def test_check_hierarchy_rejects_duplicates(self):
        sim = Simulator()
        root = AutonomicManager("root", sim, autostart=False)
        shared = AutonomicManager("shared", sim, autostart=False)
        root.add_child(shared)
        root.children.append(shared)  # bypass add_child's guard
        with pytest.raises(ManagerError):
            check_hierarchy(root)

    def test_format_hierarchy(self):
        _, root, a, b, leaf = self._tree()
        from repro.core.contracts import BestEffortContract

        a.assign_contract(BestEffortContract())
        text = format_hierarchy(root)
        assert "root" in text and "leaf" in text
        assert "best effort" in text
        assert "(no contract)" in text


class TestPipelineComponentStructure:
    """The Figure 2 (right) GCM shape: composite + stage children + bindings."""

    def _app(self):
        sim = Simulator()
        rm = ResourceManager(make_cluster(12))
        app = build_three_stage_pipeline(
            sim, rm,
            work_model=ConstantWork(10.0), worker_work=10.0,
            initial_rate=0.3, total_tasks=20, initial_degree=2,
            worker_setup_time=0.0,
        )
        return sim, app

    def test_children_are_the_three_stages(self):
        sim, app = self._app()
        names = {c.name for c in app.component.children}
        assert names == {"app.producer", "app.filter", "app.consumer"}

    def test_stage_membranes_hold_managers_and_abcs(self):
        from repro.core.behavioural import AM_CONTROLLER
        from repro.gcm.abc_controller import AutonomicBehaviourController

        sim, app = self._app()
        filt = app.component.child("app.filter")
        assert filt.controller(AM_CONTROLLER) is app.am_f
        assert filt.controller(AutonomicBehaviourController.NAME) is app.am_f.abc

    def test_bindings_wire_the_stages(self):
        sim, app = self._app()
        assert len(app.component.bindings) == 2
        srcs = {b.client.owner.name for b in app.component.bindings}
        assert srcs == {"app.producer", "app.filter"}

    def test_binding_call_reaches_the_mechanism(self):
        from repro.sim.workload import finite_stream as fs

        sim, app = self._app()
        producer_out = app.component.child("app.producer").interface("out")
        binding = app.component.binding_of(producer_out)
        task = fs(1, ConstantWork(1.0))[0]
        binding.call(task)  # producer -> filter wire delivers into the farm
        assert len(app.farm.input) >= 1

    def test_components_started(self):
        sim, app = self._app()
        assert app.component.started
        assert all(c.started for c in app.component.children)

    def test_secure_all_bindings(self):
        from repro.gcm.controllers import BindingController

        sim, app = self._app()
        bc = app.component.controller(BindingController.NAME)
        assert bc.secure_all() == 2
        assert bc.unsecured() == []


class TestBuildMapBS:
    def _build(self, **kwargs):
        from repro.core.behavioural import build_map_bs

        sim = Simulator()
        rm = ResourceManager(make_cluster(10))
        bs = build_map_bs(sim, rm, initial_degree=2, worker_setup_time=0.0, **kwargs)
        return sim, rm, bs

    def test_bootstrap(self):
        sim, rm, bs = self._build()
        assert bs.farm.num_workers == 2
        assert rm.allocated_count == 2

    def test_pattern_is_scatter_reduce_farm(self):
        sim, rm, bs = self._build()
        assert isinstance(bs.pattern, Farm)
        assert bs.pattern.dispatch == "scatter"
        assert bs.pattern.collect == "reduce"

    def test_manager_enforces_contract_on_map(self):
        sim, rm, bs = self._build(rate_window=20.0)
        TaskSource(sim, bs.farm.input, rate=0.5, work_model=ConstantWork(10.0))
        bs.assign_contract(MinThroughputContract(0.4))
        sim.run(until=300.0)
        snap = bs.farm.force_snapshot()
        assert snap.departure_rate >= 0.36
        assert snap.num_workers > 2

    def test_current_pattern_tracks_live_degree(self):
        sim, rm, bs = self._build()
        assert bs.current_pattern().degree == 2
        from repro.rules.beans import ManagerOperation

        bs.abc.execute(ManagerOperation.ADD_EXECUTOR)
        assert bs.current_pattern().degree == 3


class TestGrowthRecordsOnTheBSTelemetry:
    """A farm BS and a map BS are one assembly: either one's growth is
    recorded on the telemetry its manager holds."""

    @pytest.mark.parametrize("shape", ["farm", "map"])
    def test_grow_is_a_commit_span_with_its_blackout(self, shape):
        from repro.core.behavioural import build_map_bs
        from repro.obs.export import prometheus_text

        sim = Simulator()
        rm = ResourceManager(make_cluster(10))
        if shape == "farm":
            bs = build_farm_bs(sim, rm, worker_work=10.0, initial_degree=2, rate_window=20.0)
        else:
            bs = build_map_bs(sim, rm, initial_degree=2, rate_window=20.0)
        TaskSource(sim, bs.farm.input, rate=0.5, work_model=ConstantWork(10.0))
        bs.assign_contract(MinThroughputContract(0.4))
        sim.run(until=300.0)
        assert bs.farm.num_workers > 2
        tel = bs.manager.telemetry
        commits = [s for s in tel.spans.spans if s.name == "mc.commit"]
        assert commits
        assert "farm.blackout" in {e.name for s in commits for e in s.events}
        assert "repro_reconfiguration_blackout_seconds_bucket" in prometheus_text(tel.metrics)
