"""Tests for the AutonomicManager base: MAPE loop, roles, violations."""

import pytest

from repro.core.contracts import BestEffortContract, MinThroughputContract
from repro.core.events import Events, ViolationKind
from repro.core.manager import AutonomicManager, ManagerError, ManagerState
from repro.obs import SimClock, Telemetry
from repro.rules.beans import DepartureRateBean, ManagerOperation
from repro.rules.dsl import rule, value_lt
from repro.sim.engine import Simulator


class RecordingManager(AutonomicManager):
    """Manager exposing hooks' call history for assertions."""

    def __init__(self, *args, monitor_data=None, **kwargs):
        self.observed = []
        self.passive_steps = 0
        self.monitor_data = monitor_data if monitor_data is not None else {}
        super().__init__(*args, **kwargs)

    def monitor(self):
        return self.monitor_data

    def observe(self, data):
        self.observed.append(data)

    def passive_step(self, data):
        self.passive_steps += 1


class TestLifecycle:
    def test_invalid_control_period(self):
        with pytest.raises(ManagerError):
            AutonomicManager("m", Simulator(), control_period=0.0)

    def test_control_loop_runs_periodically(self):
        sim = Simulator()
        m = RecordingManager("m", sim, control_period=10.0)
        sim.run(until=35.0)
        assert len(m.observed) == 3

    def test_stop_halts_loop(self):
        sim = Simulator()
        m = RecordingManager("m", sim, control_period=10.0)
        sim.schedule(15.0, m.stop)
        sim.run(until=100.0)
        assert len(m.observed) == 1

    def test_start_is_idempotent(self):
        sim = Simulator()
        m = RecordingManager("m", sim, control_period=10.0)
        m.start()
        m.start()
        sim.run(until=10.0)
        assert len(m.observed) == 1

    def test_no_autostart(self):
        sim = Simulator()
        m = RecordingManager("m", sim, control_period=10.0, autostart=False)
        sim.run(until=50.0)
        assert m.observed == []
        m.start()
        sim.run(until=100.0)
        assert len(m.observed) == 5

    def test_blackout_skips_cycle(self):
        sim = Simulator()
        m = RecordingManager("m", sim, control_period=10.0, monitor_data={})
        m.monitor_data = None  # simulate blackout
        sim.run(until=30.0)
        assert m.observed == []
        assert m.last_monitor is None


class TestStates:
    def test_starts_passive(self):
        m = RecordingManager("m", Simulator())
        assert m.state is ManagerState.PASSIVE
        assert not m.active

    def test_contract_activates(self):
        sim = Simulator()
        m = RecordingManager("m", sim, telemetry=Telemetry(SimClock(sim)))
        m.assign_contract(BestEffortContract())
        assert m.active
        assert m.trace.count(Events.GO_ACTIVE) == 1
        assert m.trace.count(Events.NEW_CONTRACT) == 1

    def test_fatal_violation_goes_passive_with_parent(self):
        sim = Simulator()
        parent = RecordingManager("p", sim)
        m = RecordingManager("m", sim, telemetry=Telemetry(SimClock(sim)))
        parent.add_child(m)
        m.assign_contract(BestEffortContract())
        m.raise_violation(ViolationKind.NOT_ENOUGH_TASKS)
        assert m.state is ManagerState.PASSIVE
        assert m.trace.count(Events.GO_PASSIVE) == 1

    def test_fatal_violation_on_root_stays_active(self):
        """A root manager has nobody to re-contract it: it reports to the
        user and keeps trying rather than deadlocking passive."""
        sim = Simulator()
        m = RecordingManager("m", sim)
        m.assign_contract(BestEffortContract())
        m.raise_violation(ViolationKind.NOT_ENOUGH_TASKS)
        assert m.state is ManagerState.ACTIVE
        assert m.unhandled_violations

    def test_warning_violation_stays_active(self):
        sim = Simulator()
        m = RecordingManager("m", sim)
        m.assign_contract(BestEffortContract())
        v = m.raise_violation(ViolationKind.TOO_MUCH_TASKS, severity="warning")
        assert m.active
        assert v.is_warning

    def test_passive_step_runs_only_when_passive(self):
        sim = Simulator()
        parent = RecordingManager("p", sim, control_period=10.0)
        m = RecordingManager("m", sim, control_period=10.0)
        parent.add_child(m)
        m.assign_contract(BestEffortContract())
        sim.run(until=20.0)
        assert m.passive_steps == 0
        m.raise_violation("x")
        sim.run(until=40.0)
        assert m.passive_steps == 2

    def test_reassigning_contract_reactivates(self):
        sim = Simulator()
        parent = RecordingManager("p", sim)
        m = RecordingManager("m", sim)
        parent.add_child(m)
        m.assign_contract(BestEffortContract())
        m.raise_violation("x")
        assert not m.active
        m.assign_contract(BestEffortContract())
        assert m.active


class TestHierarchyWiring:
    def test_add_child(self):
        sim = Simulator()
        parent = RecordingManager("p", sim)
        child = RecordingManager("c", sim)
        parent.add_child(child)
        assert child.parent is parent
        assert parent.children == [child]
        assert parent.is_root and not child.is_root

    def test_child_cannot_have_two_parents(self):
        sim = Simulator()
        p1, p2 = RecordingManager("p1", sim), RecordingManager("p2", sim)
        c = RecordingManager("c", sim)
        p1.add_child(c)
        with pytest.raises(ManagerError):
            p2.add_child(c)

    def test_self_child_rejected(self):
        m = RecordingManager("m", Simulator())
        with pytest.raises(ManagerError):
            m.add_child(m)

    def test_descendants(self):
        sim = Simulator()
        root = RecordingManager("r", sim)
        a = RecordingManager("a", sim)
        b = RecordingManager("b", sim)
        leaf = RecordingManager("leaf", sim)
        root.add_child(a)
        root.add_child(b)
        a.add_child(leaf)
        assert [m.name for m in root.descendants()] == ["a", "leaf", "b"]


class TestViolationRouting:
    def test_violation_reaches_parent_after_delay(self):
        sim = Simulator()
        parent = RecordingManager("p", sim, violation_delay=2.0)
        child = RecordingManager("c", sim, violation_delay=2.0)
        parent.add_child(child)
        received = []
        parent.child_violation = lambda ch, v: received.append((sim.now, v.kind))
        sim.schedule(5.0, lambda: child.raise_violation("starved"))
        sim.run(until=20.0)
        assert received == [(7.0, "starved")]

    def test_root_violation_recorded_unhandled(self):
        sim = Simulator()
        m = RecordingManager("m", sim)
        m.raise_violation("nobody-listens")
        sim.run(until=1.0)
        assert len(m.unhandled_violations) == 1
        assert m.violations_raised[0].kind == "nobody-listens"

    def test_default_child_violation_records(self):
        sim = Simulator()
        parent = RecordingManager("p", sim)
        child = RecordingManager("c", sim)
        parent.add_child(child)
        child.raise_violation("x")
        sim.run(until=5.0)
        assert len(parent.unhandled_violations) == 1

    def test_raise_marks_trace(self):
        sim = Simulator()
        m = RecordingManager("m", sim, telemetry=Telemetry(SimClock(sim)))
        m.raise_violation("kind-x", extra=1)
        ev = m.trace.first(Events.RAISE_VIOL)
        assert ev is not None
        assert ev.detail["kind"] == "kind-x"


class TestRuleOperationFlow:
    def test_rule_fires_operation_into_manager(self):
        """End-to-end: monitor -> bean -> rule -> operation -> violation."""
        sim = Simulator()

        class M(RecordingManager):
            def observe(self, data):
                super().observe(data)
                bean = self.make_bean(DepartureRateBean(data["departure_rate"]))
                self.engine.memory.replace(bean)

        m = M("m", sim, control_period=10.0, monitor_data={"departure_rate": 0.1})
        parent = RecordingManager("p", sim, control_period=10.0)
        parent.add_child(m)

        def starved(act):
            act["d"].set_data("starved")
            act["d"].fire_operation(ManagerOperation.RAISE_VIOLATION)

        m.engine.add_rule(
            rule("Starved").when(DepartureRateBean, value_lt(0.5), bind="d").then(starved)
        )
        m.assign_contract(MinThroughputContract(0.5))
        sim.run(until=10.0)
        assert m.violations_raised[0].kind == "starved"
        assert m.state is ManagerState.PASSIVE

    def test_operation_without_abc_rejected(self):
        sim = Simulator()
        m = RecordingManager("m", sim)
        with pytest.raises(ManagerError):
            m.on_operation(ManagerOperation.ADD_EXECUTOR, None)


class TestContractSatisfaction:
    def test_none_without_contract_or_data(self):
        sim = Simulator()
        m = RecordingManager("m", sim)
        assert m.contract_satisfied() is None
        m.assign_contract(MinThroughputContract(0.5))
        assert m.contract_satisfied() is None

    def test_judged_against_last_monitor(self):
        sim = Simulator()
        m = RecordingManager(
            "m", sim, control_period=10.0, monitor_data={"departure_rate": 0.7}
        )
        m.assign_contract(MinThroughputContract(0.5))
        sim.run(until=10.0)
        assert m.contract_satisfied() is True
        m.monitor_data = {"departure_rate": 0.2}
        sim.run(until=20.0)
        assert m.contract_satisfied() is False
