"""Decision replay: a live manager's audit, re-decided on the DES clock.

The live :class:`~repro.runtime.controller.FarmController` and the
simulated farm manager are one class on two time bases, so a live run's
exported audit carries everything the DES-clock manager needs to make
the same decisions again: each ``mape.monitor`` span holds the sample it
read, each ``mape.execute`` span the rules it fired and (as
``mape.operation`` events) the operations they ordered, and the event
marks the violations, state changes and actuations that followed.
:func:`replay` feeds the samples to a :class:`FarmManager` under a
:class:`Simulator` over :class:`ReplayABC` and reads *its* audit back
through the same :func:`read_audit`; ``test_decision_replay.py`` demands
the two :meth:`Recording.decisions` be equal.

``fixtures/replay_supervised_process.jsonl`` is the manager's slice of
one supervised process-farm run that lost workers to SIGKILL.
Re-record it (only when the audit format changes on purpose) from the
repo root::

    PYTHONPATH=src python -m tests.runtime.decision_replay

Not a test module itself: the forked workers import :func:`kernel` from
here by name.
"""

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.contracts import Contract, ThroughputRangeContract
from repro.core.events import Events
from repro.core.policies import ManagersConstants
from repro.core.skeleton_manager import FarmManager
from repro.gcm.abc_controller import AutonomicBehaviourController
from repro.obs import Telemetry
from repro.obs.clock import SimClock
from repro.obs.export import trace_jsonl
from repro.rules.beans import ManagerOperation
from repro.runtime.controller import LiveFarmABC
from repro.sim.engine import Simulator

from .waiting import wait_until

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "replay_supervised_process.jsonl"
)

#: what the recorded run's manager was built with (the audit does not
#: carry constructor arguments)
FIXTURE_MANAGER = "replay-sup-am"
FIXTURE_CONTRACT = ThroughputRangeContract(60.0, 200.0)
FIXTURE_MAX_WORKERS = 6


@dataclass
class Tick:
    """One completed MAPE cycle: what it saw and what it decided."""

    sample: Dict[str, Any]
    fired: Tuple[str, ...]
    ops: Tuple[Tuple[str, Any], ...]


@dataclass
class Recording:
    """One manager's decisions, as its exported audit tells them."""

    ticks: List[Tick] = field(default_factory=list)
    #: ``(time, name, detail)`` of every event mark, in recording order
    marks: List[Tuple[float, str, Dict[str, Any]]] = field(default_factory=list)

    def decisions(self) -> Tuple[list, list]:
        """What must not differ between clocks: per tick the fired rules
        and the ``(operation, argument)`` sequence; then every mark —
        contract events, violations by kind, ACTIVE/PASSIVE transitions,
        actuations — by name and detail (times are the clock's own)."""
        per_tick = [(i, t.fired, t.ops) for i, t in enumerate(self.ticks)]
        return per_tick, [(name, detail) for _, name, detail in self.marks]

    def marks_of_tick(self, index: int) -> List[Tuple[str, Dict[str, Any]]]:
        """Marks stamped from tick ``index``'s sample up to the next one."""
        start = self.ticks[index].sample["time"]
        end = (
            self.ticks[index + 1].sample["time"]
            if index + 1 < len(self.ticks)
            else float("inf")
        )
        return [(name, detail) for t, name, detail in self.marks if start <= t < end]


#: the spans a replay reads (a tick's analyse/plan spans add nothing to it)
_REPLAY_SPANS = ("mape.cycle", "mape.monitor", "mape.execute")


def manager_audit(manager: Any) -> str:
    """The manager's slice of its run's JSONL audit: its event marks and
    the ``mape.*`` spans a replay reads (a whole-run export also holds
    every task's spans)."""
    kept = []
    for line in trace_jsonl(manager.telemetry, manager.trace).splitlines():
        record = json.loads(line)
        if record.get("actor") != manager.name:
            continue
        if record["type"] == "event" or record["name"] in _REPLAY_SPANS:
            kept.append(line)
    return "\n".join(kept) + "\n"


def read_audit(text: str, actor: str) -> Recording:
    """Rebuild ``actor``'s ticks and marks from a JSONL audit."""
    recording = Recording()
    cycles: List[str] = []
    phases: Dict[str, Dict[str, Any]] = {}
    for line in text.splitlines():
        record = json.loads(line)
        if record.get("actor") != actor:
            continue
        if record["type"] == "event":
            recording.marks.append((record["time"], record["name"], record["detail"]))
        elif record["type"] == "span" and record["name"] == "mape.cycle":
            cycles.append(record["id"])
        elif record["type"] == "span" and record["name"] in _REPLAY_SPANS:
            phases.setdefault(record["parent"], {})[record["name"]] = record
    for cycle in cycles:
        spans = phases.get(cycle, {})
        execute = spans.get("mape.execute")
        if execute is None or execute["end"] is None:
            continue  # a blackout tick, or one the export caught mid-flight
        recording.ticks.append(
            Tick(
                sample=spans["mape.monitor"]["attributes"]["sample"],
                fired=tuple(execute["attributes"].get("fired", ())),
                ops=tuple(
                    (ev["attributes"]["op"], ev["attributes"]["data"])
                    for ev in execute["events"]
                    if ev["name"] == "mape.operation"
                ),
            )
        )
    return recording


class ReplayABC(AutonomicBehaviourController):
    """Serves a recording's samples in order and answers each actuator
    call as the recorded mechanism did (read off that tick's marks)."""

    def __init__(self, recording: Recording, clock: Any) -> None:
        self.recording = recording
        self.clock = clock
        self.tick = -1
        self.last_balance_moved = 0

    def monitor(self):
        self.tick += 1
        if self.tick >= len(self.recording.ticks):
            return None
        # the sample is read *now* on this clock
        return {**self.recording.ticks[self.tick].sample, "time": self.clock.now}

    def supported_operations(self):
        return LiveFarmABC._OPS  # it stands in for the live ABC

    def execute(self, op, data=None):
        marks = dict(self.recording.marks_of_tick(self.tick))
        if op is ManagerOperation.ADD_EXECUTOR:
            return Events.ADD_WORKER in marks
        if op is ManagerOperation.REMOVE_EXECUTOR:
            return Events.REMOVE_WORKER in marks
        if op is ManagerOperation.BALANCE_LOAD:
            self.last_balance_moved = marks.get(Events.REBALANCE, {}).get("moved", 0)
            return True
        raise AssertionError(f"unrecorded operation {op}")


def replay(
    recording: Recording, name: str, contract: Contract, max_workers: int
) -> Recording:
    """Re-decide ``recording`` with the DES-clock manager; its recording."""
    sim = Simulator()
    constants = ManagersConstants()
    constants.FARM_MAX_NUM_WORKERS = max_workers
    manager = FarmManager(
        name,
        sim,
        ReplayABC(recording, sim),
        constants=constants,
        manage_workers=False,
        telemetry=Telemetry(SimClock(sim)),
        control_period=1.0,
    )
    manager.assign_contract(contract)
    sim.run(until=float(len(recording.ticks)))
    manager.stop()
    return read_audit(manager_audit(manager), name)


# ----------------------------------------------------------------------
# the committed fixture's scenario
# ----------------------------------------------------------------------
def kernel(value):
    """20 ms of blocking work: one worker serves ~50 tasks/s."""
    time.sleep(0.02)
    return value


def record_fixture() -> str:
    """A supervised process farm under the Fig. 5 rules: starve, paced
    load, workers SIGKILLed under load, regrowth, overload, starve again."""
    from repro.runtime.supervision.supervisor import SupervisedFarm, Supervisor

    with tempfile.TemporaryDirectory() as tmp:
        farm = SupervisedFarm(
            "tests.runtime.decision_replay:kernel",  # by name: also runs as __main__
            backend="process",
            journal_path=os.path.join(tmp, "journal"),
            name="replay-sup",
            initial_workers=2,
            max_workers=FIXTURE_MAX_WORKERS,
            farm_options=dict(
                rate_window=0.5,
                heartbeat_period=0.05,
                heartbeat_timeout=0.5,
                supervise_period=0.02,
                backoff_base=0.02,
            ),
        )
        supervisor = Supervisor(
            farm,
            contract=FIXTURE_CONTRACT,
            control_period=0.1,
            max_workers=FIXTURE_MAX_WORKERS,
            telemetry=Telemetry(),  # the manager's only: the farm's stays off
            name="replay-sup",
        ).start()
        manager = supervisor.controller
        assert manager.name == FIXTURE_MANAGER
        submitted = 0

        def paced(seconds: float, rate: float = 120.0) -> None:
            nonlocal submitted
            start, base = time.monotonic(), submitted
            while (elapsed := time.monotonic() - start) < seconds:
                while submitted - base < elapsed * rate:
                    farm.submit(submitted)
                    submitted += 1
                time.sleep(0.005)

        try:
            wait_until(lambda: len(manager.violations) >= 3, message="starvation")
            paced(1.2)  # the ramp reads as under-delivery: 2 -> 4 workers
            while farm.num_workers > 1:  # lose all but one, under load
                survivors = farm.num_workers - 1
                farm.farm.inject_crash()
                wait_until(lambda: farm.num_workers <= survivors, message="crash detection")
            paced(1.5)  # 50 tasks/s is below the floor: the rules regrow
            paced(0.6, rate=300.0)  # above the ceiling: tooMuchTasks warnings
            assert len(farm.drain_results(submitted, timeout=60.0)) == submitted
            seen = len(manager.violations)
            wait_until(
                lambda: len(manager.violations) >= seen + 3, message="final starvation"
            )
        finally:
            supervisor.stop()
            farm.shutdown()
        return manager_audit(manager)


if __name__ == "__main__":
    audit = record_fixture()
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        fh.write(audit)
    recorded = read_audit(audit, FIXTURE_MANAGER)
    print(f"{FIXTURE}: {len(recorded.ticks)} ticks, {len(recorded.marks)} marks")
