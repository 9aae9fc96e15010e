"""One manager, two clocks: the decision-replay differential and the
:class:`LiveFarmABC` seam it rests on.

The live controller and the simulated farm manager are the same class;
what differs is the time base (wall-clock ticker vs ``Simulator``) and
the ABC (``LiveFarmABC`` vs a replay of recorded samples).  A live run's
audit, re-decided on the DES clock, must therefore yield the identical
per-tick fired rules, operations with arguments, violations and state
transitions — for a committed supervised process-farm run that lost
workers to SIGKILL, and for a fresh thread-farm run made here.
"""

import pytest

from repro.core.contracts import MinThroughputContract, ThroughputRangeContract
from repro.core.events import ViolationKind
from repro.gcm.abc_controller import ABCError
from repro.obs import Telemetry
from repro.rules.beans import ManagerOperation
from repro.runtime.controller import FarmController, LiveFarmABC
from repro.runtime.farm_runtime import ThreadFarm
from repro.runtime.hierarchy.sharded_farm import FARM_BACKENDS, make_shard_backend

from .decision_replay import (
    FIXTURE,
    FIXTURE_CONTRACT,
    FIXTURE_MANAGER,
    FIXTURE_MAX_WORKERS,
    kernel,
    manager_audit,
    read_audit,
    replay,
)
from .waiting import wait_until


def fired_rules(recording):
    return {name for tick in recording.ticks for name in tick.fired}


class TestDecisionReplay:
    def test_committed_supervised_run_replays_identically(self):
        with open(FIXTURE) as fh:
            live = read_audit(fh.read(), FIXTURE_MANAGER)
        # the recorded story: starvation, regrowth after the kills, overload
        assert {"CheckInterArrivalRateLow", "CheckRateLow", "CheckInterArrivalRateHigh"} <= (
            fired_rules(live)
        )
        assert min(t.sample["num_workers"] for t in live.ticks) == 1
        replayed = replay(live, FIXTURE_MANAGER, FIXTURE_CONTRACT, FIXTURE_MAX_WORKERS)
        assert replayed.decisions() == live.decisions()

    def test_fresh_thread_run_replays_identically(self):
        contract = ThroughputRangeContract(80.0, 1000.0)
        farm = ThreadFarm(kernel, initial_workers=1, rate_window=0.2, max_workers=4)
        ctl = FarmController(
            farm,
            contract,
            control_period=0.02,
            max_workers=4,
            telemetry=Telemetry(),
            name="AM_fresh",
        ).start()
        try:
            wait_until(lambda: len(ctl.violations) >= 2, message="starvation")
            wait_until(
                lambda: farm.num_workers > 1,
                on_tick=lambda: [farm.submit(i) for i in range(4)],
                message="growth under load",
            )
            seen = len(ctl.violations)
            wait_until(
                lambda: len(ctl.violations) >= seen + 2, message="starvation again"
            )
        finally:
            ctl.stop()
            farm.shutdown()
        live = read_audit(manager_audit(ctl), ctl.name)
        assert {"CheckInterArrivalRateLow", "CheckRateLow"} <= fired_rules(live)
        assert any(a.startswith("addWorker") for _, a in ctl.actions)
        replayed = replay(live, ctl.name, contract, 4)
        assert replayed.decisions() == live.decisions()

    def test_a_different_contract_decides_differently(self):
        """The differential has teeth: the same samples under another
        contract do *not* reproduce the recorded decisions."""
        with open(FIXTURE) as fh:
            live = read_audit(fh.read(), FIXTURE_MANAGER)
        other = replay(live, FIXTURE_MANAGER, MinThroughputContract(10.0), FIXTURE_MAX_WORKERS)
        assert other.decisions() != live.decisions()


@pytest.fixture(params=sorted(FARM_BACKENDS))
def capped_farm(request):
    """One worker, and no room for a second."""
    farm = make_shard_backend(
        request.param, kernel, initial_workers=1, max_workers=1, name=f"abc-{request.param}"
    )
    yield farm
    farm.shutdown()


class TestLiveFarmABC:
    #: every key FarmManager.observe / passive_step read off a sample
    OBSERVED = {
        "arrival_rate",
        "departure_rate",
        "num_workers",
        "queue_variance",
        "mean_latency",
        "end_of_stream",
    }

    def test_monitor_carries_what_the_manager_observes(self, capped_farm):
        sample = LiveFarmABC(capped_farm).monitor()
        assert self.OBSERVED <= set(sample)
        assert sample["num_workers"] == 1 and sample["end_of_stream"] is False

    def test_supported_operations_are_exactly_what_execute_accepts(self, capped_farm):
        abc = LiveFarmABC(capped_farm)
        for op in ManagerOperation:
            if abc.can_execute(op):
                assert abc.execute(op, {"count": 1}) in (True, False)
            else:
                with pytest.raises(ABCError):
                    abc.execute(op)

    def test_refused_grow_is_false_and_surfaces_as_no_local_plan(self, capped_farm):
        assert LiveFarmABC(capped_farm).execute(ManagerOperation.ADD_EXECUTOR) is False
        # the rule set believes there is headroom; the mechanism refuses
        ctl = FarmController(capped_farm, MinThroughputContract(1.0), max_workers=4)
        ctl.on_operation(ManagerOperation.ADD_EXECUTOR, {"count": 2})
        assert capped_farm.num_workers == 1
        assert [kind for _, kind in ctl.violations] == [ViolationKind.NO_LOCAL_PLAN]
        assert ctl.active and ctl.unhandled_violations  # a root stays ACTIVE
        assert not ctl.actions
