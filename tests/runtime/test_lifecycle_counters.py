"""A farm's fault counters and its metrics tell one story.

Every replay and every dead letter goes through the core's one path, so
``farm.replays``, ``len(farm.dead_letters)``, ``farm.duplicates`` and
``len(farm.crashes)`` cannot drift from the series the acceptance suites
read — whatever failed the attempt: a worker crash, or a
``--require-secure`` worker bouncing frames that beat the handshake.
"""

import pytest

from repro.obs.telemetry import Telemetry
from repro.runtime.dist_farm import DistFarm
from repro.runtime.process_farm import ProcessFarm

from .test_dist_farm import dist_task
from .waiting import wait_until

TUNING = dict(
    heartbeat_period=0.05,
    heartbeat_timeout=0.5,
    supervise_period=0.02,
    backoff_base=0.02,
    backoff_cap=0.2,
)


def assert_counters_match_metrics(farm, tel, prefix):
    def metric(series):
        family = tel.metrics.get(f"{prefix}_{series}")
        return 0 if family is None else family.labels(farm=farm.name).value

    assert metric("tasks_replayed_total") == farm.replays
    assert metric("dead_letter_total") == len(farm.dead_letters)
    assert metric("duplicate_results_total") == farm.duplicates
    assert metric("worker_crashes_total") == len(farm.crashes)


@pytest.mark.parametrize(
    "backend, prefix", [(ProcessFarm, "repro_process"), (DistFarm, "repro_dist")]
)
def test_after_a_crash(backend, prefix):
    tel = Telemetry()
    farm = backend(dist_task, initial_workers=2, telemetry=tel, **TUNING)
    try:
        total = 40
        for i in range(total):
            farm.submit((0.01, i))
        assert farm.inject_crash() is not None
        results = farm.drain_results(total, timeout=60.0)
        assert sorted(results) == [i * i for i in range(total)]
        assert farm.crashes and farm.replays > 0
        assert_counters_match_metrics(farm, tel, prefix)
    finally:
        farm.shutdown()


def test_after_a_require_secure_bounce_storm():
    """The only worker refuses every frame: each task is bounced, replayed
    once, bounced again and dead-lettered at ``max_attempts=2``."""
    tel = Telemetry()
    farm = DistFarm(dist_task, initial_workers=0, max_attempts=2, telemetry=tel, **TUNING)
    try:
        bouncer = farm.add_worker(require_secure=True)
        wait_until(lambda: bouncer.connected, message="the worker to connect")
        total = 6
        for i in range(total):
            farm.submit((0.0, i))
        wait_until(
            lambda: len(farm.dead_letters) == total,
            message="every task to exhaust its attempts on refusals",
        )
        assert farm.replays == total and farm.completed == 0
        assert all(d.attempts == 2 for d in farm.dead_letters)
        assert farm.snapshot().pending == 0
        assert_counters_match_metrics(farm, tel, "repro_dist")
        outcomes = [s.attributes.get("outcome") for s in tel.spans.named("task.dispatch")]
        assert outcomes.count("refused") == 2 * total
    finally:
        farm.shutdown()
