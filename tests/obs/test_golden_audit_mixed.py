"""Golden audit, third fixture: the stories the first two do not tell.

A ``ProcessFarm`` worker SIGKILLed mid-task and the task replayed, a task
still in flight when its farm shuts down, a ``SupervisedFarm``'s
``task.attempt`` under the supervisor's root, and a two-shard dist
``ShardedFarm`` carrying tenant tasks — all on one telemetry, exported
span for span as ``tests/obs/fixtures/golden_mixed.jsonl`` recorded it.
"""

import json

from .golden_audit import canonical, fixture_path, mixed_scenario


def _fixture():
    with open(fixture_path("mixed")) as fh:
        return fh.read().splitlines()


def test_mixed_scenario_matches_the_recorded_audit(tmp_path):
    lines = canonical(mixed_scenario(str(tmp_path)))
    assert lines == _fixture()
    spans = [json.loads(line) for line in lines]
    tasks = [s for s in spans if s["name"].startswith("task")]
    # the fixture really contains the stories it is named for
    assert [s["attributes"]["outcome"] for s in tasks if s["actor"] == "gold-p"
            and s["name"] == "task.dispatch" and "outcome" in s["attributes"]
            ].count("crashed") == 1
    flushed = sorted(s["name"] for s in tasks if s["attributes"].get("flushed"))
    assert flushed == ["task", "task.dispatch"], "the hung task closes flushed"
    (attempt,) = [s for s in tasks if s["name"] == "task.attempt"]
    (sup_root,) = [s for s in tasks if s["actor"] == "gold-s"]
    assert attempt["parent"] == sup_root["id"]
    assert {s["actor"] for s in tasks if s["attributes"].get("tenant") == "acme"} == {
        "gold-s", "gold-s-e0", "gold-h-s0", "gold-h-s1"
    }


def test_fixture_ids_are_unique():
    ids = [json.loads(line)["id"] for line in _fixture()]
    assert len(ids) == len(set(ids))
