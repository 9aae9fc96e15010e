"""Golden audit: the exported trace is pinned to a recorded fixture.

How spans are stored, when their ids are hashed and what crosses the
wire are implementation; the audit a run exports is the contract.  Two
deterministic scenarios (see :mod:`.golden_audit`) must export, span for
span, what the fixtures recorded before any of that changed: the same
ids, parents, trace membership, names, actors, attributes (in the same
order) and events — only clock readings and pids are masked.
"""

import json

import pytest

from .golden_audit import canonical, dist_scenario, fixture_path, thread_scenario


def _fixture(name):
    with open(fixture_path(name)) as fh:
        return fh.read().splitlines()


def test_thread_scenario_matches_the_recorded_audit():
    assert canonical(thread_scenario()) == _fixture("thread")


def test_dist_crash_replay_matches_the_recorded_audit(tmp_path):
    lines = canonical(dist_scenario(str(tmp_path)))
    assert lines == _fixture("dist")
    # the fixture really contains the story it is named for
    assert sum('"outcome": "crashed"' in line for line in lines) == 2  # attempt + worker
    assert sum('"name": "task.exec"' in line for line in lines) == 4


@pytest.mark.parametrize("name", ["thread", "dist"])
def test_fixture_ids_are_unique(name):
    ids = [json.loads(line)["id"] for line in _fixture(name)]
    assert len(ids) == len(set(ids))
