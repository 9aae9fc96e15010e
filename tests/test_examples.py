"""Smoke tests: every example script runs to completion and reports success.

The examples are the library's front door; each must execute its
``main()`` without raising and print the outcome markers a reader would
look for.  The six DES examples are deterministic, so each also prints
exactly the bytes pinned in ``tests/fixtures/examples/<name>.txt``.
(``live_threads`` is exercised with reduced volume through its building
blocks in ``tests/runtime`` instead — wall-clock sleeps make the full
script too slow for the unit suite.)
"""

import importlib.util
import pathlib
import sys

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
PINNED = pathlib.Path(__file__).parent / "fixtures" / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def pinned(name: str) -> str:
    return (PINNED / f"{name}.txt").read_text()


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "satisfied    : True" in out
        assert "addWorker" in out
        assert out == pinned("quickstart")

    def test_medical_imaging(self, capsys):
        load_example("medical_imaging").main()
        out = capsys.readouterr().out
        assert "images/s processed" in out
        assert "final:" in out
        assert out == pinned("medical_imaging")

    def test_pipeline_hierarchy(self, capsys):
        load_example("pipeline_hierarchy").main()
        out = capsys.readouterr().out
        assert "FIG4" in out
        assert "incRate" in out
        assert "addWorker" in out
        assert "endStream" in out
        assert out == pinned("pipeline_hierarchy")

    def test_multiconcern_security(self, capsys):
        load_example("multiconcern_security").main()
        out = capsys.readouterr().out
        assert "MC-2PC" in out
        assert "plaintext over a non-private link" in out
        assert "amendment" in out
        assert out == pinned("multiconcern_security")

    def test_multiconcern_live(self, capsys):
        load_example("multiconcern_live").main()
        out = capsys.readouterr().out
        assert "MC-LIVE" in out
        assert "two-phase leak window: 0 tasks" in out
        assert "vetoed" in out
        assert "no task ever reached an unsecured worker" in out

    def test_dataparallel_map(self, capsys):
        load_example("dataparallel_map").main()
        out = capsys.readouterr().out
        assert "contract met    : True" in out
        assert "addWorker" in out
        assert out == pinned("dataparallel_map")

    def test_nested_skeletons(self, capsys):
        """The only end-to-end run of SimFarmOfPipelines: no experiment
        drives a farm of pipelines."""
        load_example("nested_skeletons").main()
        out = capsys.readouterr().out
        assert "contract met    : True" in out
        assert "replicas" in out
        assert out == pinned("nested_skeletons")

    def test_live_threads_importable(self):
        """Import only: the full run sleeps for real seconds."""
        module = load_example("live_threads")
        assert callable(module.main)

    def test_process_farm_crashes_importable(self):
        """Import only: the full run feeds a live stream for seconds; the
        crash-recovery paths themselves are covered in tests/runtime."""
        module = load_example("process_farm_crashes")
        assert callable(module.main)

    def test_dist_farm_importable(self):
        """Import only: the full run feeds a live stream for seconds; the
        wire-level recovery paths are covered in tests/runtime."""
        module = load_example("dist_farm")
        assert callable(module.main)
