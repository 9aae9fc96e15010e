"""Tests for the ``python -m repro.experiments`` runner."""

from pathlib import Path

import pytest

from repro.experiments.__main__ import DEFAULT_ORDER, RUNNERS, main
from repro.experiments.fig4 import main as fig4_main

#: one byte-exact report per experiment key (`multiconcern` shares the
#: `mc` alias's pin)
FIXTURES = Path(__file__).parent / "fixtures"


def fixture_for(key: str) -> Path:
    return FIXTURES / ("mc_report.txt" if key == "multiconcern" else f"{key}.txt")


class TestCLI:
    def test_every_default_key_has_a_runner(self):
        assert set(DEFAULT_ORDER) <= set(RUNNERS)

    def test_unknown_key_is_an_error(self, capsys):
        assert main(["definitely-not-an-experiment"]) == 2
        out = capsys.readouterr().out
        assert "unknown experiment" in out

    def test_single_experiment_runs(self, capsys):
        """Every DES report is deterministic: each key prints its pinned
        bytes, so a mechanism refactor cannot move a figure silently."""
        for key in DEFAULT_ORDER:
            assert main([key]) == 0
            assert capsys.readouterr().out == fixture_for(key).read_text(), key

    def test_alias_mc(self, capsys):
        assert main(["mc"]) == 0
        out = capsys.readouterr().out
        assert "MC-2PC" in out

    def test_subset_order_preserved(self, capsys):
        assert main(["split", "patterns"]) == 0
        out = capsys.readouterr().out
        assert out.index("SPLIT") < out.index("PATTERNS")


class TestFig4Options:
    """Every FIG4 option works after ``fig4``, checked by FIG4's own table."""

    def test_tenants_without_shards_is_refused_by_fig4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--tenants", "3"])
        assert exc.value.code == 2
        assert "--tenants needs --shards" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", [lambda argv: main(["fig4", *argv]), fig4_main], ids=["package", "fig4"]
    )
    def test_telemetry_port_without_serving_is_refused(self, entry, capsys):
        with pytest.raises(SystemExit) as exc:
            entry(["--telemetry-port", "8000"])
        assert exc.value.code == 2
        assert "--telemetry-port" in capsys.readouterr().err

    def test_sim_option_before_the_key(self, capsys):
        assert main(["--duration", "300", "fig4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("=== FIG4") and out != fixture_for("fig4").read_text()
