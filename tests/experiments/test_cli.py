"""Tests for the ``python -m repro.experiments`` runner."""

from pathlib import Path

from repro.experiments.__main__ import DEFAULT_ORDER, RUNNERS, main

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
