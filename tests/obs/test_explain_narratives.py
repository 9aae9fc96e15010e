"""Every ``python -m repro.obs.explain`` narrative of four real audits, pinned.

The overview and each mode run over the three golden audits and the
supervised decision-replay audit; their output, with times and ids
masked as ``test_multiconcern_characterization`` masks them, must match
``fixtures/explain_<audit>.txt`` byte for byte.  ``--task`` takes the
first task id the audit lists, ``--trace`` the first trace id,
``--actuation`` number 1 and ``--tenant`` ``acme``; an audit without
such an id narrates the miss (exit 2), which is pinned too.

Re-record (only when a narrative change is intended) from the repo root::

    PYTHONPATH=src python -m tests.obs.test_explain_narratives
"""

import io
import re
from pathlib import Path

import pytest

from repro.obs.explain import load, main
from repro.obs.propagation import list_traces

HERE = Path(__file__).parent
AUDITS = {
    "golden_thread": HERE / "fixtures" / "golden_thread.jsonl",
    "golden_dist": HERE / "fixtures" / "golden_dist.jsonl",
    "golden_mixed": HERE / "fixtures" / "golden_mixed.jsonl",
    "replay_supervised_process": (
        HERE.parent / "runtime" / "fixtures" / "replay_supervised_process.jsonl"
    ),
}


def _mask(text):
    text = re.sub(r"t=\d+\.\d+", "t=<t>", text)
    return re.sub(r"trace [0-9a-f]+\)", "trace <id>)", text)


def _invocations(path):
    spans = load(str(path))
    task = next(
        (s.attributes["task_id"] for s in spans
         if s.name == "task" and "task_id" in s.attributes),
        0,
    )
    trace = list_traces(spans)[0]["trace_id"]
    return [
        [],
        ["--list-traces"],
        ["--trace", trace],
        ["--task", str(task)],
        ["--actuations"],
        ["--actuation", "1"],
        ["--tenant", "acme"],
        ["--failovers"],
        ["--slo"],
    ]


def transcript(name):
    """Every narrative of audit ``name``, each under its command line."""
    path = AUDITS[name]
    parts = []
    for argv in _invocations(path):
        out = io.StringIO()
        code = main([str(path), *argv], out=out)
        command = " ".join(["$ explain", path.name, *argv])
        parts.append(f"{command}\n{_mask(out.getvalue())}[exit {code}]\n")
    return "".join(parts)


def _pin(name):
    return HERE / "fixtures" / f"explain_{name}.txt"


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_every_narrative_is_unchanged(name):
    assert transcript(name) == _pin(name).read_text(encoding="utf-8")


if __name__ == "__main__":
    for audit in AUDITS:
        _pin(audit).write_text(transcript(audit), encoding="utf-8")
