"""The §3.2 story as it reads from outside, pinned verbatim.

Three outputs of the multi-concern coordination that a rework of the
GM, the security manager or the live farm ABC must leave unchanged:

* the ``python -m repro.obs.explain <export> --actuation 1`` narrative
  of ``test_explain``'s two-phase intent export, with times and ids
  masked;
* for a thread-farm grow-2 / grow-2 / veto sequence, each intent's
  ``(outcome, amendments, reviewers)`` record and the ordered ``mc.*``
  admission-gate events;
* the simulated ``python -m repro.experiments mc`` report, byte for
  byte.

The scenarios are built by the same helpers the suites they come from
use, so only those helpers know which classes assemble them.
"""

import io
import re
from pathlib import Path

from repro.experiments.__main__ import main as experiments_main
from repro.obs import Telemetry
from repro.obs.explain import main as explain_main
from repro.rules.beans import ManagerOperation

from ..obs.test_explain import intent_trace  # noqa: F401  (fixture)
from .test_multiconcern_live import UNTRUSTED, Originator, build_coordination, make_farm

MC_REPORT = Path(__file__).parent.parent / "experiments" / "fixtures" / "mc_report.txt"

EXPLAINED_INTENT = """\
actuation #1 — mc.intent by GM_live at t=<t> (trace <id>)
  intent: AM_perf asked for add_executor (mode two-phase) → committed
    planned 2 node(s): placement reserved
    security manager amended nodes: ['u-0', 'u-1']
    amended by reviewer AM_sec_live (plan changed before commit)
  commit on nodes ['u-0', 'u-1']:
    worker 1: quarantined on arrival → channel secured → admitted to the dispatch pool
    worker 2: quarantined on arrival → channel secured → admitted to the dispatch pool
    admitted=2 failures=0
"""

GATE = ["mc.quarantine", "mc.secured", "mc.admit"]


def test_explain_actuation_text(intent_trace):  # noqa: F811
    out = io.StringIO()
    assert explain_main([str(intent_trace), "--actuation", "1"], out=out) == 0
    text = re.sub(r"t=\d+\.\d+", "t=<t>", out.getvalue())
    text = re.sub(r"trace [0-9a-f]+\)", "trace <id>)", text)
    assert text == EXPLAINED_INTENT


def test_grow_grow_veto_records_and_gate_events():
    tel = Telemetry()
    farm = make_farm("thread", tel)
    try:
        farm.secure_all()
        gm, security, _ = build_coordination(farm, tel)
        grow = {"count": 2}
        assert gm.execute_intent(Originator(), ManagerOperation.ADD_EXECUTOR, grow)
        assert gm.execute_intent(Originator(), ManagerOperation.ADD_EXECUTOR, grow)
        security.veto_domains = frozenset({UNTRUSTED.name})
        assert not gm.execute_intent(Originator(), ManagerOperation.ADD_EXECUTOR, grow)
    finally:
        farm.shutdown()
    reviewers = (security.name,)
    assert [(r.outcome, r.amendments, r.reviewers) for r in gm.intents] == [
        ("committed", 1, reviewers),
        ("committed", 1, reviewers),
        ("vetoed", 0, reviewers),
    ]
    spans = tel.spans.spans
    assert [s.attributes["outcome"] for s in spans if s.name == "mc.intent"] == [
        "committed", "committed", "vetoed",
    ]
    gate = [
        (e.name, e.attributes["worker"])
        for s in spans
        for e in s.events
        if e.name.startswith("mc.")
    ]
    assert [name for name, _ in gate] == GATE * 4
    assert [worker for _, worker in gate] == [w for w in (2, 3, 4, 5) for _ in GATE]


def test_des_mc_report_byte_for_byte(capsys):
    assert experiments_main(["mc"]) == 0
    assert capsys.readouterr().out == MC_REPORT.read_text()
