"""Every live manager ticks on one kind of thread: a ``WallTimeBase`` ticker.

A manager that grew its own loop thread would need its own stop, its
own error handling and its own supervision; one ticker per manager is
what a supervised-loop helper can wrap.  This pins that shape on the
busiest live stack — ``fig4 --backend thread --with-security``, where a
performance and a security manager run side by side — and pins the
policy packages to owning no threads at all.
"""

import contextlib
import threading
from pathlib import Path

import repro
from repro.experiments.fig4_live import Fig4LiveConfig, _build_stack
from repro.runtime.controller import _Ticker


def test_fig4_security_managers_tick_on_wall_time_tickers():
    cfg = Fig4LiveConfig(backend="thread", with_security=True, total_tasks=20, with_slo=False)
    with contextlib.ExitStack() as stack:
        _, _, _, harvest = _build_stack(cfg, None, stack)
        tickers = [t for t in threading.enumerate() if isinstance(t, _Ticker)]
        names = {t.name for t in threading.enumerate()}
        harvest(True)
        # stopping a manager waits for its ticker: no tick can still be
        # inside the farm when the farm itself is shut down
        assert [t.name for t in tickers if t.is_alive()] == []
    assert sorted(t.name for t in tickers) == ["AM_sec_thread.loop", "AM_thread.loop"]
    assert "security-manager" not in names


def test_policy_packages_start_no_threads():
    src = Path(repro.__file__).parent
    for package in ("core", "security"):
        for path in sorted((src / package).rglob("*.py")):
            assert "threading.Thread" not in path.read_text(), path
