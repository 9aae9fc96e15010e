"""Suite-wide guard: a run that leaves threads behind fails.

A thread still alive after the last test is a stop nobody calls — a
farm, agent, scraper or stage that a ``shutdown()`` should have ended —
and whatever it references (a farm, its telemetry, every span in it)
stays reachable with it.  Stragglers get :data:`GRACE` seconds to wind
down; whatever is left is named and the session fails.
"""

import threading
import time

import pytest

#: seconds a finishing thread gets after the last test before it counts
GRACE = 2.0


def _stray_threads():
    main = threading.main_thread()
    return [t for t in threading.enumerate() if t is not main and t.is_alive()]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Keep each phase's report on its item (``item.rep_call``), so that
    a fixture's teardown can tell whether its test failed."""
    outcome = yield
    report = outcome.get_result()
    setattr(item, f"rep_{report.when}", report)


def pytest_sessionfinish(session, exitstatus):
    deadline = time.monotonic() + GRACE
    strays = _stray_threads()
    while strays and time.monotonic() < deadline:
        time.sleep(0.05)
        strays = _stray_threads()
    if not strays:
        return
    names = ", ".join(sorted(t.name for t in strays))
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    message = f"{len(strays)} thread(s) still alive {GRACE:.0f} s after the last test: {names}"
    if reporter is not None:
        reporter.write_line(message, red=True, bold=True)
    if session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
