"""The dist worker: what it imports, and its one blocking shell.

Two halves, both against the real thing:

* **import closure** — a fresh interpreter that imports
  ``repro.runtime.dist_worker`` holds six ``repro`` modules and no
  asyncio: a worker's cold start is the floor under every grow/heal
  decision, and one eager package ``__init__`` on its path costs 200 ms
  (docs/ARCHITECTURE.md, "Worker import closure").  Counted, not timed.
* **the shell** — ``run_worker`` / ``python -m repro.runtime.dist_worker``
  and ``serve_forked`` driven by a scripted coordinator on a plain
  blocking socket: welcome vetting, heartbeats during a long task,
  poison behind queued windows, EOF, TCP_NODELAY.

Beside the closure sits the governor's layering guard (one manager class:
``core/manager.py`` knows no simulator, ``runtime/controller.py`` holds
no MAPE loop of its own).

Reattach and epoch fencing are pinned by ``test_dist_reconnect.py``, the
``--require-secure`` gate by ``test_dist_secure.py``.
"""

import ast
import importlib
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.runtime import dist_worker
from repro.runtime.dist_proto import PROTOCOL_VERSION, encode_frame_v4, read_frame_blocking

WORKER_CLOSURE = {
    "repro",
    "repro.runtime",
    "repro.runtime.dist_proto",
    "repro.runtime.dist_worker",
    "repro.security",
    "repro.security.crypto",
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def _python(code):
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportClosure:
    def test_worker_imports_six_repro_modules_and_no_asyncio(self):
        out = _python(
            "import repro.runtime.dist_worker, sys; print('\\n'.join(sorted(sys.modules)))"
        )
        loaded = set(out.split())
        ours = {m for m in loaded if m == "repro" or m.startswith("repro.")}
        assert ours == WORKER_CLOSURE
        for heavy in ("asyncio", "concurrent.futures", "http.server", "email"):
            assert heavy not in loaded, f"{heavy} is on the worker's import path"

    @pytest.mark.parametrize("package", ["repro.runtime", "repro.security"])
    def test_lazy_package_still_exports_everything(self, package):
        _python(
            f"import {package} as pkg\n"
            "assert set(pkg.__all__) <= set(dir(pkg)), 'dir() misses exports'\n"
            "ns = {}\n"
            f"exec('from {package} import *', ns)\n"
            "missing = [n for n in pkg.__all__ if n not in ns]\n"
            "assert not missing, missing\n"
            "assert all(ns[n] is getattr(pkg, n) for n in pkg.__all__)\n"
            "try:\n"
            "    pkg.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert 'no_such_name' in str(exc)\n"
            "else:\n"
            "    raise AssertionError('unknown attribute resolved')\n"
        )


class TestGovernorLayering:
    """One manager: ``core`` owns the MAPE loop, beans and operation sink
    on a bare time base; ``runtime.controller`` only adapts a live farm
    and a wall clock to it.  Read off the source, like the closure above."""

    @staticmethod
    def _tree(module):
        with open(importlib.import_module(module).__file__) as fh:
            return ast.parse(fh.read())

    def test_core_manager_imports_nothing_from_the_simulator(self):
        tree = self._tree("repro.core.manager")
        imported = [
            f"{'.' * node.level}{node.module or ''}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        ] + [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
        assert not [m for m in imported if "sim" in m.split(".")], imported

    def test_live_controller_opens_no_mape_span_and_builds_no_bean(self):
        tree = self._tree("repro.runtime.controller")
        literals = [
            n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)
        ]
        assert not [s for s in literals if s.startswith("mape.")]
        called = [
            getattr(n.func, "attr", getattr(n.func, "id", ""))
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
        ]
        assert not [name for name in called if name.endswith("Bean")], called
        defined = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        assert not {"_sink", "on_operation", "control_step", "observe"} & set(defined)


# ----------------------------------------------------------------------
# a scripted coordinator on blocking sockets
# ----------------------------------------------------------------------
class Session:
    """One accepted worker connection."""

    def __init__(self, conn, greeted=True):
        self.conn = conn
        self.rfile = conn.makefile("rb")
        self.greeting = self.read(skip=()) if greeted else None

    def send(self, *messages):
        self.conn.sendall(b"".join(encode_frame_v4(m) for m in messages))

    def welcome(self, **fields):
        self.send({"type": "welcome", "worker_id": 7, "proto": PROTOCOL_VERSION, **fields})

    def read(self, skip=("hb",)):
        while True:
            frame = read_frame_blocking(self.rfile)
            assert frame is not None, "worker hung up (or said nothing for 15 s)"
            if frame["type"] not in skip:
                return frame

    def close(self):
        self.rfile.close()
        self.conn.close()


class Coordinator:
    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(15.0)
        self.port = self.listener.getsockname()[1]

    def accept(self):
        conn, _ = self.listener.accept()
        conn.settimeout(15.0)
        return Session(conn)

    def close(self):
        self.listener.close()


@pytest.fixture
def coordinator():
    coord = Coordinator()
    yield coord
    coord.close()


def spawn_worker(port, fn, *extra, heartbeat_period=0.05):
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.runtime.dist_worker",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--fn",
            fn,
            "--heartbeat-period",
            str(heartbeat_period),
            *extra,
        ],
        env=_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


def _square(x):
    return x * x


def _beating():
    return [t for t in threading.enumerate() if t.name == "worker-hb"]


class _WorkerThread(threading.Thread):
    """``run_worker`` on a thread of this process, so its threads can be
    counted.  Always with redials: a worker without them answers EOF by
    exiting the process, which here is pytest's."""

    def __init__(self, port):
        super().__init__(daemon=True)
        self.port, self.status = port, None

    def run(self):
        self.status = dist_worker.run_worker(
            "127.0.0.1",
            self.port,
            _square,
            heartbeat_period=0.05,
            reconnect_attempts=50,
            connect_backoff=0.01,
        )


class TestWelcomeVetting:
    @pytest.mark.parametrize(
        "welcome, args, reason",
        [
            (
                {"type": "error", "error": "farm is full", "proto": PROTOCOL_VERSION},
                (),
                "coordinator refused worker: farm is full",
            ),
            (
                {"type": "welcome", "worker_id": 7, "proto": PROTOCOL_VERSION + 1},
                (),
                f"the coordinator announced {PROTOCOL_VERSION + 1}",
            ),
            (
                {
                    "type": "welcome",
                    "worker_id": 7,
                    "proto": PROTOCOL_VERSION,
                    "codec": "pickle",
                },
                ("--codec", "json"),
                "coordinator picked codec 'pickle', which this worker never offered",
            ),
        ],
        ids=["error-frame", "wrong-proto", "codec-not-offered"],
    )
    def test_refused_welcome_exits_1_with_the_reason(self, coordinator, welcome, args, reason):
        # reconnect enabled: a refusal is a deployment error, never retried
        proc = spawn_worker(coordinator.port, "operator:neg", "--reconnect-attempts", "5", *args)
        try:
            session = coordinator.accept()
            assert session.greeting["type"] == "hello"
            session.send(welcome)
            _, stderr = proc.communicate(timeout=15.0)
            assert proc.returncode == 1
            assert reason in stderr
            session.close()
        finally:
            proc.kill()


class TestSessionLoop:
    def test_heartbeats_keep_arriving_during_one_long_task(self, coordinator):
        proc = spawn_worker(coordinator.port, "time:sleep")
        try:
            session = coordinator.accept()
            session.welcome()
            session.send({"type": "task", "task_id": 1, "payload": 0.5})
            beats = 0
            while True:
                frame = session.read(skip=())
                if frame["type"] != "hb":
                    break
                beats += 1
            assert frame["type"] == "result" and frame["task_id"] == 1
            # 0.5 s of one blocking task at a 50 ms period: ~10 beats
            assert beats >= 3
            session.send({"type": "poison"})
            assert session.read()["type"] == "bye"
            assert proc.wait(timeout=15.0) == 0
            session.close()
        finally:
            proc.kill()

    def test_poison_behind_queued_windows_gets_every_result_then_bye(self, coordinator):
        windows = [
            {
                "type": "task_batch",
                "tasks": [{"task_id": 10 * w + i, "payload": 10 * w + i} for i in range(5)],
            }
            for w in range(3)
        ]
        proc = spawn_worker(coordinator.port, "operator:neg")
        try:
            session = coordinator.accept()
            session.welcome(codec="json")
            # one write: the poison is in the worker's buffer before it
            # has run the first window
            session.send(
                *windows, {"type": "task", "task_id": 99, "payload": 9}, {"type": "poison"}
            )
            values = {}
            while True:
                frame = session.read()
                if frame["type"] == "bye":
                    break
                entries = frame["results"] if frame["type"] == "result_batch" else [frame]
                for entry in entries:
                    assert entry["task_id"] not in values
                    values[entry["task_id"]] = entry["value"]
            expected = {t["task_id"]: -t["payload"] for w in windows for t in w["tasks"]}
            expected[99] = -9
            assert values == expected
            assert list(values) == sorted(values)  # arrival order
            assert frame["completed"] == 16
            assert proc.wait(timeout=15.0) == 0
            session.close()
        finally:
            proc.kill()

    def test_a_reattached_worker_has_one_heartbeat_and_none_when_done(self, coordinator):
        assert not _beating()
        worker = _WorkerThread(coordinator.port)
        worker.start()
        first = coordinator.accept()
        first.welcome(epoch=0)
        first.send({"type": "task", "task_id": 1, "payload": 3})
        assert first.read()["value"] == 9
        assert first.read(skip=())["type"] == "hb"
        first.close()

        second = coordinator.accept()
        assert second.greeting["type"] == "reattach"
        second.send(
            {"type": "takeover", "worker_id": 7, "proto": PROTOCOL_VERSION, "epoch": 1}
        )
        assert second.read(skip=())["type"] == "hb"
        # the first session's thread ended with its session
        assert len(_beating()) == 1
        second.send({"type": "poison"})
        assert second.read()["type"] == "bye"
        worker.join(15.0)
        assert not worker.is_alive() and worker.status == 0
        assert not _beating()
        second.close()

    def test_eof_mid_task_exits_1_within_two_heartbeat_periods(self, coordinator):
        period = 0.5
        proc = spawn_worker(coordinator.port, "time:sleep", heartbeat_period=period)
        try:
            session = coordinator.accept()
            session.welcome()
            session.send({"type": "task", "task_id": 1, "payload": 60.0})
            # a beat after the task went out: the worker is inside it
            assert session.read(skip=())["type"] == "hb"
            coordinator.close()
            session.close()
            gone = time.monotonic()
            assert proc.wait(timeout=15.0) == 1
            # the failed heartbeat write notices: two periods, plus slack
            # for a loaded box — and nowhere near the 60 s task
            assert time.monotonic() - gone < 2 * period + 1.0
        finally:
            proc.kill()

    def test_dialled_socket_has_nodelay(self, coordinator):
        sock = dist_worker._dial("127.0.0.1", coordinator.port, 1, 0.01, 0.1)
        with sock:
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


class TestForkedShell:
    def test_welcome_without_codec_means_json(self):
        """The forked child runs the same shell: a welcome that names no
        codec is a json session there too, not a ``KeyError``."""
        ours, theirs = socket.socketpair()
        ours.settimeout(15.0)
        child = multiprocessing.get_context("fork").Process(
            target=dist_worker.serve_forked, args=(theirs, ours, _square, 0.05), daemon=True
        )
        child.start()
        theirs.close()
        try:
            session = Session(ours, greeted=False)  # a forking coordinator writes the hello
            session.welcome()
            session.send({"type": "task", "task_id": 1, "payload": 4}, {"type": "poison"})
            assert session.read()["value"] == 16
            bye = session.read()
            assert bye["type"] == "bye" and bye["completed"] == 1
            child.join(15.0)
            assert child.exitcode == 0
            session.close()
        finally:
            child.kill()
