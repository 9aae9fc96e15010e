"""Process-based task farm: real parallelism, real crash fault-tolerance.

The third substrate behind the Figure 5 rules, after the deterministic
simulator (:class:`repro.sim.farm.SimFarm`) and the thread farm
(:class:`repro.runtime.farm_runtime.ThreadFarm`).  Workers here are OS
processes *forked* from the coordinator's, so CPU-bound stages genuinely
scale past the GIL, the task function may be a closure — and a worker
*death* is a real event (``SIGKILL``-able), not a simulated one.

The coordinator is the stream coordinator of :mod:`.dist_farm`, the one
a :class:`~repro.runtime.dist_farm.DistFarm` runs — windowed dispatch,
batched v4 frames, heartbeats, replay, poison retirement, the secure
handshake; fault *policy* is the unmodified rules' (a crash shrinks
capacity, ``CheckRateLow`` grows it back).  This module adds only what
is a forked worker's own:

* **how it comes to hold the other end of a stream** — a
  ``socket.socketpair()``: the child keeps one end
  (:func:`~repro.runtime.dist_worker.serve_forked` — the session loop a
  dialling worker runs too),
  the coordinator's loop is handed the other, and no socket is bound or
  dialled.  A stream has one writer per direction, so there is no
  cross-process lock for a killed worker to die holding, and a dead
  worker is EOF on its socket — seen at once, not at the next poll;
* **what a coordinator crash means for it** — forked by the coordinator,
  it dies with it.

Which farm when: fork takes closures, starts a worker in ~6 ms and lives
on this host only; a DistFarm (exec + TCP) needs an importable function
and ~60 ms of interpreter start per worker, on any host.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.telemetry import Telemetry
from .dist_farm import DistWorkerHandle, _StreamFarm
from .dist_worker import greeting, serve_forked

__all__ = ["ProcessFarm", "default_start_method"]


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, closures allowed),
    ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ProcessFarm(_StreamFarm):
    """A live task farm whose executors are supervised OS processes.

    Satisfies the same :class:`~repro.runtime.backend.FarmBackend`
    surface as :class:`~repro.runtime.farm_runtime.ThreadFarm`; the
    extra knobs are all fault-tolerance tuning:

    ``heartbeat_period`` / ``heartbeat_timeout``
        children beat every period; a worker silent for the timeout (or
        whose process has exited) is declared dead.
    ``backoff_base`` / ``backoff_cap``
        replay delay for attempt *n* is ``min(base * 2**(n-1), cap)``.
    ``max_attempts``
        dispatch budget per task before it is dead-lettered.

    Workers start by :func:`default_start_method`: ``fork`` (POSIX)
    allows closures as ``fn``, ``spawn`` needs a module-level callable.
    """

    _METRICS = "repro_process"

    #: un-acked tasks a worker may hold, and most tasks per frame.  The
    #: window is the one BENCH_stack runs the same coordinator at as a
    #: DistFarm; the batch is half that farm's 32, because a pass hands
    #: the least-loaded worker a whole batch at a time and this farm's
    #: tasks may be slow: a burst of a few dozen is spread over three or
    #: four workers, not handed to the first two (it costs an echo task
    #: ~2 µs of amortisation)
    WINDOW = 64
    BATCH = 16
    #: how long to wait on the loop thread: to start, to open a session
    #: (thread handoffs, not process starts)
    START_TIMEOUT = 10.0

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        initial_workers: int = 2,
        name: str = "pfarm",
        rate_window: float = 5.0,
        max_workers: int = 64,
        heartbeat_period: float = 0.1,
        heartbeat_timeout: float = 2.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        max_attempts: int = 5,
        supervise_period: float = 0.05,
        telemetry: Optional[Telemetry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if initial_workers < 0:
            raise ValueError("initial_workers must be non-negative")
        super().__init__(
            name,
            rate_window=rate_window,
            max_workers=max_workers,
            clock=clock,
            telemetry=telemetry,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            max_attempts=max_attempts,
            heartbeat_period=heartbeat_period,
            heartbeat_timeout=heartbeat_timeout,
            supervise_period=supervise_period,
            max_inflight=self.WINDOW,
            batch_size=self.BATCH,
            # always pickle, whatever REPRO_DIST_CODEC says of DistFarms:
            # the coordinator owns the process it forked, so the session
            # is trusted by construction, and pickle is the only codec
            # that carries arbitrary task values
            codec="pickle",
        )
        self.fn = fn
        self._ctx = multiprocessing.get_context(default_start_method())
        self._start_loop(self.START_TIMEOUT)
        try:
            self._start_workers([{}] * initial_workers)
        except Exception:
            self.shutdown()
            raise

    @staticmethod
    def _reap(process: Any, timeout: float) -> bool:
        if process.pid is None:  # its session opens first: not started yet
            return False
        process.join(timeout)
        return not process.is_alive()

    def add_worker(
        self,
        *,
        secured: bool = False,
        quarantined: bool = False,
        require_secure: bool = False,
        worker_id: Optional[int] = None,
    ) -> DistWorkerHandle:
        """Open one worker's session, then fork the worker into it."""
        with self._lock:
            handle, theirs = self._open_session(secured, quarantined, require_secure, worker_id)
            self._fork(handle, theirs)
            return handle

    def _start_workers(self, gates: List[Dict[str, Any]]) -> List[DistWorkerHandle]:
        """Start one worker per ``add_worker`` keyword set in ``gates``.

        Every session, then every fork: the loop opens them with no
        booting child to share a CPU with, and a burst submitted next is
        spread over every worker's window.
        """
        with self._lock:
            sessions = [self._open_session(**gate) for gate in gates]
            for session in sessions:
                self._fork(*session)
            return [handle for handle, _ in sessions]

    def _open_session(
        self,
        secured: bool = False,
        quarantined: bool = False,
        require_secure: bool = False,
        worker_id: Optional[int] = None,
    ) -> Tuple[DistWorkerHandle, socket.socket]:
        """A worker's session, open before the worker runs (lock held).

        The coordinator writes the ``hello`` itself — it knows the id and
        codec of a child it is about to create — so the loop admits the
        worker, and may write its first window, with no child to wait
        for, or to share a CPU with while it boots.  Returns the handle
        and the socket the child will serve; whenever that child dies, it
        is an EOF *behind* its greeting, its window replayed like any.
        """
        if self._shutdown.is_set():
            raise RuntimeError("farm is shut down")
        self._require_slot()
        worker_id = self._claim_id(worker_id)
        ours, theirs = socket.socketpair()
        theirs.sendall(greeting("hello", worker_id, ("pickle",)))
        process = self._ctx.Process(
            target=serve_forked,
            args=(theirs, ours, self.fn, self.heartbeat_period, require_secure),
            name=f"{self.name}-w{worker_id}",
            daemon=True,
        )
        handle = self._register_worker(
            worker_id, process=process, secured=secured, quarantined=quarantined
        )
        handle.session = asyncio.run_coroutine_threadsafe(self._attach(ours), self._loop)
        # the wait releases the farm lock, which the loop's _admit takes
        if not self._connected.wait_for(lambda: handle.connected, self.START_TIMEOUT):
            raise RuntimeError(f"worker {handle.worker_id}: its session never opened")
        return handle, theirs

    @staticmethod
    def _fork(handle: DistWorkerHandle, theirs: socket.socket) -> None:
        # closed here once the child has its own copy (or the fork has
        # failed): ours would keep the worker's death from reading as EOF
        with theirs:
            handle.process.start()

    async def _attach(self, sock: socket.socket) -> None:
        """Serve the coordinator's end of one socketpair (loop thread)."""
        reader, writer = await asyncio.open_connection(sock=sock)
        await self._on_connection(reader, writer)

    def crash(self) -> None:
        """Simulate the coordinator process dying (SIGKILL semantics).

        The children are this coordinator's process *group* in spirit:
        a real coordinator SIGKILL orphans them mid-task and they die
        with (or are reaped right after) their parent, so the simulation
        SIGKILLs the survivors outright — no poison, no graceful join.
        """
        survivors = super().crash()
        for w in survivors:
            w.process.kill()
        for w in survivors:
            self._reap(w.process, 1.0)
