"""Distributed sweep dispatch: a multi-host campaign cluster over TCP.

Extends :mod:`repro.parallel.orchestrator`'s process-pool sweep across
machines: a dispatcher hands :class:`CampaignSpec`s to worker hosts
over length-prefixed canonical-JSON frames (:mod:`repro.parallel.wire`)
and merges the returned :class:`CampaignOutcome`s in spec order —
byte-identical to a local :func:`run_sweep` over the same specs.

Contracts (all tier-1 enforced by ``tests/test_cluster.py``):

* **Pull-based queue.**  Workers request specs one ``next`` frame per
  free slot; the dispatcher never pushes unrequested work, so slow and
  fast hosts load-balance naturally.
* **Nothing lost, nothing doubled.**  A worker disconnect, death, or
  per-spec timeout requeues the in-flight spec (bounded by
  ``max_attempts``, then a structured failure outcome).  Merges are
  first-outcome-wins by sweep index: a spec that was requeued and then
  answered twice is merged exactly once, late duplicates are dropped.
* **Crash isolation.**  A campaign that fails on a worker comes back
  as the same structured error outcome :func:`run_sweep` would build;
  an abandoned spec becomes a failure outcome naming the reason and
  attempt count.  Sibling campaigns are never affected.
* **Byte identity.**  Outcome *identity* (digests, metrics, key,
  failure shape — everything except the ``wall_s`` wall-clock
  metadata) is byte-identical across sequential, pooled, and cluster
  dispatch for the same specs.  Campaigns are seeded per spec, so
  where they run can never matter.

Initiation is symmetric: either side can listen and either can dial —
``repro worker --listen`` + ``repro measure --workers`` is the
two-terminal quickstart; ``repro measure --cluster-listen`` +
``repro worker --connect`` suits workers behind NAT.  The protocol a
side speaks depends only on its role, never on who opened the socket.

Dispatcher state is event-loop confined (``guarded-by: <event-loop>``):
every mutation happens on the loop that runs the connection handlers,
so no locks are needed and the merge order is exactly spec order.
"""

from __future__ import annotations

import asyncio
import os
import signal
import stat
import threading
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import (
    Any,
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.parallel import wire
from repro.parallel.orchestrator import (
    CampaignOutcome,
    CampaignSpec,
    ensure_unique_keys,
    execute_campaign,
    resolve_workers,
)

#: Assignment attempts per spec before the dispatcher gives up and
#: synthesizes a structured failure outcome.
DEFAULT_MAX_ATTEMPTS = 3


def parse_hostport(address: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with a clear error."""
    host, sep, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not sep or not host or not 0 <= port <= 65535:
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, port


#: How often a worker's campaign process checks that the worker lives.
_PARENT_POLL_S = 0.5


def _default_executor_factory(jobs: int) -> Executor:
    return ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_campaign_process_init,
        initargs=(os.getpid(),),
    )


def _campaign_process_init(worker_pid: int) -> None:
    """Bind a worker's campaign process to the worker's lifetime.

    Under the fork start method the pool forks after the worker has
    opened its listening and dispatcher sockets, so each child starts
    holding copies of them; a child that outlived a killed worker would
    keep the port bound and the dispatcher connection half-open.  Each
    inherited socket above stderr is replaced by ``/dev/null`` (the
    descriptor number stays taken, so a stale socket object closing it
    later cannot hit an unrelated file); fds 0-2 are kept, since a
    worker run under a supervisor may log to a socket.  The pool itself
    talks over pipes, which are left alone.

    A daemon thread exits the process once the worker is gone.  Under
    fork and spawn the worker is the parent, so re-parenting is the
    signal.  Under forkserver the parent is the fork server, which stays
    up as long as any of its children does, so the worker's pid is
    polled instead.  SIGTERM gets its default action back: the worker's
    own handler (see :func:`_until_sigterm`) is copied by a fork but
    means nothing here, and the pool terminates broken children with
    SIGTERM.
    """
    parent_pid = os.getppid()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:
        fds = []
    for fd in fds:
        try:
            if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(devnull, fd)
        except OSError:
            pass  # the directory handle listdir used, already closed
    os.close(devnull)

    def worker_alive() -> bool:
        if parent_pid == worker_pid:
            return os.getppid() == worker_pid
        try:
            os.kill(worker_pid, 0)  # forkserver only, so POSIX
        except OSError:
            return False
        return True

    def watch_worker() -> None:
        while worker_alive():
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(
        target=watch_worker, name="worker-watch", daemon=True
    ).start()


async def _until_sigterm(work: Awaitable[None]) -> bool:
    """Await *work*; a SIGTERM cancels it.  True if SIGTERM stopped it.

    Handled on the loop rather than left to the default action so the
    caller's cleanup (closing the server, shutting the pool down) runs.
    This holds whatever SIGINT's disposition is — a background job of a
    non-interactive shell starts with SIGINT ignored, leaving SIGTERM as
    the only polite way to stop it.
    """
    loop = asyncio.get_running_loop()
    task = asyncio.ensure_future(work)
    stopped = False

    def stop() -> None:
        nonlocal stopped
        stopped = True
        task.cancel()

    try:
        loop.add_signal_handler(signal.SIGTERM, stop)
    except (NotImplementedError, RuntimeError):
        pass  # no signal support here (not the main thread, Windows)
    try:
        await task
    except asyncio.CancelledError:
        if not stopped:
            raise
    finally:
        try:
            loop.remove_signal_handler(signal.SIGTERM)
        except (NotImplementedError, RuntimeError):
            pass
    return stopped


class _WorkerConnection:
    """Dispatcher-side record of one connected worker session."""

    __slots__ = ("writer", "jobs", "in_flight", "released")

    def __init__(self, writer: asyncio.StreamWriter, jobs: int) -> None:
        self.writer = writer
        self.jobs = jobs
        #: sweep index -> assignment id, for every spec this worker is
        #: currently computing; drained back to the queue on release.
        self.in_flight: Dict[int, int] = {}
        self.released = False


class SweepDispatcher:
    """Serve one sweep to any number of worker connections.

    Construct with the specs (duplicate keys rejected immediately, the
    same submit-time contract as :func:`run_sweep`), then attach
    workers via :meth:`listen` and/or :meth:`dial`, and await
    :meth:`outcomes` for the spec-ordered result list.
    """

    def __init__(
        self,
        specs: Sequence[CampaignSpec],
        *,
        spec_timeout_s: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        specs = list(specs)
        ensure_unique_keys(specs)
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if spec_timeout_s is not None and spec_timeout_s <= 0:
            raise ValueError("spec_timeout_s must be positive")
        self._specs: List[CampaignSpec] = specs
        self._spec_timeout_s = spec_timeout_s
        self._max_attempts = max_attempts
        # Everything below is touched only from the event loop that
        # runs the connection handlers — loop confinement is the lock.
        self._results: List[Optional[CampaignOutcome]] = [None] * len(specs)  # guarded-by: <event-loop>
        self._pending: Deque[int] = deque(range(len(specs)))  # guarded-by: <event-loop>
        self._attempts: List[int] = [0] * len(specs)  # guarded-by: <event-loop>
        self._assignment_seq = 0  # guarded-by: <event-loop>
        self._current_assignment: Dict[int, int] = {}  # guarded-by: <event-loop>
        self._watchdogs: Dict[int, "asyncio.Task[None]"] = {}  # guarded-by: <event-loop>
        self._parked: Deque[_WorkerConnection] = deque()  # guarded-by: <event-loop>
        self._remaining = len(specs)  # guarded-by: <event-loop>
        self._conn_tasks: Set["asyncio.Task[None]"] = set()  # guarded-by: <event-loop>
        self._server: Optional["asyncio.Server"] = None  # guarded-by: <event-loop>
        self._done = asyncio.Event()
        if self._remaining == 0:
            self._done.set()
        # Observability counters (tests and the bench read these).
        self.workers_seen = 0  # guarded-by: <event-loop>
        self.requeues = 0  # guarded-by: <event-loop>
        self.timeouts = 0  # guarded-by: <event-loop>
        self.duplicates_dropped = 0  # guarded-by: <event-loop>

    # -- attachment ----------------------------------------------------

    async def listen(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Accept dialing workers; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("dispatcher is already listening")
        self._server = await asyncio.start_server(
            self._accepted, host=host, port=port
        )
        sockets = self._server.sockets
        name = sockets[0].getsockname()
        return str(name[0]), int(name[1])

    async def _accepted(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One accepted worker session, tracked like a dialed one.

        Registering in ``_conn_tasks`` lets :meth:`aclose` cancel
        accepted sessions too; absorbing the cancellation here keeps
        it out of the asyncio.streams done-callback, which would
        re-raise it into the loop's exception handler as noise.
        """
        task = asyncio.current_task()
        if task is not None:  # pragma: no branch - tasks always current
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self.handle_connection(reader, writer)
        except asyncio.CancelledError:
            pass

    async def dial(self, host: str, port: int) -> None:
        """Connect out to a listening worker and serve it this sweep."""
        reader, writer = await asyncio.open_connection(host, port)
        task = asyncio.create_task(self.handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    # -- results -------------------------------------------------------

    async def outcomes(self) -> List[CampaignOutcome]:
        """Wait for the sweep; one outcome per spec, spec order."""
        await self._done.wait()
        merged: List[CampaignOutcome] = []
        for outcome in self._results:
            if outcome is None:  # pragma: no cover - done implies merged
                raise RuntimeError("sweep finished with an unmerged spec")
            merged.append(outcome)
        return merged

    async def aclose(self) -> None:
        """Stop listening, drop live connections, cancel watchdogs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for watchdog in list(self._watchdogs.values()):
            watchdog.cancel()
        self._watchdogs.clear()
        conn_tasks = list(self._conn_tasks)
        for task in conn_tasks:
            task.cancel()
        if conn_tasks:
            await asyncio.gather(*conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()

    # -- protocol ------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Speak the dispatcher side of one worker session.

        Works identically whether the TCP connection was accepted
        (:meth:`listen`) or initiated (:meth:`dial`).  Any protocol or
        transport error releases the connection: its in-flight specs
        requeue and the rest of the sweep is untouched.
        """
        conn: Optional[_WorkerConnection] = None
        try:
            hello = await wire.read_frame(reader)
            if hello is None:
                return
            if hello.get("type") != wire.MSG_HELLO:
                raise wire.WireError(
                    f"expected hello, got {hello.get('type')!r}"
                )
            if hello.get("protocol") != wire.PROTOCOL_VERSION:
                raise wire.WireError(
                    f"protocol mismatch: worker speaks "
                    f"{hello.get('protocol')!r}, dispatcher speaks "
                    f"{wire.PROTOCOL_VERSION}"
                )
            conn = _WorkerConnection(writer, jobs=int(hello.get("jobs", 1)))
            self.workers_seen += 1
            while True:
                message = await wire.read_frame(reader)
                if message is None:
                    break
                kind = message["type"]
                if kind == wire.MSG_NEXT:
                    await self._grant(conn)
                elif kind == wire.MSG_OUTCOME:
                    await self._absorb(conn, message)
                else:
                    raise wire.WireError(
                        f"unexpected {kind!r} frame from worker"
                    )
        except (wire.WireError, ConnectionError, OSError):
            pass  # dead or misbehaving worker; requeue handles the rest
        finally:
            if conn is not None:
                await self._release(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _grant(self, conn: _WorkerConnection) -> None:
        """Answer one ``next``: assign a spec, park, or send ``done``."""
        if conn.released:
            return
        index = self._next_index()
        if index is not None:
            await self._assign(conn, index)
        elif self._remaining == 0:
            try:
                wire.write_frame(conn.writer, wire.done_message())
                await conn.writer.drain()
            except (ConnectionError, OSError):
                await self._release(conn)
        else:
            # No spec free right now, but the sweep is not finished: a
            # requeue may still need this slot.  Park the request; it
            # is answered by _pump (on requeue) or _finish (sweep end).
            self._parked.append(conn)

    def _next_index(self) -> Optional[int]:  # guarded-by: <event-loop>
        """Pop the next unmerged pending index, skipping stale entries.

        A requeued index whose late outcome already merged stays in
        ``_pending`` until popped here — merged slots are simply
        skipped, which is what makes requeue + late-merge race-free.
        """
        while self._pending:
            index = self._pending.popleft()
            if self._results[index] is None:
                return index
        return None

    async def _assign(self, conn: _WorkerConnection, index: int) -> None:
        self._assignment_seq += 1
        assignment = self._assignment_seq
        self._attempts[index] += 1
        self._current_assignment[index] = assignment
        conn.in_flight[index] = assignment
        if self._spec_timeout_s is not None:
            # Kept by index so merge/release can cancel it (REP102: the
            # watchdog task's lifetime is owned by this dict).
            self._watchdogs[index] = asyncio.create_task(
                self._expire(index, assignment, conn)
            )
        try:
            wire.write_frame(
                conn.writer, wire.spec_message(index, self._specs[index])
            )
            await conn.writer.drain()
        except (ConnectionError, OSError):
            await self._release(conn)

    async def _absorb(
        self, conn: _WorkerConnection, message: Dict[str, Any]
    ) -> None:
        raw_index = message.get("index")
        if not isinstance(raw_index, int) or not (
            0 <= raw_index < len(self._specs)
        ):
            raise wire.WireError(f"outcome for unknown index {raw_index!r}")
        payload = message.get("outcome")
        if not isinstance(payload, dict):
            raise wire.WireError("outcome frame missing outcome object")
        outcome = wire.outcome_from_wire(payload)
        if outcome.key != self._specs[raw_index].key:
            raise wire.WireError(
                f"outcome key {outcome.key!r} does not match spec "
                f"{self._specs[raw_index].key!r} at index {raw_index}"
            )
        conn.in_flight.pop(raw_index, None)
        await self._merge(raw_index, outcome)

    async def _merge(self, index: int, outcome: CampaignOutcome) -> None:
        """First outcome wins; late duplicates are dropped, counted."""
        watchdog = self._watchdogs.pop(index, None)
        if watchdog is not None:
            watchdog.cancel()
        self._current_assignment.pop(index, None)
        if self._results[index] is not None:
            self.duplicates_dropped += 1
            return
        self._results[index] = outcome
        self._remaining -= 1
        if self._remaining == 0:
            await self._finish()

    async def _release(self, conn: _WorkerConnection) -> None:
        """Detach a connection; requeue everything it was computing."""
        if conn.released:
            return
        conn.released = True
        lost = sorted(conn.in_flight)
        conn.in_flight.clear()
        for index in lost:
            watchdog = self._watchdogs.pop(index, None)
            if watchdog is not None:
                watchdog.cancel()
            self._current_assignment.pop(index, None)
            await self._recycle(index, "worker connection lost mid-campaign")

    async def _expire(
        self, index: int, assignment: int, conn: _WorkerConnection
    ) -> None:
        timeout = self._spec_timeout_s
        if timeout is None:  # pragma: no cover - only spawned with one
            return
        await asyncio.sleep(timeout)
        if self._current_assignment.get(index) != assignment:
            return
        self._current_assignment.pop(index, None)
        self._watchdogs.pop(index, None)
        conn.in_flight.pop(index, None)
        self.timeouts += 1
        await self._recycle(index, f"no outcome within {timeout:g}s")

    async def _recycle(self, index: int, reason: str) -> None:
        """Requeue a lost assignment, or abandon it after max attempts.

        Abandonment mirrors :func:`run_sweep`'s crash isolation: the
        spec gets a structured failure outcome naming the reason, and
        sibling campaigns are untouched.
        """
        if self._results[index] is not None:
            return
        attempts = self._attempts[index]
        if attempts >= self._max_attempts:
            spec = self._specs[index]
            await self._merge(
                index,
                CampaignOutcome(
                    key=spec.key,
                    ok=False,
                    error=(
                        f"cluster: {reason} "
                        f"(attempt {attempts}/{self._max_attempts}; "
                        f"spec abandoned)"
                    ),
                ),
            )
        else:
            self.requeues += 1
            self._pending.append(index)
            await self._pump()

    async def _pump(self) -> None:
        """Hand requeued specs to parked ``next`` requests."""
        while self._parked:
            index = self._next_index()
            if index is None:
                return
            conn = self._parked.popleft()
            if conn.released:
                self._pending.appendleft(index)
                continue
            await self._assign(conn, index)

    async def _finish(self) -> None:
        self._done.set()
        while self._parked:
            conn = self._parked.popleft()
            if conn.released:
                continue
            try:
                wire.write_frame(conn.writer, wire.done_message())
                await conn.writer.drain()
            except (ConnectionError, OSError):
                pass


class ClusterWorker:
    """Run campaigns for a dispatcher over one or many sessions.

    Wraps :func:`execute_campaign` behind a local executor (by default
    a :class:`ProcessPoolExecutor` of ``jobs`` workers whose processes
    drop the worker's sockets and exit when the worker dies).  One
    ``next`` is pulled per free slot; outcomes stream back as they
    finish.  A broken executor is rebuilt and reported per campaign —
    never propagated to the session.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        executor_factory: Optional[Callable[[int], Executor]] = None,
    ) -> None:
        self.jobs = resolve_workers(jobs)
        self._executor_factory = executor_factory or _default_executor_factory
        self._executor: Optional[Executor] = None  # guarded-by: <event-loop>
        self._server: Optional["asyncio.Server"] = None  # guarded-by: <event-loop>
        self.campaigns_run = 0  # guarded-by: <event-loop>

    # -- attachment ----------------------------------------------------

    async def connect(self, host: str, port: int) -> None:
        """Dial a listening dispatcher; returns when the sweep is done."""
        reader, writer = await asyncio.open_connection(host, port)
        await self.handle_connection(reader, writer)

    async def listen(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Accept dialing dispatchers; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("worker is already listening")
        self._server = await asyncio.start_server(
            self._accepted, host=host, port=port
        )
        sockets = self._server.sockets
        name = sockets[0].getsockname()
        return str(name[0]), int(name[1])

    async def _accepted(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One accepted dispatcher session; absorbs teardown
        cancellation so it never reaches the asyncio.streams
        done-callback (which re-raises it as loop noise).
        ``handle_connection`` has already cancelled the session's
        in-flight campaigns by the time the cancellation lands here."""
        try:
            await self.handle_connection(reader, writer)
        except asyncio.CancelledError:
            pass

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call listen() before serve_forever()")
        await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._shutdown_executor()

    # -- protocol ------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Speak the worker side of one dispatcher session."""
        tasks: Set["asyncio.Task[None]"] = set()
        try:
            wire.write_frame(writer, wire.hello_message(self.jobs))
            for _ in range(self.jobs):
                wire.write_frame(writer, wire.next_message())
            await writer.drain()
            while True:
                message = await wire.read_frame(reader)
                if message is None or message["type"] == wire.MSG_DONE:
                    break
                if message["type"] != wire.MSG_SPEC:
                    raise wire.WireError(
                        f"unexpected {message['type']!r} frame "
                        f"from dispatcher"
                    )
                raw_index = message.get("index")
                if not isinstance(raw_index, int):
                    raise wire.WireError("spec frame missing integer index")
                spec_payload = message.get("spec")
                if not isinstance(spec_payload, dict):
                    raise wire.WireError("spec frame missing spec object")
                spec = wire.spec_from_wire(spec_payload)
                # Kept in the set (and gathered below) so a slow
                # campaign outlives the read loop — REP102 lifetime.
                task = asyncio.create_task(
                    self._run_one(writer, raw_index, spec)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (wire.WireError, ConnectionError, OSError):
            pass  # dispatcher vanished or confused; it requeues for us
        except asyncio.CancelledError:
            # Session torn down from outside: don't wait for in-flight
            # campaigns (the drain below would deadlock on them).
            for task in tasks:
                task.cancel()
            raise
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _run_one(
        self, writer: asyncio.StreamWriter, index: int, spec: CampaignSpec
    ) -> None:
        outcome = await self._execute(spec)
        self.campaigns_run += 1
        try:
            wire.write_frame(writer, wire.outcome_message(index, outcome))
            wire.write_frame(writer, wire.next_message())
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # session died; the dispatcher requeues this spec

    async def _execute(self, spec: CampaignSpec) -> CampaignOutcome:
        loop = asyncio.get_running_loop()
        try:
            executor = self._ensure_executor()
            return await loop.run_in_executor(
                executor, execute_campaign, spec
            )
        except BaseException as exc:  # noqa: BLE001 - crash isolation
            if isinstance(
                exc, (KeyboardInterrupt, SystemExit, asyncio.CancelledError)
            ):
                raise
            # A BrokenProcessPool poisons every later submit; rebuild
            # so the next spec gets a fresh pool.  The failure itself
            # is reported per campaign, run_sweep's isolation shape.
            self._shutdown_executor()
            return CampaignOutcome(
                key=spec.key,
                ok=False,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback_module.format_exc(),
            )

    def _ensure_executor(self) -> Executor:  # guarded-by: <event-loop>
        if self._executor is None:
            self._executor = self._executor_factory(self.jobs)
        return self._executor

    def _shutdown_executor(self) -> None:  # guarded-by: <event-loop>
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None


# ----------------------------------------------------------------------
# Synchronous entry points (the CLI and benches call these)
# ----------------------------------------------------------------------


def run_cluster_sweep(
    specs: Sequence[CampaignSpec],
    workers: Sequence[str],
    *,
    spec_timeout_s: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> List[CampaignOutcome]:
    """Dial listening workers and dispatch; spec-ordered outcomes.

    The distributed counterpart of :func:`run_sweep` — same input, same
    output contract, same submit-time duplicate-key rejection.
    """
    addresses = [parse_hostport(address) for address in workers]
    if not addresses:
        raise ValueError("run_cluster_sweep needs at least one worker")

    async def _run() -> List[CampaignOutcome]:
        dispatcher = SweepDispatcher(
            specs, spec_timeout_s=spec_timeout_s, max_attempts=max_attempts
        )
        try:
            for host, port in addresses:
                await dispatcher.dial(host, port)
            return await dispatcher.outcomes()
        finally:
            await dispatcher.aclose()

    return asyncio.run(_run())


def run_listening_sweep(
    specs: Sequence[CampaignSpec],
    listen: str,
    *,
    spec_timeout_s: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    announce: Optional[Callable[[str], None]] = None,
) -> List[CampaignOutcome]:
    """Listen for dialing workers (``repro worker --connect``) instead.

    ``announce`` receives the bound ``"host:port"`` once accepting —
    the CLI prints it so workers know where to dial (port 0 binds an
    ephemeral port).
    """
    host, port = parse_hostport(listen)

    async def _run() -> List[CampaignOutcome]:
        dispatcher = SweepDispatcher(
            specs, spec_timeout_s=spec_timeout_s, max_attempts=max_attempts
        )
        try:
            bound_host, bound_port = await dispatcher.listen(host, port)
            if announce is not None:
                announce(f"{bound_host}:{bound_port}")
            return await dispatcher.outcomes()
        finally:
            await dispatcher.aclose()

    return asyncio.run(_run())


def run_worker_connect(
    address: str, jobs: Optional[int] = None
) -> Optional[int]:
    """Dial a dispatcher, work until it says ``done``; campaigns run.

    Returns ``None`` when a SIGTERM stopped the worker first.
    """
    host, port = parse_hostport(address)

    async def _run() -> Optional[int]:
        worker = ClusterWorker(jobs=jobs)
        try:
            if await _until_sigterm(worker.connect(host, port)):
                return None
            return worker.campaigns_run
        finally:
            await worker.aclose()

    return asyncio.run(_run())


def run_worker_listen(
    address: str,
    jobs: Optional[int] = None,
    announce: Optional[Callable[[str], None]] = None,
) -> None:
    """Listen and serve dispatchers until SIGTERM or SIGINT.

    Returns after a SIGTERM; SIGINT raises ``KeyboardInterrupt`` as
    usual.  Either way the server is closed and the pool shut down
    first.  ``announce`` receives the bound ``"host:port"`` (the CLI
    prints it; the cluster bench parses it to learn ephemeral ports).
    """
    host, port = parse_hostport(address)

    async def _run() -> None:
        worker = ClusterWorker(jobs=jobs)
        try:
            bound_host, bound_port = await worker.listen(host, port)
            if announce is not None:
                announce(f"{bound_host}:{bound_port}")
            await _until_sigterm(worker.serve_forever())
        finally:
            await worker.aclose()

    asyncio.run(_run())
