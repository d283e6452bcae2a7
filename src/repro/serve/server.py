"""The ``bonsai serve`` daemon: asyncio front end over a unix socket.

Layout::

    clients ──unix socket──> connection handlers ──submit──> JobQueue
                                                                │
                              dispatcher task <────take_batch───┘
                                    │
                   executor thread: SortSession (serial)
                          or ParallelPlan.map(worker_serve_job, batch)

One asyncio loop owns all sockets and the queue; job execution runs in
a single executor thread so admission control stays responsive while a
batch sorts.  Batches of more than one job dispatch through the same
:class:`~repro.parallel.plan.ParallelPlan` the CLI uses, which is the
bit-identity argument: a served job executes the exact code path of a
direct ``bonsai sort``/``optimize`` run, so the digests cannot differ.

Results of file-free jobs are cached (LRU) under their
:func:`~repro.serve.session.job_digest` — the same sha256 the obs run
manifest records — so a repeated request costs one dictionary lookup.

SIGTERM/SIGINT begin a *graceful drain*: every queued and running job
completes and is answered, new submissions are rejected with
``draining``, and then the loop exits normally — which is what lets the
CLI's ordinary ``--trace``/``--metrics``/``--manifest`` teardown flush
the observability record of the whole serving run.

This module touches wall-clock machinery (asyncio, sockets, signals) by
nature and is clock-sanctioned in the determinism analysis; everything
deterministic lives in :mod:`repro.serve.session`.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ProtocolError, ServeError
from repro.obs.runtime import observation
from repro.serve import protocol
from repro.serve.queue import JobQueue, QueuedJob
from repro.serve.session import SortSession, execute_payload, job_digest, job_from_params
from repro.serve.workers import worker_serve_job

#: Unix socket paths live inside sockaddr_un; stay safely under its limit.
_MAX_SOCKET_PATH = 100


@dataclass(frozen=True)
class ServeConfig:
    """Daemon parameters (the ``bonsai serve`` flags, resolved)."""

    socket: str
    queue_depth: int = 64
    client_quota: int = 16
    batch_max: int = 8
    cache_size: int = 128
    jobs: int | str | None = None

    def __post_init__(self) -> None:
        if not self.socket:
            raise ServeError("a unix socket path is required")
        if len(self.socket) > _MAX_SOCKET_PATH:
            raise ServeError(
                f"socket path is {len(self.socket)} chars; unix sockets cap "
                f"out near 108 — use a short path (e.g. under /tmp)"
            )
        if self.batch_max < 1:
            raise ServeError(f"batch-max must be >= 1, got {self.batch_max}")
        if self.cache_size < 0:
            raise ServeError(f"cache-size must be >= 0, got {self.cache_size}")


class ServeControl:
    """Cross-thread handle on a running daemon (tests, ServerThread).

    ``ready`` is set once the socket is listening; :meth:`request_drain`
    triggers the same graceful drain as SIGTERM, from any thread.
    """

    def __init__(self) -> None:
        self.ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain = None

    def _arm(self, loop: asyncio.AbstractEventLoop, drain) -> None:
        self._loop = loop
        self._drain = drain
        self.ready.set()

    def request_drain(self) -> None:
        if self._loop is None:
            raise ServeError("server is not running")
        try:
            self._loop.call_soon_threadsafe(self._drain)
        except RuntimeError:  # bonsai-lint: disable=exn-swallow -- a closed loop means the server already drained; requesting drain twice is this method's documented no-op
            pass


class _Server:
    """One daemon instance: queue, cache, session, connection state."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.session = SortSession(jobs=config.jobs)
        self.queue = JobQueue(depth=config.queue_depth,
                              client_quota=config.client_quota)
        self.cache: OrderedDict[str, dict] = OrderedDict()
        self._conn_seq = 0
        self._writers: set[asyncio.StreamWriter] = set()
        self._drain_started = False

    # -- result cache --------------------------------------------------
    def cache_get(self, digest: str) -> dict | None:
        payload = self.cache.get(digest)
        if payload is not None:
            self.cache.move_to_end(digest)
        return payload

    def cache_put(self, digest: str, payload: dict) -> None:
        if self.config.cache_size == 0:
            return
        self.cache[digest] = payload
        self.cache.move_to_end(digest)
        while len(self.cache) > self.config.cache_size:
            self.cache.popitem(last=False)

    # -- connection side -----------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        obs = observation()
        self._conn_seq += 1
        conn_id = f"conn-{self._conn_seq}"
        self._writers.add(writer)
        obs.count("serve.connections")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except (ValueError, asyncio.LimitOverrunError):
                    # readline raises ValueError once a line exceeds the
                    # stream limit (sized above MAX_LINE_BYTES, so the
                    # in-protocol cap is checked first).  Part of the
                    # oversized line is already consumed — framing is
                    # lost — so answer, then close this connection.
                    obs.count("serve.protocol_errors")
                    _write(writer, protocol.error_response(
                        "?",
                        f"request line exceeds the "
                        f"{protocol.MAX_LINE_BYTES}-byte limit",
                    ))
                    await _flush(writer)
                    break
                if not line:
                    break
                await self._handle_line(line, conn_id, writer)
        except asyncio.CancelledError:  # bonsai-lint: disable=exn-swallow -- drain-exit teardown cancels connections still waiting for a next request; every admitted job was already answered, so ending the read loop quietly is the graceful path
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _handle_line(
        self, line: bytes, conn_id: str, writer: asyncio.StreamWriter
    ) -> None:
        obs = observation()
        try:
            request = protocol.decode_request(line)
        except ProtocolError as error:
            obs.count("serve.protocol_errors")
            _write(writer, protocol.error_response(
                protocol.salvage_request_id(line), str(error)
            ))
            await _flush(writer)
            return
        if request.kind in protocol.CONTROL_KINDS:
            _write(writer, self._control(request))
            await _flush(writer)
            return
        # Validate the job before it can consume a queue slot: malformed
        # work is the client's fault, not backpressure.
        try:
            job = job_from_params(request.kind, request.params)
        except ProtocolError as error:
            obs.count("serve.protocol_errors")
            _write(writer, protocol.error_response(request.id, str(error)))
            await _flush(writer)
            return
        digest = job_digest(job)
        if job.cacheable:
            cached = self.cache_get(digest)
            if cached is not None:
                obs.count("serve.cache_hits")
                _write(writer, protocol.ok_response(request.id, cached, cached=True))
                await _flush(writer)
                return
        client = request.client or conn_id
        refusal = self.queue.submit(
            client=client,
            payload=(request.id, writer, job, digest),
            priority=request.priority,
        )
        if refusal is not None:
            obs.count("serve.rejected", reason=refusal)
            _write(writer, protocol.rejected_response(request.id, refusal))
            await _flush(writer)
            return
        obs.count("serve.accepted", kind=job.kind)
        await self.queue.kick()

    def _control(self, request: protocol.Request) -> bytes:
        if request.kind == "ping":
            return protocol.ok_response(request.id, "pong")
        if request.kind == "stats":
            stats = dict(self.queue.stats())
            stats["cache_entries"] = len(self.cache)
            return protocol.ok_response(request.id, stats)
        # shutdown: acknowledge, then drain exactly as SIGTERM would.
        self.begin_drain()
        return protocol.ok_response(request.id, "draining")

    # -- dispatch side -------------------------------------------------
    async def dispatch_loop(self) -> None:
        """Pull batches until the queue drains dry, then exit."""
        loop = asyncio.get_running_loop()
        obs = observation()
        while True:
            batch = await self.queue.take_batch(self.config.batch_max)
            if not batch:
                return
            tasks = [
                (job.payload[2].kind, job.payload[2].params()) for job in batch
            ]
            try:
                outcomes = await loop.run_in_executor(
                    None, _execute_batch, self.session, tasks
                )
            except Exception as error:
                # execute_payload never raises, so reaching here means
                # the batch machinery itself failed (a dying worker
                # pool, a shutdown executor).  The dispatcher is the
                # daemon's heartbeat: it must answer this batch's
                # clients and keep pulling, not die with the queue full.
                obs.count("serve.batch_faults")
                outcomes = [(
                    "error",
                    f"internal error: batch execution failed: "
                    f"{type(error).__name__}: {error}",
                )] * len(batch)
            for queued, (status, value) in zip(batch, outcomes):
                request_id, writer, job, digest = queued.payload
                if status == "ok":
                    value.pop("kind", None)
                    if job.cacheable:
                        self.cache_put(digest, value)
                    _write(writer, protocol.ok_response(request_id, value))
                    obs.count("serve.completed", kind=job.kind)
                else:
                    _write(writer, protocol.error_response(request_id, value))
                    obs.count("serve.failed", kind=job.kind)
                self.queue.done(queued)
            # dict.fromkeys dedups while keeping batch order (a set here
            # would flush writers in hash order).
            for writer in dict.fromkeys(q.payload[1] for q in batch):
                await _flush(writer)
            await self.queue.settle()

    # -- lifecycle -----------------------------------------------------
    def begin_drain(self) -> None:
        if self._drain_started:
            return
        self._drain_started = True
        observation().count("serve.drains")
        asyncio.get_running_loop().create_task(self.queue.begin_drain())


def _write(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Best-effort response write; a vanished client is not our failure."""
    try:
        writer.write(data)
    except (ConnectionResetError, BrokenPipeError, RuntimeError):  # bonsai-lint: disable=exn-swallow -- the client hung up before its response; server-side state is already settled and the disconnect is counted per-connection
        observation().count("serve.client_gone")


async def _flush(writer: asyncio.StreamWriter) -> None:
    """Await the transport after a :func:`_write` — the backpressure half.

    Without this, a client that pipelines requests while never reading
    responses lets the daemon buffer response bytes without bound; with
    it, the connection handler stops reading that client's next line
    until the kernel socket buffer accepts what it is owed.
    """
    try:
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError, RuntimeError):  # bonsai-lint: disable=exn-swallow -- flushing to a client that hung up; the work is already done and counted, only the delivery is moot
        observation().count("serve.client_gone")


def _execute_batch(session: SortSession, tasks: list) -> list:
    """Run one dequeued batch (executor thread).

    ``tasks`` holds one ``(kind, params)`` pair per job.  A multi-job
    batch fans out across the parallel pool — one
    :func:`worker_serve_job` per job, each in a stateless worker
    process; smaller batches run on the daemon's own memoized session.
    Both paths execute :func:`~repro.serve.session.execute_payload`, so
    which one a job landed on is unobservable in its payload.
    """
    plan = session.plan
    if plan is not None and len(tasks) > 1 and plan.wants_processes(len(tasks)):
        return plan.map(worker_serve_job, tasks)
    return [execute_payload(session, kind, params) for kind, params in tasks]


async def _serve_async(config: ServeConfig, control: ServeControl | None) -> int:
    server = _Server(config)
    obs = observation()
    try:
        # The StreamReader limit must sit above MAX_LINE_BYTES (asyncio
        # defaults to 64 KiB): readline raises ValueError at the limit,
        # so without the slack a line between the two caps would hit the
        # stream limit before decode_request's in-protocol check could
        # answer it as a protocol error.
        listener = await asyncio.start_unix_server(
            server.handle_connection, path=config.socket,
            limit=protocol.MAX_LINE_BYTES + 1024,
        )
    except OSError as error:
        raise ServeError(
            f"cannot listen on {config.socket!r}: {error}"
        ) from None
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.begin_drain)
        except (ValueError, NotImplementedError, RuntimeError):
            # Not the main thread (ServerThread in tests/bench): drain is
            # requested through the control handle instead of a signal.
            break
    if control is not None:
        control._arm(loop, server.begin_drain)
    print(f"serving on {config.socket}  "
          f"(queue depth {config.queue_depth}, "
          f"quota {config.client_quota}/client, "
          f"batch {config.batch_max}, jobs {config.jobs or 'serial'})")
    dispatcher = asyncio.create_task(server.dispatch_loop())
    try:
        await dispatcher  # exits once draining and the queue runs dry
        await server.queue.wait_drained()
    finally:
        listener.close()
        await listener.wait_closed()
        for writer in list(server._writers):
            writer.close()
        try:
            os.unlink(config.socket)
        except OSError:  # bonsai-lint: disable=exn-swallow -- socket-file cleanup on a path the OS may have already removed; nothing depends on the unlink succeeding
            pass
    stats = server.queue.stats()
    obs.gauge("serve.jobs_completed", stats["completed"])
    print(f"drained: {stats['completed']} job(s) completed, "
          f"{stats['rejected_overloaded'] + stats['rejected_quota'] + stats['rejected_draining']} rejected, "
          f"{len(server.cache)} cached result(s)")
    return 0


def serve(config: ServeConfig, control: ServeControl | None = None) -> int:
    """Run the daemon until it drains; returns the process exit code.

    Runs forever (serving) until SIGTERM/SIGINT, a ``shutdown`` request,
    or ``control.request_drain()`` begins the drain.  The return — not
    an abort — is what lets ``bonsai serve --trace/--metrics/--manifest``
    flush its observability files through the ordinary CLI session
    teardown.
    """
    return asyncio.run(_serve_async(config, control))


class ServerThread:
    """A daemon on a background thread — the in-process harness that the
    serve tests and the ``serve_throughput`` benchmark drive clients
    against.  Use as a context manager; exiting drains gracefully."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.control = ServeControl()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=serve, args=(self.config, self.control),
            name="bonsai-serve", daemon=True,
        )
        self._thread.start()
        if not self.control.ready.wait(timeout=10.0):
            raise ServeError("server did not start listening within 10s")
        return self

    def __exit__(self, *exc_info) -> None:
        self.control.request_drain()
        assert self._thread is not None
        self._thread.join(timeout=30.0)
        if self._thread.is_alive():
            raise ServeError("server did not drain within 30s")
