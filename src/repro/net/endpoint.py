"""The accept side of the control protocol -- and nothing else listens.

:mod:`repro.net.client` is who dials; :class:`Endpoint` is who answers.
A :class:`~repro.net.host.NetHost` and a shard worker
(:class:`~repro.net.shard.worker.ShardWorker`) are both endpoints, so
who may connect and what a connection is owed is decided here once:

- the first frame must be a ``HELLO`` for this endpoint's run, naming a
  role the subclass registered; anything else closes the stream, and a
  malformed frame, a foreign run id and an unknown role each leave one
  line in :attr:`Endpoint.errors`;
- a ``load`` client waits for the subclass's readiness gate, gets
  ``READY``, then same-kind round trips from a request table: the
  :data:`~repro.net.client.PULLS` plus what the subclass adds.
  ``DRAIN`` is a *per-run barrier* -- no invokes until the client that
  raised it disconnects, so an endpoint left serving takes the next
  run -- and ``BYE`` is acked and shuts the endpoint down;
- one task set, one table of accepted streams, one
  :meth:`Endpoint._teardown`, and :meth:`Endpoint.serve_forever` with
  the SIGINT/SIGTERM graceful drain.
"""

from __future__ import annotations

import asyncio
import signal
import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Set

from repro.net import codec
from repro.net.client import PULLS

__all__ = ["Endpoint"]


class Endpoint:
    """One server that accepts, authenticates and answers control clients.

    Subclasses fill :attr:`_roles` and :attr:`_requests`, set
    :attr:`_ready` once traffic may start, and provide
    :meth:`local_pending`, :meth:`_close` and the three ``*_body()``
    methods :data:`~repro.net.client.PULLS` names.
    """

    def __init__(
        self,
        bind_host: str,
        listen_port: int,
        run_id: str,
        ready_body: Dict[str, Any],
    ) -> None:
        self.bind_host = bind_host
        self.listen_port = listen_port
        self.run_id = run_id
        #: What READY tells a client about who answered.
        self.ready_body = ready_body
        self.draining = False
        self.errors: List[str] = []
        #: HELLO role -> ``async handler(reader, writer, hello_body)``,
        #: which serves one accepted stream until it ends.
        self._roles: Dict[str, Callable] = {"load": self._load_loop}
        #: Load-role request kind -> ``handler(frame)`` returning the
        #: same-kind reply's body (``None``: a one-way frame).
        self._requests: Dict[int, Callable] = dict.fromkeys(PULLS, self._pull)
        #: Accepted streams by HELLO role, from handshake to close.
        self._writers: DefaultDict[str, Set[asyncio.StreamWriter]] = defaultdict(set)
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: Set[asyncio.Task] = set()
        self._ready = asyncio.Event()
        self._done = asyncio.Event()
        #: Set on entry to :meth:`_teardown`: what ends after that is the
        #: endpoint's own doing, not an error and not a client leaving.
        self._stopping = False

    # -- what a subclass provides ------------------------------------------------

    def local_pending(self) -> int:
        """Work accepted here and not yet finished (the drain condition)."""
        raise NotImplementedError

    def _close(self) -> None:
        """Release what an orderly :meth:`shutdown` must flush or close."""
        raise NotImplementedError

    def _barrier_lifted(self) -> None:
        """The client whose DRAIN closed a run has gone: forget whatever
        was kept for that run alone."""

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Start listening."""
        self._server = await asyncio.start_server(
            self._on_connection, self.bind_host, self.listen_port
        )

    def _spawn(self, coro) -> asyncio.Task:
        return self._track(asyncio.get_running_loop().create_task(coro))

    def _track(self, task: asyncio.Task) -> asyncio.Task:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def drain(self, timeout: float = 10.0) -> bool:
        """Stop accepting invokes; wait until local obligations settle."""
        self.draining = True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.local_pending() == 0:
                return True
            await asyncio.sleep(0.02)
        return False

    async def shutdown(self) -> None:
        """Orderly stop: :meth:`_close`, then close every stream."""
        if self._stopping:
            return
        self._close()
        await self._teardown()

    async def _teardown(self) -> None:
        """Stop the server and the tasks and close every accepted stream
        (clients then see EOF, exactly as if the process had gone)."""
        self._stopping = True
        self.draining = True
        if self._server is not None:
            self._server.close()
        current = asyncio.current_task()
        for task in list(self._tasks):
            if task is not current:
                task.cancel()
        for writers in self._writers.values():
            for writer in writers:
                if not writer.is_closing():
                    writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        self._done.set()

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` -- typically via a BYE frame or a
        SIGINT/SIGTERM-triggered graceful drain."""
        loop = asyncio.get_running_loop()

        def _graceful() -> None:
            self._spawn(self._drain_and_shutdown())

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _graceful)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await self.start()
        await self._done.wait()

    async def _drain_and_shutdown(self) -> None:
        await self.drain()
        await self.shutdown()

    # -- inbound connections -------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._track(task)
        try:
            try:
                hello = await codec.read_frame(reader)
            except codec.CodecError as exc:
                self.errors.append("handshake: %s" % exc)
                return
            except ConnectionError:
                return  # gone before saying anything
            if hello is None or hello.kind != codec.HELLO:
                return
            if hello.body.get("run") != self.run_id:
                self.errors.append(
                    "rejected connection for run %r (serving %r)"
                    % (hello.body.get("run"), self.run_id)
                )
                return
            role = hello.body.get("role")
            handler = self._roles.get(role) if isinstance(role, str) else None
            if handler is None:
                self.errors.append("unknown connection role %r" % (role,))
                return
            writers = self._writers[role]
            writers.add(writer)
            try:
                await handler(reader, writer, hello.body)
            finally:
                writers.discard(writer)
        except asyncio.CancelledError:
            # The stream protocol's done-callback reads the task's
            # exception, so a connection that teardown cancelled ends
            # normally instead of logging the cancellation.
            if not self._stopping:
                raise
        finally:
            writer.close()

    # -- load clients ----------------------------------------------------------------

    def _pull(self, frame: "codec.Frame") -> Dict[str, Any]:
        return getattr(self, PULLS[frame.kind])()

    async def _load_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: Dict[str, Any],
    ) -> None:
        await self._ready.wait()
        writer.write(codec.encode_frame(codec.READY, self.ready_body))
        requests = self._requests
        drained_here = False
        try:
            await writer.drain()
            while True:
                frame = await codec.read_frame(reader)
                if frame is None:
                    return
                kind = frame.kind
                handler = requests.get(kind)
                if handler is not None:
                    body = handler(frame)
                    if body is not None:
                        writer.write(codec.encode_frame(kind, body))
                elif kind == codec.DRAIN:
                    self.draining = True
                    drained_here = True
                    writer.write(codec.encode_frame(codec.DRAIN, {}))
                elif kind == codec.BYE:
                    drained_here = False  # terminal: shutdown owns the flag
                    writer.write(codec.encode_frame(codec.BYE, {}))
                    try:
                        await writer.drain()
                    except ConnectionError:
                        pass
                    self._spawn(self.shutdown())
                    return
                # Any other kind on a load stream is ignored (forward compat).
        except (codec.CodecError, ConnectionError) as exc:
            if not self._stopping:
                self.errors.append("load stream: %s" % exc)
        finally:
            if drained_here and not self._stopping:
                # DRAIN is a per-run barrier, not a terminal state: once
                # the drained load client goes away, a keep-serving
                # endpoint must take the next run's invokes.
                self.draining = False
                self._barrier_lifted()
