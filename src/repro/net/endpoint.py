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

Every accepted stream is read in whole chunks through one
:class:`FrameStream`, HELLO included, so a role's handler gets the
frames that arrived with the HELLO instead of losing them; a role that
wants its reads as callbacks (a host's peer links) takes the stream
over with :meth:`FrameStream.hand_over`.
"""

from __future__ import annotations

import asyncio
import signal
import time
from collections import defaultdict, deque
from typing import Any, Callable, DefaultDict, Deque, Dict, List, Optional, Set

from repro.net import codec
from repro.net.client import PULLS, READ_CHUNK

__all__ = ["Endpoint", "FrameStream"]


class FrameStream:
    """An accepted stream's frames, from whole-chunk reads.

    Each chunk goes through one :class:`~repro.net.codec.FrameDecoder`
    and may hold more than the frame asked for: :meth:`read` returns the
    frames it decoded one at a time, and the decoder keeps a partial tail
    for the next chunk.  A codec error is raised once the frames decoded
    before it have been taken.
    """

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self.reader = reader
        self.decoder = codec.FrameDecoder()
        self._frames: Deque[codec.Frame] = deque()
        self._error: Optional[codec.CodecError] = None
        #: Whether the reader holds no byte the decoder has not seen: a
        #: read shorter than ``READ_CHUNK`` took its whole buffer.
        self._drained = True

    async def _fill(self) -> bool:
        """Read one chunk into the decoder; False at a clean EOF."""
        if self._error is not None:
            raise self._error
        chunk = await self.reader.read(READ_CHUNK)
        self._drained = len(chunk) < READ_CHUNK
        try:
            if not chunk:
                self.decoder.eof()  # EOF inside a frame is a torn stream
                return False
            self.decoder.feed(chunk, self._frames)
        except codec.CodecError as exc:
            self._error = exc
        return True

    async def read(self) -> Optional[codec.Frame]:
        """The next frame; ``None`` at a clean EOF.  Raises
        :class:`~repro.net.codec.CodecError` for a malformed or torn one."""
        while not self._frames:
            if not await self._fill():
                return None
        return self._frames.popleft()

    async def hand_over(
        self, transport: asyncio.BaseTransport, protocol: Any
    ) -> None:
        """Make ``protocol`` the reader of the stream under ``transport``,
        losing and reordering no byte.

        ``protocol`` is an asyncio protocol that reads through
        this stream's :attr:`decoder` and also takes a list of decoded
        frames by ``frames_received``: the frames read and not yet
        returned go there first.  The switch waits for a read that left
        the reader's buffer empty -- one shorter than ``READ_CHUNK``, as
        the HELLO's read nearly always is -- so the reader holds no byte
        the decoder has not seen; an EOF that came with that read is
        then passed on as ``eof_received`` followed by a close.  Codec and
        connection errors of the reads before the switch raise here.
        """
        while True:
            if self._frames:
                frames = list(self._frames)
                self._frames.clear()
                protocol.frames_received(frames)
            if self._error is not None:
                raise self._error
            if self._drained or not await self._fill():
                break
        transport.set_protocol(protocol)
        if self.reader.at_eof():
            protocol.eof_received()
            transport.close()
            protocol.connection_lost(None)


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
        #: HELLO role -> ``async handler(stream, writer, hello_body)``
        #: (``stream`` a :class:`FrameStream`), which serves one accepted
        #: stream until it ends.
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
        stream = FrameStream(reader)
        try:
            try:
                hello = await stream.read()
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
                await handler(stream, writer, hello.body)
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
        stream: FrameStream,
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
                frame = await stream.read()
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
