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
- one task set, one table of accepted links, one
  :meth:`Endpoint._teardown`, and :meth:`Endpoint.serve_forever` with
  the SIGINT/SIGTERM graceful drain.

Every accepted stream is one :class:`~repro.net.codec.FrameLink` from
accept to close: its frames go to the HELLO check, then to the role's
handler, which gets the frames that shared the HELLO's read first.
"""

from __future__ import annotations

import asyncio
import signal
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

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
        #: HELLO role -> ``(serve(link, hello_body), end(link, exc))``:
        #: ``serve`` sets what the link's frames go to from the HELLO on,
        #: and ``end`` is told once the link has ended.
        self._roles: Dict[str, Tuple[Callable, Callable]] = {
            "load": (self._serve_load, self._end_load)
        }
        #: Load-role request kind -> ``handler(frame)`` returning the
        #: same-kind reply's body (``None``: a one-way frame).
        self._requests: Dict[int, Callable] = dict.fromkeys(PULLS, self._pull)
        #: Every accepted link, from accept to end, and its HELLO role
        #: (``""`` until the HELLO is in).
        self._links: Dict[codec.FrameLink, str] = {}
        #: Load links whose DRAIN holds the per-run barrier.
        self._barriers: Set[codec.FrameLink] = set()
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
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, self.bind_host, self.listen_port
        )

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
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
        """Stop the server and the tasks and close every accepted link
        (clients then see EOF, exactly as if the process had gone)."""
        self._stopping = True
        self.draining = True
        if self._server is not None:
            self._server.close()
        current = asyncio.current_task()
        for task in list(self._tasks):
            if task is not current:
                task.cancel()
        for link in list(self._links):
            link.close()
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

    def _accept(self) -> codec.FrameLink:
        link = codec.FrameLink(self._on_hello, self._on_end)
        self._links[link] = ""
        return link

    def _on_hello(self, link: codec.FrameLink, frames: List[codec.Frame]) -> None:
        if not frames:
            return
        hello = frames[0]
        if hello.kind != codec.HELLO:
            link.close()
            return
        if hello.body.get("run") != self.run_id:
            self.errors.append(
                "rejected connection for run %r (serving %r)"
                % (hello.body.get("run"), self.run_id)
            )
            link.close()
            return
        role = hello.body.get("role")
        handlers = self._roles.get(role) if isinstance(role, str) else None
        if handlers is None:
            self.errors.append("unknown connection role %r" % (role,))
            link.close()
            return
        self._links[link] = role
        handlers[0](link, hello.body)
        if len(frames) > 1 and not link.closed:
            link.on_frames(link, frames[1:])  # those that came with the HELLO

    def _on_end(self, link: codec.FrameLink, exc: Optional[BaseException]) -> None:
        role = self._links.pop(link, "")
        if role:
            self._roles[role][1](link, exc)
        elif isinstance(exc, codec.CodecError):
            self.errors.append("handshake: %s" % exc)

    # -- load clients ----------------------------------------------------------------

    def _pull(self, frame: "codec.Frame") -> Dict[str, Any]:
        return getattr(self, PULLS[frame.kind])()

    def _serve_load(self, link: codec.FrameLink, hello: Dict[str, Any]) -> None:
        # Nothing is read until READY: the frames of the HELLO's read wait
        # here, and the socket holds the rest.
        held: List[codec.Frame] = []
        link.on_frames = lambda link, frames: held.extend(frames)
        link.transport.pause_reading()
        self._spawn(self._open_load(link, held))

    async def _open_load(self, link: codec.FrameLink, held: List[codec.Frame]) -> None:
        await self._ready.wait()
        link.write(codec.encode_frame(codec.READY, self.ready_body))
        await link.drain()
        link.on_frames = self._on_load_frames
        link.transport.resume_reading()
        link.frames_received(held)

    def _on_load_frames(self, link: codec.FrameLink, frames: List[codec.Frame]) -> None:
        requests = self._requests
        for frame in frames:
            kind = frame.kind
            handler = requests.get(kind)
            if handler is not None:
                body = handler(frame)
                if body is not None:
                    link.write(codec.encode_frame(kind, body))
            elif kind == codec.DRAIN:
                self.draining = True
                self._barriers.add(link)
                link.write(codec.encode_frame(codec.DRAIN, {}))
            elif kind == codec.BYE:
                self._barriers.discard(link)  # terminal: shutdown owns the flag
                link.write(codec.encode_frame(codec.BYE, {}))
                link.transport.pause_reading()
                self._spawn(self._bye(link))
                return
            # Any other kind on a load stream is ignored (forward compat).

    async def _bye(self, link: codec.FrameLink) -> None:
        await link.drain()
        await self.shutdown()

    def _end_load(self, link: codec.FrameLink, exc: Optional[BaseException]) -> None:
        if exc is not None and not self._stopping:
            self.errors.append("load stream: %s" % exc)
        if link in self._barriers:
            self._barriers.discard(link)
            if not self._stopping:
                # DRAIN is a per-run barrier, not a terminal state: once
                # the drained load client goes away, a keep-serving
                # endpoint must take the next run's invokes.
                self.draining = False
                self._barrier_lifted()
