"""The client side of the control protocol -- and nothing else dials.

Every non-peer connection to an endpoint (a
:class:`~repro.net.host.NetHost`, or a shard worker's ingress) is the
same conversation: dial until a deadline (the endpoint may still be
binding), ``HELLO{role, run}``, wait for ``READY``, then same-kind
request/reply round trips -- ``STATS``, ``METRICS``, ``TRACE``,
``DRAIN``, ``BYE``, ``COLLECT`` -- while the endpoint is free to push
``BACKPRESSURE`` frames at any moment in between.

:class:`ControlLink` is one such connection, read by callback through
one :class:`~repro.net.codec.FrameLink` (the reader of every socket the
runtime opens).  Its frame handler is the single answer to "what if a
frame arrives that is not my reply": each pushed frame goes to its
owner -- ``BACKPRESSURE`` updates the link's pause flag, ``RECORDS`` go
to the link's ``on_records`` handler (an observer's chunk merge) -- and
every other frame is queued as a reply, which
:meth:`ControlLink.reply` refuses if it is of the wrong kind instead of
handing it to the wrong caller.  :class:`ClusterClient`
holds one link per endpoint port; READY states the endpoint's layout (a
host ``{process, processes}``, a shard worker ``{shard, shards,
processes}``), so given the first port alone it dials the rest.  The
load generator, the collector, the shard coordinator and the live
observer are all built on it.

One rule keeps a client alive across an endpoint's restart: a link
whose stream ended re-dials (HELLO, READY, within the client's connect
timeout), counted once READY arrives.  A request re-dials first; the
load phase re-dials a dead endpoint in the background and holds its
rows until it is back; :meth:`ClusterClient.quiesce` counts an
unreachable endpoint as not quiesced until its timeout; a followed
observer stream (:meth:`ControlLink.follow`) re-dials at once.  Only a
malformed frame or a refused chunk stops a stream for good.

:data:`PULLS` is the server half of the same table:
:mod:`repro.net.endpoint`, the accept side, answers those request kinds
from the named ``*_body()`` method.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net import codec

__all__ = ["PULLS", "ClusterClient", "ControlLink", "exposition", "quiesced"]

#: Request kind -> the endpoint method whose return value is the reply
#: body.  :meth:`ClusterClient.stats` / ``metrics`` / ``traces`` are the
#: client half; :class:`repro.net.endpoint.Endpoint` seeds every
#: endpoint's request table from this one.
PULLS = {
    codec.STATS: "stats_body",
    codec.METRICS: "metrics_body",
    codec.TRACE: "trace_body",
}


def quiesced(stats: Sequence[Dict[str, Any]]) -> bool:
    """Whether STATS bodies show every invoked message delivered and no
    endpoint holding local pending work or an unacknowledged segment."""
    invoked = sum(s.get("invoked", 0) for s in stats)
    delivered = sum(s.get("deliveries", 0) for s in stats)
    pending = sum(s.get("pending", 0) + s.get("unacked", 0) for s in stats)
    return delivered >= invoked and pending == 0


def exposition(bodies: Sequence[Dict[str, Any]]) -> str:
    """METRICS bodies as one OpenMetrics exposition: each endpoint's
    series carry its own process or shard label, so the texts
    concatenate once their ``# EOF`` markers give way to one."""
    eof = "# EOF\n"
    return "".join(body.get("text", "").replace(eof, "") for body in bodies) + eof


class ControlLink:
    """One client connection to one endpoint (see the module docstring).

    ``on_records``, if given, owns the pushed RECORDS frames."""

    def __init__(
        self,
        host: str,
        port: int,
        role: str,
        run_id: str,
        on_records: Optional[Callable[[bytes], None]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.role = role
        self.run_id = run_id
        self.on_records = on_records
        #: The stream, once dialed; each re-dial opens a new one.
        self.stream: Optional[codec.FrameLink] = None
        #: Latest BACKPRESSURE state the endpoint pushed, and how many
        #: such frames arrived.
        self.paused = False
        self.backpressure_signals = 0
        #: Re-dials that reached READY.
        self.redials = 0
        #: A malformed frame or a refused chunk (or, on a followed link,
        #: an endpoint that did not come back).  A stream that just ended
        #: -- EOF, a reset, a frame torn at EOF -- re-dials instead.
        self.failure: Optional[Exception] = None
        #: The current stream's replies (``None`` once it has ended), and
        #: its end.
        self._replies: Optional[asyncio.Queue] = None
        self._lost: Optional[asyncio.Future] = None
        self._follower: Optional[asyncio.Task] = None
        #: The last :meth:`connect`'s timeout, which a re-dial gets too.
        self._timeout = 20.0

    @property
    def up(self) -> bool:
        """Whether the stream is open: dialed, and not ended since."""
        return self.stream is not None and not self.stream.closed

    async def connect(self, timeout: float = 20.0) -> None:
        """Dial, retrying refused connects until ``timeout`` has passed
        (``0`` is a single attempt), then send the HELLO."""
        self._timeout = timeout
        await self._open(time.monotonic() + timeout)

    async def _open(self, deadline: float) -> None:
        loop = asyncio.get_running_loop()
        self._replies = asyncio.Queue()
        self._lost = loop.create_future()
        while True:
            try:
                _, self.stream = await loop.create_connection(
                    lambda: codec.FrameLink(self._demultiplex, self._ended),
                    self.host,
                    self.port,
                )
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                await asyncio.sleep(0.05)
        self.send(
            codec.HELLO, {"process": -1, "role": self.role, "run": self.run_id}
        )
        await self.stream.drain()

    async def ready(self, timeout: Optional[float] = 20.0) -> Dict[str, Any]:
        """Wait for READY, which the endpoint sends once its rendezvous is done."""
        return await self.reply(codec.READY, timeout)

    async def follow(self, timeout: Optional[float] = 20.0) -> None:
        """Wait for READY, then re-dial the stream each time it ends,
        until :meth:`close` or a :attr:`failure`."""
        try:
            await self.ready(timeout)
        except ValueError as exc:
            if exc is not self.failure:
                raise
            return  # a malformed frame before READY
        self._follower = asyncio.get_running_loop().create_task(self._follow())

    async def _follow(self) -> None:
        while self.failure is None:
            await self._lost
            try:
                if self.failure is None:
                    await self.redial()
            except (ConnectionError, ValueError) as exc:
                self.failure = exc

    async def redial(self) -> None:
        """Dial again after the stream ended: HELLO and READY, retried
        until the last :meth:`connect`'s timeout has passed.  The link was
        READY once, so an EOF before READY now means the endpoint is not
        back yet (a fault proxy accepts for a host that is down)."""
        deadline = time.monotonic() + self._timeout
        while True:
            self._hang_up()
            try:
                await self._open(deadline)
                await self.ready(max(0.0, deadline - time.monotonic()))
                self.paused = False  # a new incarnation starts unloaded
                self.redials += 1
                return
            except (OSError, asyncio.TimeoutError) as exc:
                if time.monotonic() >= deadline:
                    raise ConnectionError(
                        "%s:%d did not come back: %s" % (self.host, self.port, exc)
                    ) from exc
            await asyncio.sleep(0.05)

    def _demultiplex(self, link: codec.FrameLink, frames: List[codec.Frame]) -> None:
        for frame in frames:
            if frame.kind == codec.RECORDS and self.on_records is not None:
                self.on_records(frame.body)
            elif frame.kind == codec.BACKPRESSURE:
                self.backpressure_signals += 1
                self.paused = frame.body.get("state") == "high"
            else:
                self._replies.put_nowait(frame)

    def _ended(self, link: codec.FrameLink, exc: Optional[BaseException]) -> None:
        if isinstance(exc, ValueError) and not isinstance(exc, codec.FrameTruncated):
            self.failure = exc  # a malformed frame or a refused chunk
        self._replies.put_nowait(None)
        if not self._lost.done():
            self._lost.set_result(None)

    def send(self, kind: int, body: Optional[Dict[str, Any]] = None) -> None:
        """Write one frame (no drain, no reply expected by this call)."""
        assert self.stream is not None
        self.stream.write(codec.encode_frame(kind, body))

    async def reply(
        self, kind: int, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """The body of the next reply, which must be of ``kind``."""
        assert self._replies is not None
        frame = await asyncio.wait_for(self._replies.get(), timeout)
        name = codec.KIND_NAMES.get(kind, kind)
        if frame is None:
            self._replies.put_nowait(None)  # EOF is sticky for later callers
            if self.failure is not None:
                raise self.failure
            hint = " (wrong run id?)" if kind == codec.READY else ""
            raise ConnectionError(
                "%s:%d closed the connection before its %s reply%s"
                % (self.host, self.port, name, hint)
            )
        if frame.kind != kind:
            raise codec.CodecError(
                "%s:%d answered a %s request with a %s frame"
                % (self.host, self.port, name, frame.kind_name)
            )
        return frame.body

    async def request(
        self, kind: int, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Send one frame and return its same-kind reply's body,
        re-dialing first if the stream has ended."""
        if not self.up:
            await self.redial()
        self.send(kind, body)
        await self.stream.drain()
        return await self.reply(kind)

    async def close(self) -> None:
        """Hang up; a followed stream is not re-dialed any more."""
        if self._follower is not None:
            self._follower.cancel()
            await asyncio.gather(self._follower, return_exceptions=True)
            self._follower = None
        self._hang_up()

    def _hang_up(self) -> None:
        if self.stream is not None:
            self.stream.close()


class ClusterClient:
    """One ``load``-role :class:`ControlLink` per endpoint port.

    ``ports`` lists every endpoint, or is the first one alone: then
    :meth:`connect` dials the rest on the ports above it, as many as the
    first endpoint's READY says the cluster has."""

    def __init__(
        self,
        ports: Sequence[int],
        host: str = "127.0.0.1",
        run_id: str = "default",
    ) -> None:
        self.ports = list(ports)
        self.host = host
        self.run_id = run_id
        self.links = [ControlLink(host, port, "load", run_id) for port in self.ports]
        #: The first endpoint's READY body, once connected.
        self.layout: Dict[str, Any] = {}

    @property
    def n_processes(self) -> int:
        """Paper processes in the cluster (a fleet's lane processes)."""
        return self.layout.get("processes", len(self.ports))

    @property
    def shards(self) -> Optional[int]:
        """How many shard workers the endpoints are, or ``None`` for hosts."""
        return self.layout.get("shards")

    @property
    def errors(self) -> List[str]:
        """One line per link that read a malformed frame (run reports
        carry it)."""
        return [
            "load stream %d: %s" % (index, link.failure)
            for index, link in enumerate(self.links)
            if link.failure is not None
        ]

    @property
    def backpressure_signals(self) -> int:
        """BACKPRESSURE frames the endpoints pushed, over all links."""
        return sum(link.backpressure_signals for link in self.links)

    async def connect(self, timeout: float = 20.0) -> None:
        """Dial the first endpoint and read its layout, then dial the
        others and wait for each READY; a failed rendezvous leaves no
        half-open link behind."""
        try:
            first = self.links[0]
            await first.connect(timeout)
            self.layout = await first.ready(timeout)
            size = self.shards or self.n_processes
            if len(self.ports) == 1 and size > 1:
                self.ports += [self.ports[0] + index for index in range(1, size)]
                self.links += [
                    ControlLink(self.host, port, "load", self.run_id)
                    for port in self.ports[1:]
                ]
            for link in self.links[1:]:
                await link.connect(timeout)
                await link.ready(timeout)
        except BaseException:
            await self.close()
            raise

    async def close(self) -> None:
        for link in self.links:
            await link.close()

    async def round_trip(
        self, kind: int, body: Optional[Dict[str, Any]] = None
    ) -> List[Dict[str, Any]]:
        """Send one frame to every endpoint; one reply body per endpoint.
        A link whose stream ended re-dials first."""
        for link in self.links:
            if not link.up:
                await link.redial()
            link.send(kind, body)
        bodies = []
        for link in self.links:
            await link.stream.drain()
            bodies.append(await link.reply(kind))
        return bodies

    async def stats(self) -> List[Dict[str, Any]]:
        """One STATS body per endpoint."""
        return await self.round_trip(codec.STATS)

    async def metrics(self) -> List[Dict[str, Any]]:
        """One METRICS body (OpenMetrics text + snapshot) per endpoint."""
        return await self.round_trip(codec.METRICS)

    async def traces(self) -> List[Dict[str, Any]]:
        """One TRACE body (flight-recorder dump + clock fix) per endpoint."""
        return await self.round_trip(codec.TRACE)

    async def drain(self) -> None:
        """Announce that no further invokes are coming."""
        await self.round_trip(codec.DRAIN)

    async def bye(self) -> None:
        """Send BYE (each endpoint acks, then exits its serve loop)."""
        try:
            await self.round_trip(codec.BYE)
        except (ConnectionError, codec.CodecError):
            pass  # an endpoint may close before the ack is read

    async def quiesce(
        self, timeout: float = 30.0, poll: float = 0.1
    ) -> Tuple[bool, List[Dict[str, Any]]]:
        """Poll STATS until :func:`quiesced` or ``timeout``; returns
        (quiesced, the last stats every endpoint answered).  A poll that
        cannot reach every endpoint counts as not quiesced."""
        deadline = time.monotonic() + timeout
        stats: List[Dict[str, Any]] = []
        while True:
            try:
                stats = await asyncio.wait_for(
                    self.stats(), max(0.0, deadline - time.monotonic())
                )
                if quiesced(stats):
                    return True, stats
            except (OSError, asyncio.TimeoutError, codec.CodecError):
                # Replies the other links still owe would answer the
                # next poll: every link starts afresh.
                for link in self.links:
                    await link.close()
            if time.monotonic() >= deadline:
                return False, stats
            await asyncio.sleep(poll)
