"""A socket-level fault proxy: sever and blackhole real TCP links.

:class:`~repro.faults.transport.FaultyTransport` injects faults at the
*packet* layer -- it decides inside the sending process which frames to
drop.  That cannot model the failure shapes the resilience layer exists
for: a cable pull (both directions die with an EOF), a silently
discarding middlebox (no EOF, no data), or an asymmetric partition.
:class:`FaultProxy` models them where they happen -- on the wire.

One proxy fronts one host: it owns the host's *public* port (the one in
the cluster's ``ports`` list) and forwards byte streams to the host's
*private* ``listen_port``.  Peers, load generators and observers dial
the proxy without knowing it exists.  Faults are per *source process*
where the source is known -- the proxy sniffs the HELLO frame's
``process`` field off the first bytes of each inbound connection (frames
are forwarded untouched; the sniffer only peeks) -- so a chaos plan can
sever P0->P2 while P1->P2 stays healthy:

``sever(src)``
    close both directions of every live connection from ``src`` and
    refuse (accept-then-close) new ones until :meth:`heal`.  Peers see
    EOF: the supervised re-dial path.

``blackhole(src)``
    keep connections open but discard every byte in both directions,
    and accept (then starve) new ones.  Peers see silence: the
    phi-accrual detector path.

``heal(src)``
    forward normally again (existing blackholed connections stay
    starved -- real middleboxes do not replay what they dropped; the
    dialer's detector has long since torn the link down and re-dialed).

Connections whose first frame is not a HELLO (or that fault before the
sniff completes) are treated as from the anonymous source ``-1``;
``sever()``/``blackhole()`` with no argument faults every source
including those.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Dict, List, Optional, Set, Tuple

from repro.net import codec

__all__ = ["FaultProxy", "ProxyConn"]

_LENGTH = struct.Struct("!I")

#: Source id for connections whose HELLO was unreadable or absent.
ANON = -1

FORWARD = "forward"
SEVERED = "severed"
BLACKHOLED = "blackholed"


class ProxyConn:
    """One proxied connection pair (client<->proxy, proxy<->upstream)."""

    def __init__(
        self,
        src: int,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
        upstream_reader: asyncio.StreamReader,
        upstream_writer: asyncio.StreamWriter,
    ) -> None:
        self.src = src
        self.client_reader = client_reader
        self.client_writer = client_writer
        self.upstream_reader = upstream_reader
        self.upstream_writer = upstream_writer
        self.blackholed = False
        self.closed = False

    def close(self) -> None:
        self.closed = True
        for writer in (self.client_writer, self.upstream_writer):
            if not writer.is_closing():
                writer.close()


class FaultProxy:
    """Front one host's public port; forward, sever or starve streams.

    ``await start()`` binds the public port; :meth:`sever`,
    :meth:`blackhole` and :meth:`heal` switch the per-source mode at any
    time.  ``await close()`` tears everything down.
    """

    def __init__(
        self,
        listen_port: int,
        upstream_port: int,
        host: str = "127.0.0.1",
    ) -> None:
        if listen_port == upstream_port:
            raise ValueError(
                "proxy cannot listen on its own upstream port %d" % listen_port
            )
        self.listen_port = listen_port
        self.upstream_port = upstream_port
        self.host = host
        self._server: Optional[asyncio.base_events.Server] = None
        #: src -> mode; sources absent from the map forward normally.
        self._modes: Dict[int, str] = {}
        self._default_mode = FORWARD
        self._conns: Set[ProxyConn] = set()
        self._tasks: Set[asyncio.Task] = set()
        self.accepted = 0
        self.refused = 0
        self.bytes_forwarded = 0
        self.bytes_discarded = 0

    # -- fault control ---------------------------------------------------------

    def mode_for(self, src: int) -> str:
        """The fault mode connections from ``src`` currently get."""
        return self._modes.get(src, self._default_mode)

    def sever(self, src: Optional[int] = None) -> int:
        """Cut every connection from ``src`` (all sources when ``None``)
        and refuse new ones.  Returns how many live connections died."""
        return self._set_mode(src, SEVERED)

    def blackhole(self, src: Optional[int] = None) -> int:
        """Silently discard traffic from/to ``src`` connections; new
        connections are accepted but starved.  Returns how many live
        connections went dark."""
        return self._set_mode(src, BLACKHOLED)

    def heal(self, src: Optional[int] = None) -> None:
        """Forward normally for ``src`` (everything when ``None``)."""
        if src is None:
            self._modes.clear()
            self._default_mode = FORWARD
        else:
            self._modes.pop(src, None)
            if self._default_mode != FORWARD:
                self._modes[src] = FORWARD

    def _set_mode(self, src: Optional[int], mode: str) -> int:
        affected = 0
        if src is None:
            self._default_mode = mode
            self._modes.clear()
            targets = list(self._conns)
        else:
            self._modes[src] = mode
            targets = [conn for conn in self._conns if conn.src == src]
        for conn in targets:
            if mode == SEVERED:
                conn.close()
                affected += 1
            elif mode == BLACKHOLED and not conn.blackholed:
                conn.blackholed = True
                affected += 1
        return affected

    def connections_from(self, src: int) -> int:
        """How many of the live connections came from ``src``."""
        return sum(
            1 for conn in self._conns if conn.src == src and not conn.closed
        )

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the public port and begin accepting connections."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.listen_port
        )

    async def close(self) -> None:
        """Stop listening and tear down every proxied connection."""
        if self._server is not None:
            self._server.close()
        for conn in list(self._conns):
            conn.close()
        for task in list(self._tasks):
            task.cancel()
        if self._server is not None:
            await self._server.wait_closed()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- data path -------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.accepted += 1
        src, preamble = await self._sniff_hello(reader)
        mode = self.mode_for(src)
        if mode == SEVERED:
            # Accept-then-close: the dialer sees an immediate EOF, the
            # same observable a mid-handshake cable pull produces.
            self.refused += 1
            writer.close()
            return
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                self.host, self.upstream_port
            )
        except OSError:
            writer.close()
            return
        conn = ProxyConn(src, reader, writer, upstream_reader, upstream_writer)
        conn.blackholed = mode == BLACKHOLED
        self._conns.add(conn)
        if preamble and not conn.blackholed:
            upstream_writer.write(preamble)
        elif preamble:
            self.bytes_discarded += len(preamble)
        pump_up = self._spawn(self._pump(conn, reader, upstream_writer))
        pump_down = self._spawn(self._pump(conn, upstream_reader, writer))
        await asyncio.gather(pump_up, pump_down, return_exceptions=True)
        conn.close()
        self._conns.discard(conn)

    async def _sniff_hello(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, bytes]:
        """Peek the first frame; return (source process, bytes consumed).

        The consumed bytes are returned so the data path can forward
        them verbatim -- the proxy never rewrites traffic.
        """
        consumed = b""
        try:
            prefix = await asyncio.wait_for(
                reader.readexactly(_LENGTH.size), timeout=5.0
            )
            consumed += prefix
            (size,) = _LENGTH.unpack(prefix)
            if size > codec.MAX_FRAME_BYTES:
                return ANON, consumed
            body = await asyncio.wait_for(reader.readexactly(size), timeout=5.0)
            consumed += body
            frame, _ = codec.decode_frame(consumed)
            if frame.kind == codec.HELLO and frame.body.get("role") == "peer":
                return int(frame.body.get("process", ANON)), consumed
            return ANON, consumed
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            codec.CodecError,
            ConnectionError,
            ValueError,
        ):
            return ANON, consumed

    async def _pump(
        self,
        conn: ProxyConn,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                if conn.blackholed:
                    self.bytes_discarded += len(data)
                    continue  # keep reading: a blackhole consumes, silently
                writer.write(data)
                self.bytes_forwarded += len(data)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            # EOF on one side propagates to both unless blackholed (a
            # blackholed link dying must stay *silent* -- no EOF leaks).
            if not conn.blackholed:
                conn.close()


def proxied_ports(
    public_ports: List[int], private_ports: List[int]
) -> List[Tuple[int, int]]:
    """Pair each public port with its upstream, validating the shapes."""
    if len(public_ports) != len(private_ports):
        raise ValueError(
            "port lists differ in length: %d public vs %d private"
            % (len(public_ports), len(private_ports))
        )
    overlap = set(public_ports) & set(private_ports)
    if overlap:
        raise ValueError("ports cannot be both public and private: %s" % overlap)
    return list(zip(public_ports, private_ports))
