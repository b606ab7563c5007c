"""Span tracing installed from outside the program (choosing-metrics §4).

The traced run wraps the calls *into* each layer -- nothing inside
``src/`` knows about it.  A span is ``(layer, name, start_ns, end_ns,
parent, msg_id)``; spans nest on one stack because every wrapped call is
synchronous (the program never awaits inside a layer call), and a
layer's **self time** is its spans' duration minus the part their child
spans cover.  Layer = module name.

Where control re-enters an outer layer from an inner one -- a protocol
calling ``ctx.release`` runs host, transport and codec code *inside* the
protocol's span -- the context handed to the protocol is wrapped too, so
that time is charged to the layer that spends it.

Wrap targets are looked up tolerantly: a target a refactor removed is
listed in :attr:`Tracer.missing` and its time falls into the residual,
so the traced run keeps emitting every metric.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.events import Message
from repro.net import codec
from repro.protocols.registry import CatalogueEntry

PROTOCOLS = "protocols"
RELIABLE = "protocols.reliable"
HOST = "net.host"
TRANSPORT = "net.transport"
ENCODE = "net.codec.encode"
DECODE = "net.codec.decode"
OBS = "obs"
WAL = "wal"
#: The bench's own delivery callback: measured so that it is charged to
#: no layer of the program; it lands in the residual.
DRIVER = "driver"

Span = Tuple[str, str, int, int, int, Optional[str]]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        #: Open spans: [index, child_ns, msg_id, parent, entered_ns, start_ns].
        self._stack: List[list] = []
        self.self_ns: Dict[str, int] = {}
        #: Time spent inside begin/end themselves (see :meth:`begin`).
        self.overhead_ns = 0
        self.counts: Dict[str, int] = {
            "inner_control": 0,
            "inner_deliveries": 0,
            "inner_held_back": 0,
        }
        self.missing: List[str] = []
        self._undo: List[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, msg_id: Optional[str]) -> list:
        """Open a span; ``msg_id`` None inherits the enclosing span's.

        The clock is read on entry and again just before returning: the
        span's own time starts at the second read, while the enclosing
        span is debited from the first, so this bookkeeping is charged
        to neither layer but to :attr:`overhead_ns`.
        """
        entered = time.perf_counter_ns()
        stack = self._stack
        if stack:
            top = stack[-1]
            parent = top[0]
            if msg_id is None:
                msg_id = top[2]
        else:
            parent = -1
        frame = [len(self.spans), 0, msg_id, parent, entered, 0]
        self.spans.append(None)
        stack.append(frame)
        frame[5] = time.perf_counter_ns()
        return frame

    def end(self, frame: list, layer: str, name: str) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        index, child_ns, msg_id, parent, entered, start = frame
        self.self_ns[layer] = self.self_ns.get(layer, 0) + end - start - child_ns
        self.spans[index] = (layer, name, start, end, parent, msg_id)
        left = time.perf_counter_ns()
        self.overhead_ns += (start - entered) + (left - end)
        if stack:
            stack[-1][1] += left - entered

    def wrap(
        self,
        function: Callable[..., Any],
        layer: str,
        name: str,
        msg_id: Optional[Callable[..., Optional[str]]] = None,
    ) -> Callable[..., Any]:
        """``function`` with a span around every call."""
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = begin(msg_id(*args, **kwargs) if msg_id is not None else None)
            try:
                return function(*args, **kwargs)
            finally:
                end(frame, layer, name)

        return traced

    def wrap_outermost(
        self, function: Callable[..., Any], layer: str, name: str
    ) -> Callable[..., Any]:
        """Like :meth:`wrap` for a function that calls itself through its
        module global (``encode_value``): only the outermost call opens a
        span, the recursion runs unwrapped inside it."""
        traced = self.wrap(function, layer, name)
        depth = 0

        def outermost(*args: Any, **kwargs: Any) -> Any:
            nonlocal depth
            if depth:
                return function(*args, **kwargs)
            depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                depth -= 1

        return outermost

    def self_us(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e3

    def write(self, path: str) -> None:
        """Dump the spans as tab-separated rows (one header line)."""
        with open(path, "w") as handle:
            handle.write("index\tlayer\tname\tstart_ns\tend_ns\tparent\tmsg_id\n")
            for index, span in enumerate(self.spans):
                if span is not None:
                    handle.write("%d\t%s\t%s\t%d\t%d\t%d\t%s\n" % ((index,) + span))

    # -- installation ----------------------------------------------------------

    def _patch(
        self,
        owner: Any,
        attribute: str,
        layer: str,
        msg_id: Optional[Callable[..., Optional[str]]] = None,
        outermost: bool = False,
    ) -> None:
        original = getattr(owner, attribute, None)
        label = "%s.%s" % (getattr(owner, "__name__", owner), attribute)
        if original is None:
            self.missing.append(label)
            return
        if outermost:
            wrapped = self.wrap_outermost(original, layer, attribute)
        else:
            wrapped = self.wrap(original, layer, attribute, msg_id)
        setattr(owner, attribute, wrapped)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def install(self) -> None:
        """Wrap the layer entry points (class and module attributes, so
        hosts built afterwards pick them up).  Pair with :meth:`remove`."""
        from repro.net import host as host_module
        from repro.net.host import NetHost
        from repro.net.transport import AsyncTransport
        from repro.obs.bus import Bus
        from repro.wal.sink import WalSink

        def of_message(_self: Any, message: Message, *rest: Any) -> str:
            return message.id

        def of_packet(_self: Any, packet: Any, *rest: Any) -> Optional[str]:
            message = getattr(packet, "message", None)
            return message.id if message is not None else None

        def of_network_packet(_self: Any, _network: Any, packet: Any) -> Optional[str]:
            return of_packet(_self, packet)

        def of_probe(_self: Any, _probe: str, _time: float, **data: Any) -> Optional[str]:
            return data.get("message_id")

        self._patch(NetHost, "invoke", HOST, of_message)
        self._patch(NetHost, "_dispatch_packet", HOST, of_packet)
        self._patch(NetHost, "_vc_for_packet", OBS)
        self._patch(NetHost, "_note_remote_clock", OBS)
        self._patch(AsyncTransport, "transmit", TRANSPORT, of_network_packet)
        self._patch(AsyncTransport, "flush_outboxes", TRANSPORT)
        self._patch(host_module, "packet_from_frame", TRANSPORT)
        self._patch(codec, "encode_frame", ENCODE)
        self._patch(codec, "message_to_wire", ENCODE)
        self._patch(codec, "encode_value", ENCODE, outermost=True)
        self._patch(codec, "_decode_payload", DECODE)
        self._patch(codec, "message_from_wire", DECODE)
        self._patch(codec, "decode_value", DECODE, outermost=True)
        self._patch(Bus, "emit", OBS, of_probe)
        self._patch(WalSink, "on_trace", WAL)
        self._patch(WalSink, "input_listener", WAL)
        self._patch(WalSink, "_on_probe", WAL)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- protocol proxies --------------------------------------------------------

    def build_factory(
        self, entry: CatalogueEntry, arq: bool
    ) -> Callable[[int, int], Any]:
        """The cluster's protocol factory with timing proxies: one around
        the catalogue protocol and, under ARQ, one around the
        :class:`ReliableProtocol` that contains it."""

        def timed(factory: Callable[[int, int], Any], layer: str, below: str):
            def build(process_id: int, n_processes: int) -> TimedProtocol:
                return TimedProtocol(
                    self, factory(process_id, n_processes), layer, below
                )

            return build

        if not arq:
            return timed(entry.factory, PROTOCOLS, HOST)
        inner = dataclasses.replace(
            entry, factory=timed(entry.factory, PROTOCOLS, RELIABLE)
        )
        return timed(inner.reliable_factory(), RELIABLE, HOST)


class TimedProtocol:
    """A timing proxy around one :class:`Protocol` instance.

    Hook calls open a span for ``layer``; the context the protocol gets
    is a :class:`TimedContext` that charges whatever the protocol calls
    *down* into (``below``: the host, or the ARQ sublayer) to that layer.
    Everything else (``name``, ``accepts_duplicates``, ``blocking_reason``
    ...) passes through.
    """

    def __init__(self, tracer: Tracer, inner: Any, layer: str, below: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._layer = layer
        self._below = below
        #: Id of the user message whose arrival is being handled, so a
        #: delivery of any *other* message is known to be a held-back one.
        self.arriving: Optional[str] = None

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _hook(self, name: str, msg_id: Optional[str], ctx: Any, *args: Any) -> None:
        tracer = self._tracer
        frame = tracer.begin(msg_id)
        try:
            getattr(self._inner, name)(TimedContext(self, ctx), *args)
        finally:
            tracer.end(frame, self._layer, name)

    def on_start(self, ctx: Any) -> None:
        self._hook("on_start", None, ctx)

    def on_invoke(self, ctx: Any, message: Message) -> None:
        self._hook("on_invoke", message.id, ctx, message)

    def on_user_message(self, ctx: Any, message: Message, tag: Any) -> None:
        self.arriving = message.id
        try:
            self._hook("on_user_message", message.id, ctx, message, tag)
        finally:
            self.arriving = None

    def on_control(self, ctx: Any, src: int, payload: Any) -> None:
        self._hook("on_control", None, ctx, src, payload)

    def on_duplicate(self, ctx: Any, message: Message, tag: Any) -> None:
        self._hook("on_duplicate", message.id, ctx, message, tag)

    def on_restart(self, ctx: Any) -> None:
        self._hook("on_restart", None, ctx)

    def on_link_restored(self, ctx: Any, dst: int) -> None:
        self._hook("on_link_restored", None, ctx, dst)


class TimedContext:
    """The host context as one protocol layer sees it, with every
    downward call charged to the layer below.  Built per hook call (the
    ARQ sublayer hands its inner protocol a new context each time), so
    it only stores two references."""

    def __init__(self, owner: TimedProtocol, ctx: Any) -> None:
        self._owner = owner
        self._ctx = ctx

    @property
    def process_id(self) -> int:
        return self._ctx.process_id

    @property
    def n_processes(self) -> int:
        return self._ctx.n_processes

    @property
    def now(self) -> float:
        return self._ctx.now

    def _down(self, name: str, msg_id: Optional[str], *args: Any, **kwargs: Any) -> None:
        owner = self._owner
        tracer = owner._tracer
        frame = tracer.begin(msg_id)
        try:
            getattr(self._ctx, name)(*args, **kwargs)
        finally:
            tracer.end(frame, owner._below, name)

    def release(self, message: Message, tag: Any = None) -> None:
        self._down("release", message.id, message, tag)

    def deliver(self, message: Message) -> None:
        owner = self._owner
        if owner._layer == PROTOCOLS:
            counts = owner._tracer.counts
            counts["inner_deliveries"] += 1
            if owner.arriving != message.id:
                counts["inner_held_back"] += 1
        self._down("deliver", message.id, message)

    def send_control(self, dst: int, payload: Any) -> None:
        if self._owner._layer == PROTOCOLS:
            self._owner._tracer.counts["inner_control"] += 1
        self._down("send_control", None, dst, payload)

    def retransmit(self, message: Message, tag: Any = None) -> None:
        self._down("retransmit", message.id, message, tag)

    def retransmit_control(self, dst: int, payload: Any) -> None:
        self._down("retransmit_control", None, dst, payload)

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        # The timer fires from the event loop, outside any span: charge
        # its body to the layer that armed it.
        owner = self._owner
        self._down(
            "schedule", None, delay, owner._tracer.wrap(action, owner._layer, "timer")
        )

    def emit(self, probe: str, **data: Any) -> None:
        self._down("emit", None, probe, **data)
