"""The simulated asynchronous network.

Latency models draw per-packet delays from a seeded generator; with
``fifo_channels=False`` (the default, and the paper's adversary) packets
on the same channel may overtake each other.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.events import Message
from repro.simulation.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs depends on us)
    from repro.obs.bus import Bus


class LatencyModel:
    """Base class: per-packet latency as a function of channel and RNG."""

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Draw this packet's transit time."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return any internal cursor to its initial state.

        Stateless models (the default) have nothing to do; stateful ones
        (:class:`ScriptedLatency`) rewind so an instance can be reused
        across simulations.  :func:`~repro.simulation.runner.run_simulation`
        calls this before every run.
        """


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Constant delay (useful for hand-built schedules)."""

    delay: float = 1.0

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Always the configured constant."""
        return self.delay


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Uniform delay in ``[low, high)`` -- heavy reordering when wide."""

    low: float = 1.0
    high: float = 10.0

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError("need 0 <= low <= high")

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Uniform draw from ``[low, high)``."""
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class AlternatingLatency(LatencyModel):
    """Alternates slow/fast per packet: maximal adjacent reordering.

    Consecutive packets on any channel arrive in inverted pairs (the slow
    one overtaken by the fast one), the worst case for FIFO- and
    causality-sensitive protocols.
    """

    fast: float = 1.0
    slow: float = 50.0

    def __post_init__(self) -> None:
        if not 0 <= self.fast <= self.slow:
            raise ValueError("need 0 <= fast <= slow")

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        # Deterministic alternation driven by the shared RNG stream.
        """Either ``fast`` or ``slow``, a fair coin per packet."""
        flip = rng.random() < 0.5
        return self.slow if flip else self.fast


@dataclass(frozen=True)
class TargetedSlowChannel(LatencyModel):
    """One designated channel is much slower than the rest -- the
    "stale replica" adversary that provokes causal violations through
    third parties."""

    slow_src: int = 0
    slow_dst: int = 1
    slow: float = 80.0
    low: float = 1.0
    high: float = 5.0

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Base draw, plus the penalty on the slow channel."""
        base = rng.uniform(self.low, self.high)
        if (src, dst) == (self.slow_src, self.slow_dst):
            return base + self.slow
        return base


class ScriptedLatency(LatencyModel):
    """Explicit per-packet delays, in transmission order.

    For building *exact* executions (the paper's figure scenarios, or a
    regression case from a field trace): the n-th transmitted packet gets
    the n-th delay.  Falls back to ``default`` when the script runs out.
    """

    def __init__(self, delays, default: float = 1.0):
        self._delays = list(delays)
        self._cursor = 0
        self.default = default
        if any(d < 0 for d in self._delays):
            raise ValueError("delays must be non-negative")
        if default < 0:
            raise ValueError("default delay must be non-negative")

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """The next scripted delay, or ``default`` when exhausted."""
        if self._cursor < len(self._delays):
            delay = self._delays[self._cursor]
            self._cursor += 1
            return delay
        return self.default

    def reset(self) -> None:
        """Rewind to the first scripted delay (for instance reuse)."""
        self._cursor = 0


@dataclass
class Packet:
    """One network-level transmission (a user message or a control message)."""

    src: int
    dst: int
    kind: str  # "user" | "control"
    message: Optional[Message] = None
    tag: Any = None
    payload: Any = None
    send_time: float = 0.0
    uid: int = 0
    # Position among all packets transmitted on this (src, dst) channel --
    # a schedule-stable identity (unlike ``uid``, it does not shift when
    # unrelated channels commute), used by the model checker.
    channel_seq: int = 0
    # The tag's (user) or payload's (control) text as it came off a wire
    # (:attr:`repro.net.codec.Frame.value_text`), so the receiver's log
    # splices it instead of spelling the decoded value again.  A
    # simulated packet has none.
    wire_text: Optional[str] = field(default=None, compare=False, repr=False)

    @property
    def is_user(self) -> bool:
        return self.kind == "user"


class Transport:
    """How a transmitted packet reaches its destination handler.

    The network validates and accounts each packet, then hands it to its
    transport.  :class:`LatencyTransport` (the default) draws a seeded
    delay and schedules the arrival on the simulator -- the asynchronous
    adversary.  The model checker substitutes a transport that *parks*
    packets until an explorer explicitly dispatches them
    (:class:`repro.mc.world.ControlledTransport`), which is how the same
    hosts and protocols run under either random latency or an explicit
    schedule.
    """

    def transmit(self, network: "Network", packet: Packet) -> Optional[float]:
        """Route ``packet``; return its arrival time (``None`` if the
        arrival is decided later by an external scheduler)."""
        raise NotImplementedError


class LatencyTransport(Transport):
    """Seeded-latency delivery on the simulator's event queue."""

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        fifo_channels: bool = False,
    ):
        self.latency = latency or UniformLatency()
        self.fifo_channels = fifo_channels
        self._rng = random.Random(seed)
        self._last_arrival: Dict[Tuple[int, int], float] = {}

    def transmit(self, network: "Network", packet: Packet) -> Optional[float]:
        """Draw the packet's delay and schedule the handler call."""
        sim = network.sim
        delay = self.latency.sample(self._rng, packet.src, packet.dst)
        arrival = sim.now + delay
        if self.fifo_channels:
            channel = (packet.src, packet.dst)
            arrival = max(arrival, self._last_arrival.get(channel, 0.0) + 1e-9)
            self._last_arrival[channel] = arrival
        handler = network.handler_for(packet.dst)
        sim.schedule(arrival - sim.now, lambda: handler(packet))
        return arrival


class Network:
    """Routes packets between attached handlers via a transport.

    By default the transport draws seeded latencies (the paper's
    asynchronous adversary); pass ``transport`` to control delivery
    explicitly (used by :mod:`repro.mc`).
    """

    def __init__(
        self,
        sim: Simulator,
        n_processes: int,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        fifo_channels: bool = False,
        bus: "Optional[Bus]" = None,
        transport: Optional[Transport] = None,
    ):
        self.sim = sim
        self.n_processes = n_processes
        self.transport = transport or LatencyTransport(
            latency=latency, seed=seed, fifo_channels=fifo_channels
        )
        self._bus = bus
        self._handlers: Dict[int, Callable[[Packet], None]] = {}
        self._uid = itertools.count()
        self._channel_seq: Dict[Tuple[int, int], "itertools.count"] = {}

    @property
    def latency(self) -> Optional[LatencyModel]:
        """The latency model, when the transport is latency-based."""
        return getattr(self.transport, "latency", None)

    @property
    def fifo_channels(self) -> bool:
        """Whether the transport keeps per-channel FIFO arrival order."""
        return bool(getattr(self.transport, "fifo_channels", False))

    @property
    def bus(self) -> "Optional[Bus]":
        """The instrumentation bus, for transports that emit fault probes."""
        return self._bus

    def attach(self, process_id: int, handler: Callable[[Packet], None]) -> None:
        """Register the packet handler of ``process_id``."""
        if process_id in self._handlers:
            raise ValueError("process %d already attached" % process_id)
        self._handlers[process_id] = handler

    def handler_for(self, process_id: int) -> Callable[[Packet], None]:
        """The packet handler attached for ``process_id``."""
        handler = self._handlers.get(process_id)
        if handler is None:
            raise ValueError(
                "no handler attached for process %r (attached: %s)"
                % (process_id, sorted(self._handlers) or "none")
            )
        return handler

    def transmit(self, packet: Packet) -> None:
        """Send a packet; its arrival is decided by the transport."""
        if packet.dst not in range(self.n_processes):
            raise ValueError("unknown destination %r" % (packet.dst,))
        packet.send_time = self.sim.now
        packet.uid = next(self._uid)
        channel = (packet.src, packet.dst)
        counter = self._channel_seq.get(channel)
        if counter is None:
            counter = self._channel_seq[channel] = itertools.count()
        packet.channel_seq = next(counter)
        arrival = self.transport.transmit(self, packet)
        bus = self._bus
        if bus is not None and bus.active:
            delay = None if arrival is None else arrival - self.sim.now
            if packet.is_user:
                message = packet.message
                bus.emit(
                    "net.send",
                    self.sim.now,
                    src=packet.src,
                    dst=packet.dst,
                    message_id=message.id if message is not None else None,
                    tag=packet.tag,
                    delay=delay,
                    arrival=arrival,
                )
            else:
                bus.emit(
                    "net.control",
                    self.sim.now,
                    src=packet.src,
                    dst=packet.dst,
                    payload=packet.payload,
                    delay=delay,
                    arrival=arrival,
                )

    def send_user(
        self, src: int, dst: int, message: Message, tag: Any = None
    ) -> None:
        """Transmit a user message with its protocol tag."""
        self.transmit(Packet(src=src, dst=dst, kind="user", message=message, tag=tag))

    def send_control(self, src: int, dst: int, payload: Any) -> None:
        """Transmit a protocol control message."""
        self.transmit(Packet(src=src, dst=dst, kind="control", payload=payload))
