"""Protocol profiling: where does each protocol pay for its ordering?

Runs a workload under several protocols with the instrumentation bus
attached and breaks each message's end-to-end latency into the paper's
three phases -- send inhibition (``x.s* -> x.s``), network transit
(``x.s -> x.r*``), and delivery buffering (``x.r* -> x.r``) -- alongside
the wire overheads (control messages/bytes, tag bytes).  Backs the
``repro profile`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs.bus import Bus
from repro.obs.metrics import MetricsRecorder
from repro.obs.watchdog import Watchdog
from repro.simulation.network import LatencyModel
from repro.simulation.runner import run_simulation
from repro.simulation.workloads import Workload


def catalog_protocols() -> "dict[str, Callable[[int, int], object]]":
    """The named protocol factories available for profiling (a view of
    the single :func:`repro.protocols.catalogue` registry)."""
    from repro.protocols.registry import cached_catalogue

    return {name: entry.factory for name, entry in cached_catalogue().items()}


#: The default comparison set of ``repro profile``.
DEFAULT_PROFILE_PROTOCOLS = ("tagless", "fifo", "causal-rst", "sync-coord")


@dataclass(frozen=True)
class ProtocolProfile:
    """Per-phase cost breakdown of one protocol on one workload."""

    name: str
    messages: int
    delivered: int
    undelivered: int
    inhibition_mean: float
    inhibition_total: float
    network_mean: float
    buffering_mean: float
    buffering_total: float
    end_to_end_mean: float
    end_to_end_p95: float
    control_messages: int
    control_bytes: int
    tag_bytes_per_message: float
    reordered_arrivals: int

    def as_row(self) -> Tuple:
        """The profile formatted for table rendering (matches HEADERS)."""
        return (
            self.name,
            self.messages,
            "%.2f" % self.inhibition_mean,
            "%.2f" % self.network_mean,
            "%.2f" % self.buffering_mean,
            "%.2f" % self.end_to_end_mean,
            "%.2f" % self.end_to_end_p95,
            self.control_messages,
            self.control_bytes,
            "%.1f" % self.tag_bytes_per_message,
            self.reordered_arrivals,
            self.undelivered,
        )

    HEADERS = (
        "protocol",
        "msgs",
        "inhibit",
        "network",
        "buffer",
        "invoke->r",
        "p95",
        "ctrl",
        "ctrlB",
        "tagB/msg",
        "reordered",
        "stuck",
    )


def profile_protocol(
    name: str,
    factory: Callable[[int, int], object],
    workload: Workload,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    fifo_channels: bool = False,
) -> ProtocolProfile:
    """Run one instrumented simulation and reduce it to a profile."""
    bus = Bus()
    recorder = MetricsRecorder(bus)
    watchdog = Watchdog(bus)
    result = run_simulation(
        factory,
        workload,
        seed=seed,
        latency=latency,
        fifo_channels=fifo_channels,
        bus=bus,
    )
    stats = result.stats
    phases = recorder.registry
    inhibition = phases.histogram("latency.inhibition")
    network = phases.histogram("latency.network")
    buffering = phases.histogram("latency.buffering")
    return ProtocolProfile(
        name=name,
        messages=int(phases.counter("messages.invoked").value),
        delivered=stats.deliveries,
        undelivered=len(watchdog.stuck(protocols=result.protocols)),
        inhibition_mean=inhibition.mean,
        inhibition_total=inhibition.total,
        network_mean=network.mean,
        buffering_mean=buffering.mean,
        buffering_total=buffering.total,
        end_to_end_mean=stats.mean_end_to_end_latency,
        end_to_end_p95=stats.registry.histogram("latency.end_to_end").percentile(95),
        control_messages=stats.control_messages,
        control_bytes=stats.control_bytes,
        tag_bytes_per_message=stats.mean_tag_bytes,
        reordered_arrivals=int(phases.counter("channel.reordered").value),
    )


def profile_protocols(
    entries: Sequence[Tuple[str, Callable[[int, int], object]]],
    workload: Workload,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    fifo_channels: bool = False,
) -> List[ProtocolProfile]:
    """Profile each ``(name, factory)`` on the same workload and seed."""
    return [
        profile_protocol(
            name,
            factory,
            workload,
            seed=seed,
            latency=latency,
            fifo_channels=fifo_channels,
        )
        for name, factory in entries
    ]


def render_profiles(profiles: Sequence[ProtocolProfile]) -> str:
    """The profiles as a monospace comparison table."""
    rows = [profile.as_row() for profile in profiles]
    columns = list(zip(ProtocolProfile.HEADERS, *rows))
    widths = [max(len(str(cell)) for cell in column) for column in columns]

    def format_row(cells) -> str:
        return "  ".join(
            str(cell).ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    lines = [
        format_row(ProtocolProfile.HEADERS),
        format_row(["-" * width for width in widths]),
    ]
    lines.extend(format_row(row) for row in rows)
    return "\n".join(lines)
