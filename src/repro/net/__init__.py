"""repro.net: the real-network asyncio runtime.

Serves the **unmodified** protocol catalogue over TCP: the simulation
stack's :class:`~repro.simulation.network.Network`,
:class:`~repro.simulation.host.ProtocolHost` and fault layer run as-is
over a wall-clock scheduler (:class:`~repro.net.transport.WallClock`)
and a socket transport (:class:`~repro.net.transport.AsyncTransport`),
with a live observer feeding delivery streams into the incremental
:class:`~repro.verification.engine.SpecMonitor`.

Entry points: ``repro serve`` / ``repro load`` on the command line,
:func:`~repro.net.cluster.run_cluster` from code.
"""

from repro.net.codec import (
    CodecError,
    Frame,
    FrameDecoder,
    FrameOversized,
    FrameTruncated,
    MalformedFrame,
    UnknownFrameKind,
    UnknownVersion,
    decode_frame,
    encode_frame,
)
from repro.net.cluster import (
    LiveObserver,
    LoadGenerator,
    NetRunReport,
    free_ports,
    run_cluster,
    run_cluster_sync,
)
from repro.net.collector import (
    ClusterCollector,
    HostPull,
    OffsetSample,
    estimate_offset,
    render_top,
    stitch_flight_dumps,
)
from repro.net.host import NetHost, NetProtocolHost
from repro.net.resilience import (
    LinkMonitor,
    PhiAccrualDetector,
    ReconnectPolicy,
    ResilienceConfig,
)
from repro.net.transport import DEFAULT_TIME_SCALE, AsyncTransport, WallClock

__all__ = [
    "AsyncTransport",
    "ClusterCollector",
    "CodecError",
    "DEFAULT_TIME_SCALE",
    "Frame",
    "FrameDecoder",
    "FrameOversized",
    "FrameTruncated",
    "HostPull",
    "LinkMonitor",
    "LiveObserver",
    "LoadGenerator",
    "OffsetSample",
    "MalformedFrame",
    "NetHost",
    "NetProtocolHost",
    "NetRunReport",
    "PhiAccrualDetector",
    "ReconnectPolicy",
    "ResilienceConfig",
    "UnknownFrameKind",
    "UnknownVersion",
    "WallClock",
    "decode_frame",
    "encode_frame",
    "estimate_offset",
    "free_ports",
    "render_top",
    "run_cluster",
    "run_cluster_sync",
    "stitch_flight_dumps",
]
