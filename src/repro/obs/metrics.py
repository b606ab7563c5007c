"""Metrics registry: counters, gauges and histograms over probe events.

The registry is a flat namespace of named metrics, and each name has one
writer.  A :class:`~repro.simulation.host.ProtocolHost` writes what it
does itself, and every phase of a message's life it can read off its
trace, into its :class:`~repro.simulation.trace.SimulationStats`
registry; the :class:`MetricsRecorder` writes what other components
report on the bus:

===================  =====================================================
writer               names
===================  =====================================================
``ProtocolHost``     ``messages.invoked``, ``messages.inhibited``,
                     ``messages.user``, ``messages.delivered``,
                     ``messages.delayed``, ``tag.bytes``,
                     ``tag.bytes.per_message``, ``net.control.messages``,
                     ``net.control.bytes``, ``latency.inhibition``,
                     ``latency.network``, ``latency.buffering``,
                     ``latency.delivery``, ``latency.end_to_end``,
                     ``buffer.occupancy``, ``channel.reordered``,
                     ``retx.messages``, ``retx.dups``
``MetricsRecorder``  ``fault.*``, ``retx.acks``, ``link.*``,
                     ``net.shed.frames``, ``net.backpressure.*``
===================  =====================================================

The two sets are disjoint, so a :class:`~repro.net.host.NetHost` runs its
recorder on its stats registry and one exposition carries both.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional

from repro.obs.bus import Bus, ProbeEvent


class Counter:
    """A monotonically increasing count, with an optional label breakdown."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0
        self.by_label: Dict[str, float] = {}

    def inc(self, amount: float = 1.0, label: Optional[str] = None) -> None:
        """Add ``amount`` (to the total, and to ``label``'s bucket if given)."""
        if amount < 0:
            raise ValueError("counters only go up (amount=%r)" % amount)
        self.value += amount
        if label is not None:
            self.by_label[label] = self.by_label.get(label, 0.0) + amount

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of the counter."""
        data: Dict[str, Any] = {"kind": self.kind, "value": self.value}
        if self.by_label:
            data["by_label"] = dict(sorted(self.by_label.items()))
        return data


class Gauge:
    """An instantaneous value whose extremes are tracked, per label."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0
        self.max_seen = 0.0
        self.by_label: Dict[str, float] = {}
        self.max_by_label: Dict[str, float] = {}

    def set(self, value: float, label: Optional[str] = None) -> None:
        """Record the current value (for the total, or for one label)."""
        if label is None:
            self.value = value
            self.max_seen = max(self.max_seen, value)
        else:
            self.by_label[label] = value
            self.max_by_label[label] = max(self.max_by_label.get(label, value), value)

    def add(self, delta: float, label: Optional[str] = None) -> None:
        """Shift the current value by ``delta``."""
        current = self.by_label.get(label, 0.0) if label is not None else self.value
        self.set(current + delta, label=label)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of the gauge."""
        data: Dict[str, Any] = {
            "kind": self.kind,
            "value": self.value,
            "max": self.max_seen,
        }
        if self.by_label:
            data["by_label"] = dict(sorted(self.by_label.items()))
            data["max_by_label"] = dict(sorted(self.max_by_label.items()))
        return data


#: Exact observations a histogram retains before switching to log
#: buckets.  Below the limit percentiles are nearest-rank exact; above it
#: memory stays O(buckets) and percentiles carry the bucket's relative
#: error, so soak runs no longer grow linearly with delivered messages.
SAMPLE_LIMIT = 4096

#: Log-bucket resolution: buckets per power of two.  Eight sub-buckets
#: per octave bound the representative-value error to 2^(1/16)-1 (~4.4%).
BUCKETS_PER_OCTAVE = 8


class Histogram:
    """A memory-bounded distribution of observed values.

    The first :data:`SAMPLE_LIMIT` observations are kept exactly (so
    short runs report nearest-rank percentiles bit-identical to the
    pre-bounded implementation); past the limit every observation folds
    into HDR-style log buckets (:data:`BUCKETS_PER_OCTAVE` per octave)
    and percentiles are bucket midpoints clamped to the observed range.
    ``count``/``total``/``mean``/``min``/``max`` are exact always.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: List[float] = []
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        #: log-bucket index -> count (positive values only).
        self._buckets: Dict[int, int] = {}
        #: observations <= 0 (wall-clock subtraction can graze zero).
        self._zero = 0
        self._exact = True

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._count += 1
        self._total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if self._exact:
            if len(self._values) < SAMPLE_LIMIT:
                self._values.append(value)
                return
            # Overflow: fold the exact head into buckets once, then
            # bucket everything from here on (the head is retained for
            # ``values()``, but percentiles become bucket-based).
            self._exact = False
            for retained in self._values:
                self._bucket_add(retained)
        self._bucket_add(value)

    def _bucket_add(self, value: float, count: int = 1) -> None:
        if value <= 0.0:
            self._zero += count
        else:
            index = math.floor(math.log(value, 2.0) * BUCKETS_PER_OCTAVE)
            self._buckets[index] = self._buckets.get(index, 0) + count

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of observations."""
        return self._total

    @property
    def mean(self) -> float:
        """Arithmetic mean (0 when empty)."""
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (0 when empty)."""
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        """Largest observation (0 when empty)."""
        return self._max if self._max is not None else 0.0

    def percentile(self, p: float) -> float:
        """The nearest-rank ``p``-th percentile (0 when empty).

        Exact while under the sample limit; a clamped log-bucket midpoint
        afterwards.
        """
        if not self._count:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100], got %r" % p)
        rank = max(1, math.ceil(p / 100.0 * self._count))
        if self._exact:
            ordered = sorted(self._values)
            return ordered[rank - 1]
        seen = self._zero
        if rank <= seen:
            return self.min
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank <= seen:
                midpoint = 2.0 ** ((index + 0.5) / BUCKETS_PER_OCTAVE)
                return min(max(midpoint, self.min), self.max)
        return self.max

    def values(self) -> List[float]:
        """The retained observations, in recording order.

        Complete while under the sample limit; afterwards only the exact
        head is retained (use :meth:`percentile` for the tail).
        """
        return list(self._values)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        if other._count == 0:
            return
        combined = self._count + other._count
        self._total += other._total
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max
        if self._exact and other._exact and combined <= SAMPLE_LIMIT:
            self._values.extend(other._values)
            self._count = combined
            return
        if self._exact:
            self._exact = False
            for retained in self._values:
                self._bucket_add(retained)
        if other._exact:
            for value in other._values:
                self._bucket_add(value)
        else:
            self._zero += other._zero
            for index, count in other._buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + count
        self._count = combined

    def to_wire(self) -> Dict[str, Any]:
        """A JSON-safe encoding (see :meth:`from_wire`); deterministic."""
        body: Dict[str, Any] = {
            "count": self._count,
            "total": self._total,
            "min": self.min,
            "max": self.max,
        }
        if self._exact:
            body["samples"] = list(self._values)
        else:
            body["buckets"] = [
                [index, self._buckets[index]] for index in sorted(self._buckets)
            ]
            body["zero"] = self._zero
        return body

    @classmethod
    def from_wire(
        cls, body: Dict[str, Any], name: str = "h", help: str = ""
    ) -> "Histogram":
        """Rebuild a histogram encoded by :meth:`to_wire`."""
        histogram = cls(name, help)
        if "samples" in body:
            for value in body["samples"]:
                histogram.observe(float(value))
            return histogram
        histogram._exact = False
        histogram._count = int(body.get("count", 0))
        histogram._total = float(body.get("total", 0.0))
        if histogram._count:
            histogram._min = float(body.get("min", 0.0))
            histogram._max = float(body.get("max", 0.0))
        histogram._zero = int(body.get("zero", 0))
        for index, count in body.get("buckets", []):
            histogram._buckets[int(index)] = int(count)
        return histogram

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready summary of the distribution."""
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """A named, typed collection of metrics (create-or-get semantics)."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, cls, name: str, help: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    "metric %r already registered as %s" % (name, existing.kind)
                )
            return existing
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter named ``name``, created on first use."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge named ``name``, created on first use."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        """The histogram named ``name``, created on first use."""
        return self._get_or_create(Histogram, name, help)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str):
        """The metric named ``name``, or ``None``."""
        return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of every metric, keyed by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def to_json(self, indent: int = 2) -> str:
        """The snapshot serialized as JSON text."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


class MetricsRecorder:
    """Subscribes a registry to a bus and keeps the metrics only a bus sees.

    A message's life -- its four events, the three phases between them,
    buffer occupancy, channel reordering -- is the host's to count, from
    its own trace (see the module table); the recorder subscribes to no
    ``host.*`` probe.  It keeps what other components report (names are
    part of the observability contract):

    - ``fault.drops`` (counter, labelled by drop reason: ``random`` /
      ``scripted`` / ``crash``), ``fault.dups``, ``fault.partition_drops``
      (per-channel labels), ``fault.spikes``, ``fault.crashes`` /
      ``fault.restarts`` (per-process labels),
    - ``retx.acks`` -- acknowledgments the ARQ sublayer processed,
    - ``link.transitions`` (counter, labelled by the new detector state
      ``up`` / ``suspect`` / ``down``), ``link.redials`` / ``link.giveups``
      (counters, per-process labels) -- the failure detector and the
      reconnect supervisor at work,
    - ``net.shed.frames`` (counter, labelled ``user`` / ``control``:
      frames dropped from a full send queue while a link was down),
    - ``net.backpressure.transitions`` (counter, labelled ``high`` /
      ``low``) and ``net.backpressure.pending`` (gauge, per-process: the
      pending depth at the last watermark crossing).

    It holds no per-message state.
    """

    def __init__(self, bus: Bus, registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        self._unsubscribers = [
            bus.subscribe("fault.drop", self._on_fault_drop),
            bus.subscribe("fault.dup", self._on_fault_dup),
            bus.subscribe("fault.partition", self._on_fault_partition),
            bus.subscribe("fault.spike", self._on_fault_spike),
            bus.subscribe("crash", self._on_crash),
            bus.subscribe("restart", self._on_restart),
            bus.subscribe("retx.ack", self._on_retx_ack),
            bus.subscribe("link.up", self._on_link_transition),
            bus.subscribe("link.suspect", self._on_link_transition),
            bus.subscribe("link.down", self._on_link_transition),
            bus.subscribe("link.redial", self._on_link_redial),
            bus.subscribe("link.giveup", self._on_link_giveup),
            bus.subscribe("net.shed", self._on_net_shed),
            bus.subscribe("net.backpressure", self._on_backpressure),
        ]

    def close(self) -> None:
        """Detach from the bus (the registry keeps its values)."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers = []

    # Probe handlers -------------------------------------------------------

    def _on_fault_drop(self, event: ProbeEvent) -> None:
        self.registry.counter(
            "fault.drops", "packets destroyed by the fault plan"
        ).inc(label=event.data.get("reason") or "random")

    def _on_fault_dup(self, event: ProbeEvent) -> None:
        self.registry.counter("fault.dups", "packets duplicated in flight").inc()

    def _on_fault_partition(self, event: ProbeEvent) -> None:
        self.registry.counter(
            "fault.partition_drops", "packets severed by a partition"
        ).inc(label="p%d->p%d" % (event.data["src"], event.data["dst"]))

    def _on_fault_spike(self, event: ProbeEvent) -> None:
        self.registry.counter("fault.spikes", "packets hit by a delay spike").inc()

    def _on_crash(self, event: ProbeEvent) -> None:
        self.registry.counter("fault.crashes", "process crash events").inc(
            label="p%d" % event.data["process"]
        )

    def _on_restart(self, event: ProbeEvent) -> None:
        self.registry.counter("fault.restarts", "process restart events").inc(
            label="p%d" % event.data["process"]
        )

    def _on_retx_ack(self, event: ProbeEvent) -> None:
        self.registry.counter("retx.acks", "cumulative acks observed").inc()

    def _on_link_transition(self, event: ProbeEvent) -> None:
        state = event.probe.rsplit(".", 1)[1]  # link.up -> up
        self.registry.counter(
            "link.transitions", "failure-detector link state changes"
        ).inc(label=state)

    def _on_link_redial(self, event: ProbeEvent) -> None:
        self.registry.counter(
            "link.redials", "supervised reconnects that restored a link"
        ).inc(label="p%d" % event.data["process"])

    def _on_link_giveup(self, event: ProbeEvent) -> None:
        self.registry.counter(
            "link.giveups", "reconnect supervisors past their deadline"
        ).inc(label="p%d" % event.data["process"])

    def _on_net_shed(self, event: ProbeEvent) -> None:
        # Two shapes share the probe: the transport's shed (has "kind")
        # and the host's flush-on-restore notice (has "flushed").
        kind = event.data.get("kind")
        if kind is not None:
            self.registry.counter(
                "net.shed.frames", "frames dropped from a full send queue"
            ).inc(label=kind)

    def _on_backpressure(self, event: ProbeEvent) -> None:
        state = event.data["state"]
        self.registry.counter(
            "net.backpressure.transitions", "send-watermark crossings"
        ).inc(label=state)
        self.registry.gauge(
            "net.backpressure.pending", "pending depth at the last crossing"
        ).set(event.data.get("pending", 0), label="p%d" % event.data["process"])
