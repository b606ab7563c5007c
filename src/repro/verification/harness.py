"""Conformance harness: does a protocol implement a specification?

The paper defines implementation as safety (every produced run is in the
specification) plus liveness (everything requested is delivered).  The
harness sweeps a protocol over workload/seed/latency grids and reports
both obligations, along with the costs that betray the protocol's class
(control messages, tag bytes).

:func:`cost_study` is the same sweep read the other way: one
:class:`CostRow` per protocol, with where each message's latency went, for
``repro compare``, the E6 benchmark and ``examples/protocol_comparison.py``.

>>> from repro.verification.harness import assert_implements
>>> assert_implements(my_factory, CAUSAL_ORDERING)   # raises on failure
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.predicates.ast import ForbiddenPredicate
from repro.predicates.spec import Specification
from repro.runs.metrics import run_metrics
from repro.simulation.network import (
    AlternatingLatency,
    LatencyModel,
    UniformLatency,
)
from repro.simulation.runner import run_simulation
from repro.simulation.workloads import (
    Workload,
    broadcast_storm,
    client_server,
    random_traffic,
)
from repro.verification.checker import CheckResult, check_simulation


def default_workloads(seed: int) -> List[Workload]:
    """The standard stress grid: random, bursty and structured traffic."""
    return [
        random_traffic(4, 30, seed=seed),
        random_traffic(3, 30, seed=seed, color_every=6),
        broadcast_storm(4, rounds=5, seed=seed),
        client_server(3, 3, seed=seed),
    ]


def default_latencies() -> List[LatencyModel]:
    return [
        UniformLatency(low=1.0, high=40.0),
        AlternatingLatency(fast=1.0, slow=50.0),
    ]


@dataclass
class ConformanceReport:
    """Aggregate of a conformance sweep."""

    specification_name: str
    runs: int = 0
    safe_runs: int = 0
    live_runs: int = 0
    control_messages: int = 0
    tag_bytes_total: float = 0.0
    user_messages: int = 0
    failures: List[CheckResult] = field(default_factory=list)

    @property
    def conforms(self) -> bool:
        return self.runs > 0 and self.safe_runs == self.live_runs == self.runs

    @property
    def uses_control_messages(self) -> bool:
        return self.control_messages > 0

    @property
    def mean_tag_bytes(self) -> float:
        if not self.user_messages:
            return 0.0
        return self.tag_bytes_total / self.user_messages

    def summary(self) -> str:
        """A short human-readable report block."""
        lines = [
            "spec:      %s" % self.specification_name,
            "runs:      %d (safe %d, live %d)"
            % (self.runs, self.safe_runs, self.live_runs),
            "overhead:  %d control messages, %.1f tag bytes/message"
            % (self.control_messages, self.mean_tag_bytes),
            "verdict:   %s" % ("CONFORMS" if self.conforms else "FAILS"),
        ]
        for failure in self.failures[:3]:
            lines.append("  failure: %s" % failure.summary())
        return "\n".join(lines)


def check_conformance(
    protocol_factory: Callable[[int, int], object],
    spec: Union[Specification, ForbiddenPredicate],
    seeds: Sequence[int] = range(5),
    workloads: Optional[Callable[[int], List[Workload]]] = None,
    latencies: Optional[Sequence[LatencyModel]] = None,
    max_failures: int = 10,
) -> ConformanceReport:
    """Sweep the protocol and tally safety/liveness against ``spec``."""
    specification = (
        spec
        if isinstance(spec, Specification)
        else Specification(name=spec.name or "anonymous", predicates=(spec,))
    )
    make_workloads = workloads or default_workloads
    latency_models = list(latencies or default_latencies())
    report = ConformanceReport(specification_name=specification.name)
    for seed in seeds:
        for workload in make_workloads(seed):
            for latency in latency_models:
                result = run_simulation(
                    protocol_factory, workload, seed=seed, latency=latency
                )
                outcome = check_simulation(result, specification)
                report.runs += 1
                report.safe_runs += outcome.safe
                report.live_runs += outcome.live
                report.control_messages += result.stats.control_messages
                report.tag_bytes_total += result.stats.tag_bytes_total
                report.user_messages += result.stats.user_messages
                if not outcome.ok and len(report.failures) < max_failures:
                    report.failures.append(outcome)
    return report


def assert_implements(
    protocol_factory: Callable[[int, int], object],
    spec: Union[Specification, ForbiddenPredicate],
    **kwargs,
) -> ConformanceReport:
    """Raise ``AssertionError`` (with the report) unless the sweep passes."""
    report = check_conformance(protocol_factory, spec, **kwargs)
    if not report.conforms:
        raise AssertionError("protocol does not implement spec:\n" + report.summary())
    return report


@dataclass(frozen=True)
class CostRow:
    """What one protocol paid over a :func:`cost_study`.

    A message's latency splits into the paper's three phases: send
    inhibition (``x.s* -> x.s``), network transit (``x.s -> x.r*``) and
    delivery buffering (``x.r* -> x.r``).  Per-run and per-message figures
    are the mean over runs of each run's own figure.
    """

    name: str
    runs: int
    spec_ok: bool
    violations: int  # summed over runs, as are messages and undelivered
    messages: int
    undelivered: int
    control_messages: float  # per run, as are the next three
    control_bytes: float
    delayed_deliveries: float
    reordered_arrivals: float
    tag_bytes: float  # per message, as are the latencies
    inhibition: float
    network: float
    buffering: float
    send_to_deliver: float
    end_to_end: float
    end_to_end_p95: float
    concurrency: float  # the run's concurrent share of event pairs

    HEADERS = (
        "protocol", "spec ok", "violations", "msgs", "stuck", "inhibit",
        "network", "buffer", "invoke->r", "p95", "ctrl/run", "ctrlB/run",
        "tagB/msg", "delayed/run", "reordered/run", "concurrency",
    )

    def cells(self) -> Tuple:
        """The row formatted for :func:`~repro.core.report.format_table`
        (matches ``HEADERS``)."""
        return (
            self.name,
            "yes" if self.spec_ok else "NO",
            self.violations,
            self.messages,
            self.undelivered,
            *("%.2f" % value for value in (
                self.inhibition, self.network, self.buffering,
                self.end_to_end, self.end_to_end_p95,
            )),
            "%.0f" % self.control_messages,
            "%.0f" % self.control_bytes,
            "%.1f" % self.tag_bytes,
            "%.1f" % self.delayed_deliveries,
            "%.0f" % self.reordered_arrivals,
            "%.2f" % self.concurrency,
        )


def cost_study(
    entries: Sequence[Tuple[str, Callable[[int, int], object],
                            Union[Specification, ForbiddenPredicate]]],
    workload: Callable[[int], Workload],
    seeds: Sequence[int] = range(5),
    latency: Optional[LatencyModel] = None,
) -> List[CostRow]:
    """One :class:`CostRow` per ``(name, factory, spec)``, in entry order.

    Run ``k`` simulates ``workload(k)`` under network seed ``k`` and
    checks the result against ``spec``.
    """
    latency = latency or UniformLatency(low=1.0, high=40.0)
    grid = [(seed, workload(seed)) for seed in seeds]
    if not grid:
        raise ValueError("a cost study needs at least one seed")
    rows = []
    for name, factory, spec in entries:
        ok, violations, messages, undelivered = True, 0, 0, 0
        per_run = []
        for seed, load in grid:
            result = run_simulation(factory, load, seed=seed, latency=latency)
            outcome = check_simulation(result, spec)
            stats, registry = result.stats, result.stats.registry
            ok = ok and outcome.ok
            violations += len(outcome.violations)
            messages += stats.invocations
            undelivered += len(result.undelivered)
            per_run.append((
                stats.control_messages,
                stats.control_bytes,
                stats.delayed_deliveries,
                registry.counter("channel.reordered").value,
                stats.mean_tag_bytes,
                registry.histogram("latency.inhibition").mean,
                registry.histogram("latency.network").mean,
                registry.histogram("latency.buffering").mean,
                stats.mean_delivery_latency,
                stats.mean_end_to_end_latency,
                registry.histogram("latency.end_to_end").percentile(95),
                run_metrics(result.user_run).concurrency_ratio,
            ))
        means = [sum(column) / len(grid) for column in zip(*per_run)]
        rows.append(CostRow(
            name, len(grid), ok, violations, messages, undelivered, *means
        ))
    return rows
