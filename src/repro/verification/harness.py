"""Conformance harness: does a protocol implement a specification?

The paper defines implementation as safety (every produced run is in the
specification) plus liveness (everything requested is delivered).  The
harness sweeps a protocol over workload/seed/latency grids and reports
both obligations, along with the costs that betray the protocol's class
(control messages, tag bytes).

>>> from repro.verification.harness import assert_implements
>>> assert_implements(my_factory, CAUSAL_ORDERING)   # raises on failure
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from repro.predicates.ast import ForbiddenPredicate
from repro.predicates.spec import Specification
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
