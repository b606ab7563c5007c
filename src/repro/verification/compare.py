"""Side-by-side protocol comparison (the E6-style study as library code).

``compare_protocols`` runs every protocol over a shared workload grid and
returns one :class:`ProtocolRow` per protocol: specification outcome,
control/tag overheads, latency, and run-shape metrics (concurrency lost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.predicates.ast import ForbiddenPredicate
from repro.predicates.spec import Specification
from repro.runs.metrics import run_metrics
from repro.simulation.network import LatencyModel, UniformLatency
from repro.simulation.runner import run_simulation
from repro.simulation.workloads import Workload
from repro.verification.checker import check_simulation


@dataclass(frozen=True)
class ProtocolRow:
    """Aggregates for one protocol across the grid."""

    name: str
    runs: int
    spec_ok: bool
    violations: int
    control_messages_per_run: float
    tag_bytes_per_message: float
    delayed_deliveries_per_run: float
    mean_send_latency: float
    mean_end_to_end_latency: float
    mean_concurrency_ratio: float

    def as_tuple(self) -> Tuple:
        """The row formatted for table rendering (matches HEADERS)."""
        return (
            self.name,
            "yes" if self.spec_ok else "NO",
            self.violations,
            "%.0f" % self.control_messages_per_run,
            "%.0f" % self.tag_bytes_per_message,
            "%.1f" % self.delayed_deliveries_per_run,
            "%.1f" % self.mean_send_latency,
            "%.1f" % self.mean_end_to_end_latency,
            "%.2f" % self.mean_concurrency_ratio,
        )

    HEADERS = (
        "protocol",
        "spec ok",
        "violations",
        "ctrl/run",
        "tagB/msg",
        "delayed/run",
        "s->r",
        "invoke->r",
        "concurrency",
    )


def compare_protocols(
    entries: Sequence[Tuple[str, Callable[[int, int], object],
                            Union[Specification, ForbiddenPredicate]]],
    workloads: Sequence[Workload],
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
) -> List[ProtocolRow]:
    """Run each ``(name, factory, spec)`` over all ``workloads``."""
    latency = latency or UniformLatency(low=1.0, high=40.0)
    rows = []
    for name, factory, spec in entries:
        runs = violations = control = delayed = 0
        tag_bytes = user_messages = 0
        send_latency = e2e_latency = concurrency = 0.0
        ok = True
        for workload in workloads:
            result = run_simulation(factory, workload, seed=seed, latency=latency)
            outcome = check_simulation(result, spec)
            runs += 1
            ok = ok and outcome.ok
            violations += len(outcome.violations)
            control += result.stats.control_messages
            delayed += result.stats.delayed_deliveries
            tag_bytes += result.stats.tag_bytes_total
            user_messages += result.stats.user_messages
            send_latency += result.stats.mean_delivery_latency
            e2e_latency += result.stats.mean_end_to_end_latency
            concurrency += run_metrics(result.user_run).concurrency_ratio
        rows.append(
            ProtocolRow(
                name=name,
                runs=runs,
                spec_ok=ok,
                violations=violations,
                control_messages_per_run=control / runs,
                tag_bytes_per_message=(
                    tag_bytes / user_messages if user_messages else 0.0
                ),
                delayed_deliveries_per_run=delayed / runs,
                mean_send_latency=send_latency / runs,
                mean_end_to_end_latency=e2e_latency / runs,
                mean_concurrency_ratio=concurrency / runs,
            )
        )
    return rows
