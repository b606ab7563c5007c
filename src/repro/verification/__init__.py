"""Checking recorded runs against specifications."""

from repro.verification.checker import (
    CheckResult,
    Violation,
    check_run,
    check_simulation,
)
from repro.verification.harness import (
    ConformanceReport,
    CostRow,
    assert_implements,
    check_conformance,
    cost_study,
)

__all__ = [
    "CheckResult",
    "Violation",
    "check_run",
    "check_simulation",
    "ConformanceReport",
    "check_conformance",
    "assert_implements",
    "CostRow",
    "cost_study",
]
