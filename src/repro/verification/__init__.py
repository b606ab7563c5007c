"""Checking recorded runs against specifications."""

from repro.verification.checker import (
    CheckResult,
    Violation,
    check_run,
    check_simulation,
)
from repro.verification.harness import (
    ConformanceReport,
    assert_implements,
    check_conformance,
)
from repro.verification.compare import ProtocolRow, compare_protocols

__all__ = [
    "CheckResult",
    "Violation",
    "check_run",
    "check_simulation",
    "ConformanceReport",
    "check_conformance",
    "assert_implements",
    "ProtocolRow",
    "compare_protocols",
]
