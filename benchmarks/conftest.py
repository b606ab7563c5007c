"""Shared helpers for the experiment benchmarks.

Every experiment writes its regenerated table to
``benchmarks/results/<experiment>.txt`` so the artifacts survive the
pytest run (EXPERIMENTS.md references them), and also prints it when
pytest runs with ``-s``.  Tables are rendered by
:func:`repro.core.report.format_table`, re-exported here.
"""

from __future__ import annotations

import os
import sys

# The program (src/) is importable even where pytest runs without
# PYTHONPATH, as `pytest benchmarks/perf` does (this file loads first).
SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src"))
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.core.report import format_table  # noqa: E402,F401  (re-exported)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s.txt" % name)
    with open(path, "w") as handle:
        handle.write(text)
    print("\n" + text)
    return path
