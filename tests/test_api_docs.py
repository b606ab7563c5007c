"""docs/API.md must match the live public surface."""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestApiDocs:
    def test_reference_is_fresh(self):
        result = subprocess.run(
            [sys.executable, os.path.join(REPO, "tools", "gen_api_docs.py"), "--check"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_reference_covers_key_symbols(self):
        with open(os.path.join(REPO, "docs", "API.md")) as handle:
            text = handle.read()
        for symbol in (
            "classify",
            "ForbiddenPredicate",
            "UserRun",
            "SystemRun",
            "check_conformance",
            "run_snapshot_experiment",
            "monitor_trace",
        ):
            assert "`%s`" % symbol in text, symbol
