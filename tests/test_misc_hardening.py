"""Edge cases across modules: guard notes, livelock guard, CLI families,
documentation consistency."""

import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestGroupGuardClassifierNote:
    def test_classify_reads_group_guards_without_a_warning(self):
        """Group guards are part of the one predicate graph: the verdict
        is the multicast one and no note sends the caller elsewhere."""
        from repro.broadcast import TOTAL_ORDER_VIOLATION
        from repro.core.classifier import ProtocolClass, classify

        verdict = classify(TOTAL_ORDER_VIOLATION)
        assert verdict.protocol_class is ProtocolClass.GENERAL
        assert verdict.min_order == 2
        assert not any("group guards" in note for note in verdict.notes)


class TestLivelockGuard:
    def test_runner_aborts_runaway_protocols(self):
        from repro.events import Message
        from repro.protocols.base import Protocol, make_factory
        from repro.simulation import FixedLatency, random_traffic, run_simulation

        class PingForever(Protocol):
            name = "runaway"

            def on_invoke(self, ctx, message):
                ctx.release(message)

            def on_user_message(self, ctx, message, tag):
                ctx.deliver(message)
                # Pathological: endless control chatter.
                ctx.send_control(message.sender, ("echo",))

            def on_control(self, ctx, src, payload):
                ctx.send_control(src, payload)

        with pytest.raises(RuntimeError, match="livelock"):
            run_simulation(
                make_factory(PingForever),
                random_traffic(2, 2, seed=0),
                latency=FixedLatency(1.0),
                max_events=2000,
            )


class TestCliFamilySimulate:
    def test_simulate_family_spec_by_name(self, capsys):
        from repro.cli import main

        code = main(
            ["simulate", "logically-synchronous", "--messages", "10", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out
        assert "control messages" in out or "control" in out


class TestDocsConsistency:
    """The narrative docs must reference real code and real tests."""

    def _referenced(self, filename, pattern):
        with open(os.path.join(REPO, filename)) as handle:
            return set(re.findall(pattern, handle.read()))

    def test_theory_module_references_resolve(self):
        import importlib

        modules = self._referenced("THEORY.md", r"`(repro(?:\.\w+)+)`")
        for dotted in sorted(modules):
            parts = dotted.split(".")
            # Trim trailing attribute names until the module imports.
            for cut in range(len(parts), 0, -1):
                try:
                    module = importlib.import_module(".".join(parts[:cut]))
                except ImportError:
                    continue
                remainder = parts[cut:]
                obj = module
                for attribute in remainder:
                    assert hasattr(obj, attribute), (dotted, attribute)
                    obj = getattr(obj, attribute)
                break
            else:
                pytest.fail("unresolvable reference %s" % dotted)

    def test_theory_test_file_references_exist(self):
        files = self._referenced("THEORY.md", r"`(tests/[\w/]+\.py)")
        assert files
        for path in files:
            assert os.path.exists(os.path.join(REPO, path)), path

    def test_design_bench_targets_exist(self):
        files = self._referenced("DESIGN.md", r"`(benchmarks/[\w/]+\.py)`")
        assert files
        for path in files:
            assert os.path.exists(os.path.join(REPO, path)), path

    def test_experiments_artifacts_exist(self):
        files = self._referenced("EXPERIMENTS.md", r"`(?:benchmarks/results/)?(\w+\.txt)`")
        assert files
        for name in files:
            assert os.path.exists(
                os.path.join(REPO, "benchmarks", "results", name)
            ), name
