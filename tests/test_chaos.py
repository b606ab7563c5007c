"""Chaos layer: seeded plans, the WAL cross-check, reports, a live run."""

import json
import os
import tempfile
from collections import Counter

import pytest

from repro.chaos import (
    ACTION_KINDS,
    ChaosAction,
    ChaosPlan,
    ChaosReport,
    run_chaos_sync,
    wal_cross_check,
)
from repro.chaos.harness import InlineHost, ProcHost, fast_resilience
from repro.cli import main
from repro.events import Message
from repro.net import codec
from repro.net.cluster import NetRunReport
from repro.obs.metrics import Histogram
from repro.protocols.registry import resolve
from repro.protocols.reliable import ReliableProtocol
from repro.wal import EVENT, SegmentWriter, content_id, read_log
from repro.wal.records import INPUT, META, WalRecord, invoke_record


class TestChaosAction:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosAction(at=0.0, kind="meteor", target=0, duration=1.0)
        with pytest.raises(ValueError, match="duration"):
            ChaosAction(at=0.0, kind="kill", target=0, duration=0.0)
        with pytest.raises(ValueError, match="src != target"):
            ChaosAction(at=0.0, kind="sever", target=1, duration=1.0, src=1)

    def test_describe_names_the_link_for_link_faults(self):
        cut = ChaosAction(at=1.0, kind="sever", target=2, duration=0.5, src=0)
        assert "P0->P2" in cut.describe()
        isolate = ChaosAction(at=1.0, kind="blackhole", target=2, duration=0.5)
        assert "*->P2" in isolate.describe()
        kill = ChaosAction(at=1.0, kind="kill", target=2, duration=0.5)
        assert "kill P2" in kill.describe()

    def test_json_round_trip(self):
        action = ChaosAction(
            at=0.25, kind="blackhole", target=1, duration=0.75, src=2
        )
        assert ChaosAction.from_json(action.to_json()) == action
        bare = ChaosAction(at=0.25, kind="kill", target=1, duration=0.75)
        body = bare.to_json()
        assert "src" not in body
        assert ChaosAction.from_json(body) == bare


class TestChaosPlan:
    def test_same_seed_same_plan(self):
        first = ChaosPlan.generate(7, 3, 5.0)
        second = ChaosPlan.generate(7, 3, 5.0)
        assert first == second
        assert first.actions  # a 5s window fits at least one action

    def test_different_seeds_differ(self):
        plans = {ChaosPlan.generate(seed, 3, 5.0) for seed in range(8)}
        assert len(plans) > 1

    def test_actions_never_overlap(self):
        for seed in range(10):
            plan = ChaosPlan.generate(seed, 4, 6.0, n_actions=5)
            cursor = 0.0
            for action in plan.actions:
                assert action.at >= cursor
                cursor = action.ends_at
            assert plan.ends_at == cursor or not plan.actions

    def test_kind_filter_is_respected_and_validated(self):
        plan = ChaosPlan.generate(3, 3, 8.0, n_actions=6, kinds=("kill",))
        assert plan.actions
        assert all(action.kind == "kill" for action in plan.actions)
        with pytest.raises(ValueError, match="unknown chaos action kind"):
            ChaosPlan.generate(3, 3, 8.0, kinds=("kill", "asteroid"))
        with pytest.raises(ValueError, match="at least 2"):
            ChaosPlan.generate(3, 1, 8.0)

    def test_link_faults_draw_a_distinct_source(self):
        for seed in range(20):
            plan = ChaosPlan.generate(
                seed, 3, 8.0, n_actions=6, kinds=("sever", "blackhole")
            )
            for action in plan.actions:
                assert action.src is None or action.src != action.target

    def test_json_round_trip_survives_serialization(self):
        plan = ChaosPlan.generate(5, 3, 5.0)
        wire = json.loads(json.dumps(plan.to_json()))
        assert ChaosPlan.from_json(wire) == plan

    def test_every_generated_kind_is_catalogued(self):
        seen = set()
        for seed in range(40):
            plan = ChaosPlan.generate(seed, 3, 6.0, n_actions=4)
            seen.update(action.kind for action in plan.actions)
        assert seen <= set(ACTION_KINDS)
        assert {"kill", "sever", "blackhole"} <= seen


def _message(n, sender, receiver):
    return Message(
        id="m%d" % n, sender=sender, receiver=receiver, payload=("x", n)
    )


def _deliver_record(process, message):
    return WalRecord(
        kind=EVENT,
        body={
            "t": 1.0,
            "p": process,
            "k": "deliver",
            "m": codec.message_to_wire(message),
            "cid": content_id(message),
        },
    )


class TestWalCrossCheck:
    def _write(self, root, process, records):
        writer = SegmentWriter(os.path.join(root, "p%d" % process))
        for record in records:
            writer.append(record)
        writer.close()

    def test_clean_join_reports_no_loss(self):
        with tempfile.TemporaryDirectory() as root:
            delivered = _message(1, sender=0, receiver=1)
            self._write(root, 0, [invoke_record(0.5, 0, delivered)])
            self._write(root, 1, [_deliver_record(1, delivered)])
            acked, lost, double = wal_cross_check(root, 2)
            assert (acked, lost, double) == (1, [], [])

    def test_missing_delivery_is_a_loss(self):
        with tempfile.TemporaryDirectory() as root:
            delivered = _message(1, sender=0, receiver=1)
            vanished = _message(2, sender=0, receiver=1)
            self._write(
                root,
                0,
                [
                    invoke_record(0.5, 0, delivered),
                    invoke_record(0.6, 0, vanished),
                ],
            )
            self._write(root, 1, [_deliver_record(1, delivered)])
            acked, lost, double = wal_cross_check(root, 2)
            assert acked == 2
            assert lost == ["m2"]
            assert double == []

    def test_double_delivery_is_flagged(self):
        with tempfile.TemporaryDirectory() as root:
            message = _message(1, sender=0, receiver=1)
            self._write(root, 0, [invoke_record(0.5, 0, message)])
            self._write(
                root,
                1,
                [_deliver_record(1, message), _deliver_record(1, message)],
            )
            acked, lost, double = wal_cross_check(root, 2)
            assert (acked, lost, double) == (1, [], ["m1"])

    def test_delivery_at_the_wrong_process_does_not_count(self):
        with tempfile.TemporaryDirectory() as root:
            message = _message(1, sender=0, receiver=1)
            self._write(root, 0, [invoke_record(0.5, 0, message)])
            self._write(root, 2, [_deliver_record(2, message)])
            acked, lost, double = wal_cross_check(root, 3)
            assert (acked, lost, double) == (1, ["m1"], [])

    def test_absent_wal_directories_are_tolerated(self):
        with tempfile.TemporaryDirectory() as root:
            assert wal_cross_check(root, 3) == (0, [], [])


def _run(**overrides):
    base = dict(
        protocol="fifo",
        n_processes=3,
        offered=10,
        invoked=10,
        delivered=10,
        pending=0,
        load_seconds=1.0,
        elapsed=1.5,
        quiesced=True,
        latencies=Histogram("latency.delivery"),
        e2e_latencies=Histogram("latency.end_to_end"),
    )
    base.update(overrides)
    return NetRunReport(**base)


class TestChaosReport:
    def _report(self, **overrides):
        base = dict(
            run=_run(),
            seed=0,
            mode="inline",
            plan=ChaosPlan.generate(0, 3, 3.0).to_json(),
            links_up=True,
        )
        base.update(overrides)
        return ChaosReport(**base)

    def test_ok_requires_all_three_invariants(self):
        assert self._report().ok
        assert not self._report(run=_run(violation="fifo: m2 before m1")).ok
        assert not self._report(acked_lost=["m1"]).ok
        assert not self._report(double_delivered=["m1"]).ok
        assert not self._report(run=_run(quiesced=False)).ok
        assert not self._report(links_up=False).ok

    def test_host_errors_inform_but_do_not_fail(self):
        assert self._report(run=_run(errors=["P1: transient redial noise"])).ok

    def test_render_carries_the_verdict_and_plan(self):
        report = self._report()
        text = report.render()
        assert text.index("net run: fifo") < text.index("chaos: seed 0")
        assert ChaosPlan.from_json(report.plan).describe() in text
        assert "violations  none" in text
        assert "none lost or double-delivered" in text
        assert "verdict     OK" in text
        bad = self._report(acked_lost=["m1", "m2"]).render()
        assert "2 LOST" in bad
        assert "verdict     FAILED" in bad

    def test_to_json_is_serializable_and_carries_ok(self):
        body = self._report().to_json()
        assert body["ok"] is True
        assert (body["run"]["offered"], body["run"]["invoked"]) == (10, 10)
        assert body["run"]["pending"] == 0 and body["run"]["quiesced"] is True
        json.dumps(body)  # must be wire-clean


class TestPlanReplay:
    def test_cli_replays_a_saved_report(self, tmp_path, monkeypatch):
        """`--plan` takes "JSON from a previous report", which keeps the
        plan under "plan": the replay runs its actions and its seed."""
        plan = ChaosPlan.generate(1, 3, 2.5)
        saved = tmp_path / "report.json"
        saved.write_text(
            json.dumps({"seed": 1, "mode": "inline", "plan": plan.to_json()})
        )
        ran = {}

        def record(protocol, **kwargs):
            ran.update(kwargs)
            raise RuntimeError("recorded")

        monkeypatch.setattr("repro.chaos.run_chaos_sync", record)
        assert main(["chaos", "--plan", str(saved)]) == 2
        assert ran["plan"] == plan and ran["seed"] == 1

    def test_a_file_without_actions_is_one_line_and_exit_2(
        self, tmp_path, monkeypatch, capsys
    ):
        saved = tmp_path / "empty.json"
        saved.write_text(json.dumps({"seed": 0, "n_processes": 3}))
        monkeypatch.setattr(
            "repro.chaos.run_chaos_sync",
            lambda *args, **kwargs: pytest.fail("ran without a plan"),
        )
        assert main(["chaos", "--plan", str(saved)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'actions'" in err


class TestHandlesRunOneCatalogueEntry:
    @pytest.mark.parametrize("protocol", ("fifo", "reliable-fifo", "sync-rdv"))
    def test_inline_and_proc_hosts_resolve_the_same_entry(self, protocol):
        """The entry an inline host builds from is the one the name on a
        proc host's `repro serve` command line resolves to in the child:
        same ARQ defaults, same specification, however `protocol` was
        spelt."""
        entry = resolve(protocol).reliable()
        inline = InlineHost(
            entry, 0, [9400, 9401], 9402, "wal", "run", fast_resilience()
        )
        command = ProcHost(entry, 0, 9400, 2, 9402, "wal", "run")._command()
        served = resolve(command[command.index("serve") + 1])
        assert served is inline.entry
        built = served.factory(0, 2)
        assert isinstance(built, ReliableProtocol)
        assert not isinstance(built.inner, ReliableProtocol)
        assert (built.max_retries, built.send_window) == (30, None)


class TestLiveChaos:
    def test_inline_run_survives_link_severs(self):
        # Seed 0 over 3 processes schedules link severs: the full loop --
        # detector, supervised re-dial, ARQ resume, WAL cross-check --
        # must come back with every invariant intact.
        with tempfile.TemporaryDirectory() as root:
            report = run_chaos_sync(
                "fifo",
                wal_root=root,
                seed=0,
                rate=80.0,
                duration=2.0,
                convergence_deadline=20.0,
            )
            assert report.mode == "inline"
            assert any(
                action["kind"] in ("sever", "blackhole", "kill")
                for action in report.plan["actions"]
            )
            assert report.acked > 0
            assert report.ok, report.render()

    def test_a_killed_host_gets_load_after_its_restart(self):
        # P1 dies inside the load phase: the generator re-dials it once
        # it is back, and its new incarnation logs invokes of its own.
        plan = ChaosPlan(
            seed=0,
            n_processes=3,
            actions=(ChaosAction(at=0.3, kind="kill", target=1, duration=0.3),),
        )
        with tempfile.TemporaryDirectory() as root:
            report = run_chaos_sync(
                "fifo",
                wal_root=root,
                plan=plan,
                rate=100.0,
                duration=1.5,
                convergence_deadline=10.0,
            )
            assert report.ok, report.render()
            assert report.restarts == report.observer_reconnects == 1
            # The survivors' re-dials to P1's new incarnation, over METRICS.
            assert report.link_transitions.get("link.redial", 0) > 0
            assert report.run.invoked == report.acked > 0
            invokes = Counter()
            incarnation = None
            for record in read_log(os.path.join(root, "p1")).records:
                if record.kind == META:
                    incarnation = record.body["incarnation"]
                elif record.kind == INPUT and record.body["op"] == "invoke":
                    invokes[incarnation] += 1
            assert invokes[0] > 0 and invokes[1] > 0, invokes
