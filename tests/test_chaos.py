"""Chaos layer: seeded fault plans, the WAL cross-check, reports, live
runs, and one generated plan run both live and in the simulator."""

import json
import os
import tempfile
from collections import Counter

import pytest

from repro.chaos import ChaosReport, run_chaos_sync, wal_cross_check
from repro.chaos.harness import InlineHost, ProcHost, fast_resilience
from repro.cli import main
from repro.events import Message
from repro.faults import ACTION_KINDS, FaultAction, FaultPlan
from repro.net import codec
from repro.net.cluster import NetRunReport
from repro.net.transport import DEFAULT_TIME_SCALE
from repro.obs.metrics import Histogram
from repro.protocols.registry import resolve
from repro.protocols.reliable import ReliableProtocol
from repro.simulation import random_traffic, run_simulation
from repro.wal import EVENT, SegmentWriter, content_id, read_log
from repro.wal.records import INPUT, META, WalRecord, invoke_record


class TestFaultAction:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            FaultAction(at=0.0, kind="meteor", target=0, duration=1.0)
        with pytest.raises(ValueError, match="duration"):
            FaultAction(at=0.0, kind="kill", target=0, duration=0.0)
        with pytest.raises(ValueError, match="src != target"):
            FaultAction(at=0.0, kind="sever", target=1, duration=1.0, src=1)
        assert FaultAction(at=0.0, kind="kill", target=0).ends_at is None

    def test_describe_names_the_link_for_link_faults(self):
        cut = FaultAction(at=1.0, kind="sever", target=2, duration=0.5, src=0)
        assert "P0->P2" in cut.describe()
        isolate = FaultAction(at=1.0, kind="blackhole", target=2, duration=0.5)
        assert "*->P2" in isolate.describe()
        kill = FaultAction(at=1.0, kind="kill", target=2, duration=0.5)
        assert "kill P2" in kill.describe()

    def test_json_round_trip(self):
        action = FaultAction(
            at=0.25, kind="blackhole", target=1, duration=0.75, src=2
        )
        assert FaultAction.from_json(action.to_json()) == action
        bare = FaultAction(at=0.25, kind="kill", target=1, duration=0.75)
        body = bare.to_json()
        assert "src" not in body
        assert FaultAction.from_json(body) == bare
        forever = FaultAction(at=0.25, kind="kill", target=1)
        assert FaultAction.from_json(forever.to_json()) == forever


class TestGeneratedPlan:
    def test_same_seed_same_plan(self):
        first = FaultPlan.generate(7, 3, 500.0)
        second = FaultPlan.generate(7, 3, 500.0)
        assert first == second
        assert first.actions  # a 500-unit window fits at least one action

    def test_different_seeds_differ(self):
        plans = {FaultPlan.generate(seed, 3, 500.0).actions for seed in range(8)}
        assert len(plans) > 1

    def test_actions_never_overlap(self):
        for seed in range(10):
            plan = FaultPlan.generate(seed, 4, 600.0, n_actions=5)
            cursor = 0.0
            for action in plan.actions:
                assert action.at >= cursor
                cursor = action.ends_at
            assert not plan.actions or cursor == max(
                action.ends_at for action in plan.actions
            )

    def test_kind_filter_is_respected_and_validated(self):
        plan = FaultPlan.generate(3, 3, 800.0, n_actions=6, kinds=("kill",))
        assert plan.actions
        assert all(action.kind == "kill" for action in plan.actions)
        with pytest.raises(ValueError, match="unknown chaos action kind"):
            FaultPlan.generate(3, 3, 800.0, kinds=("kill", "asteroid"))
        with pytest.raises(ValueError, match="at least 2"):
            FaultPlan.generate(3, 1, 800.0)

    def test_link_faults_draw_a_distinct_source(self):
        for seed in range(20):
            plan = FaultPlan.generate(
                seed, 3, 800.0, n_actions=6, kinds=("sever", "blackhole")
            )
            for action in plan.actions:
                assert action.src is None or action.src != action.target

    def test_json_round_trip_survives_serialization(self):
        plan = FaultPlan.generate(5, 3, 500.0)
        wire = json.loads(json.dumps(plan.to_json()))
        assert FaultPlan.from_json(wire) == plan

    def test_rates_and_actions_share_one_schema(self):
        plan = FaultPlan(
            drop_rate=0.1,
            channel_dup={(0, 1): 0.5},
            script={(1, 0, 3): "drop"},
            seed=4,
            actions=(FaultAction(at=5.0, kind="pause", target=2, duration=9.0),),
        )
        wire = json.loads(json.dumps(plan.to_json()))
        assert wire["version"] == 2
        assert FaultPlan.from_json(wire) == plan

    def test_a_malformed_body_is_a_value_error(self):
        for action in ({"kind": "kill", "target": 1}, {"at": "soon", "kind": "kill", "target": 1}):
            with pytest.raises(ValueError):
                FaultPlan.from_json({"version": 2, "actions": [action]})
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.from_json({"version": 2, "actions": [], "channel_drop": [3]})
        # A non-object action and a map where rows belong.
        for body in (
            {"version": 2, "actions": [1]},
            {"version": 2, "actions": [], "channel_drop": {"0,1": 0.5}},
        ):
            with pytest.raises(ValueError, match="malformed"):
                FaultPlan.from_json(body)

    def test_a_body_without_the_version_is_refused(self):
        body = FaultPlan.generate(5, 3, 500.0).to_json()
        del body["version"]
        with pytest.raises(ValueError, match='"version": 2'):
            FaultPlan.from_json(body)
        # A report's plan is read the same way.
        body["version"] = 2
        assert FaultPlan.from_json({"seed": 5, "plan": body}).seed == 5

    def test_every_generated_kind_is_catalogued(self):
        seen = set()
        for seed in range(40):
            plan = FaultPlan.generate(seed, 3, 600.0, n_actions=4)
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
            plan=FaultPlan.generate(0, 3, 300.0),
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
        assert report.plan.describe() in text
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
        plan = FaultPlan.generate(1, 3, 250.0)
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

    def test_a_report_from_before_the_plan_version_is_refused(
        self, tmp_path, monkeypatch, capsys
    ):
        saved = tmp_path / "old-report.json"
        old_plan = {
            "seed": 1,
            "n_processes": 3,
            "actions": [{"at": 0.2, "kind": "kill", "target": 1, "duration": 0.4}],
        }
        saved.write_text(json.dumps({"seed": 1, "plan": old_plan}))
        monkeypatch.setattr(
            "repro.chaos.run_chaos_sync",
            lambda *args, **kwargs: pytest.fail("ran a pre-version plan"),
        )
        assert main(["chaos", "--plan", str(saved)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and '"version": 2' in err

    @pytest.mark.parametrize(
        "plan, reason",
        (
            (FaultPlan(drop_rate=0.05), "not packets"),
            (
                FaultPlan(actions=(FaultAction(at=5.0, kind="kill", target=1),)),
                "never heals",
            ),
            (
                # The simulator's symmetric partition: two blackholes at
                # once, which the live harness would apply one by one.
                FaultPlan(
                    actions=(
                        FaultAction(at=5.0, kind="blackhole", target=1,
                                    duration=20.0, src=0),
                        FaultAction(at=5.0, kind="blackhole", target=0,
                                    duration=20.0, src=1),
                    )
                ),
                "overlaps",
            ),
        ),
    )
    def test_the_live_harness_refuses_what_it_cannot_run(
        self, tmp_path, plan, reason
    ):
        with pytest.raises(ValueError, match=reason) as caught:
            run_chaos_sync("fifo", wal_root=str(tmp_path), plan=plan)
        assert "\n" not in str(caught.value)


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
                action.kind in ("sever", "blackhole", "kill")
                for action in report.plan.actions
            )
            assert report.acked > 0
            assert report.ok, report.render()

    def test_a_killed_host_gets_load_after_its_restart(self):
        # P1 dies inside the load phase: the generator re-dials it once
        # it is back, and its new incarnation logs invokes of its own.
        plan = FaultPlan(
            actions=(FaultAction(at=30.0, kind="kill", target=1, duration=30.0),),
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


class TestOnePlanOnBothBackends:
    """The plan CI's chaos seed generates (`repro chaos fifo --processes 3
    --seed 1 --duration 2.5`) holds the three invariants live and in the
    simulator: no ordering violation, every message delivered exactly
    once, and a run that re-converges."""

    PLAN = FaultPlan.generate(
        1, 3, 2.5 / DEFAULT_TIME_SCALE, kinds=("kill", "sever", "blackhole")
    )

    def test_the_seed_kills_and_severs(self):
        kinds = {action.kind for action in self.PLAN.actions}
        assert {"kill", "sever"} <= kinds

    def test_live_inline(self, tmp_path):
        report = run_chaos_sync(
            "fifo",
            wal_root=str(tmp_path),
            seed=1,
            rate=150.0,
            duration=2.5,
            convergence_deadline=20.0,
        )
        assert report.plan == self.PLAN
        assert report.ok, report.render()
        assert report.run.invoked == report.acked > 0

    def test_simulated(self):
        entry = resolve("fifo").reliable()
        # 150 msgs/s for 2.5 s: 1.5 messages per virtual unit.
        workload = random_traffic(3, 375, seed=1, rate=1.5)
        result = run_simulation(
            entry.factory, workload, seed=1, faults=self.PLAN, spec=entry.spec
        )
        assert result.first_violation is None
        assert result.delivered_all, result.undelivered
        assert result.stats.deliveries == len(workload.requests)
        summary = result.fault_summary
        assert summary.crashes == summary.restarts > 0
        assert summary.partition_drops > 0
