"""CLI surface of the WAL subsystem: record, replay, and the one-line
collector errors.

`repro simulate --record` / `repro replay` round trips, exit codes as
the CI smoke step relies on them (0 clean, 1 violation, 2 unreadable),
JSON artifacts, and the `repro trace` / `repro top` connection-refused
paths that must print a single stderr line instead of a traceback.
"""

import json

import pytest

from repro.cli import main
from repro.mc.mutations import mutation_factories
from repro.net.cluster import free_ports
from repro.predicates.catalog import FIFO_ORDERING
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.wal import WalSink, replay_log


class TestSimulateRecordReplayRoundTrip:
    def _record(self, directory, spec="fifo", messages="18", seed="3"):
        return main(
            [
                "simulate",
                spec,
                "--messages",
                messages,
                "--seed",
                seed,
                "--record",
                str(directory),
            ]
        )

    def test_clean_run_replays_clean(self, tmp_path, capsys):
        assert self._record(tmp_path) == 0
        out = capsys.readouterr().out
        assert "recorded:" in out and str(tmp_path) in out

        assert main(["replay", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "verification:      OK" in out
        assert "spec:              fifo" in out

    def test_replayed_violation_exits_one_with_assignment(
        self, tmp_path, capsys
    ):
        # An asynchronous run recorded, then judged against FIFO: the
        # replay must find the violation and name its witnesses.
        assert self._record(tmp_path, spec="asynchronous") == 0
        capsys.readouterr()
        assert main(["replay", str(tmp_path), "--spec", "fifo"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION fifo" in out
        assert "x=" in out and "y=" in out

    def test_json_artifact_carries_the_verdict(self, tmp_path, capsys):
        self._record(tmp_path, spec="asynchronous")
        artifact = tmp_path / "replay.json"
        code = main(
            [
                "replay",
                str(tmp_path),
                "--spec",
                "fifo",
                "--json",
                str(artifact),
            ]
        )
        capsys.readouterr()
        assert code == 1
        body = json.loads(artifact.read_text())
        assert body["violation"]["predicate"] == "fifo"
        assert set(body["violation"]["assignment"]) == {"x", "y"}
        assert body["events"] == len(body["deliveries"]) * 4
        assert body["meta"]["spec"] == "asynchronous"

    def test_replay_without_spec_skips_verification(self, tmp_path, capsys):
        """A log whose META names a spec verifies unattended; judge a
        bare log only when --spec is given."""
        self._record(tmp_path)
        capsys.readouterr()
        assert main(["replay", str(tmp_path)]) == 0
        assert "verification:      OK" in capsys.readouterr().out

    def test_missing_directory_is_a_one_line_error(self, tmp_path, capsys):
        code = main(["replay", str(tmp_path / "nothing")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro replay:")
        assert "Traceback" not in captured.err

    def test_corrupt_head_is_a_one_line_error(self, tmp_path, capsys):
        (tmp_path / "wal-00000000.seg").write_bytes(b"\x00\x00\x00\x06xxxxxx")
        code = main(["replay", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "repro replay:" in captured.err


class TestUnresolvedRecordedSpec:
    """A log whose META names a spec that does not resolve is not
    judged: the replay says so and why, and the CLI exits 2 instead of
    reporting OK for a run it never monitored."""

    REASON = "recorded spec 'fifo-typo' does not resolve; pass --spec"

    def _record(self, directory):
        # The seeded broken-fifo run of test_wal_replay, which violates
        # fifo, recorded under a misspelt spec name.
        sink = WalSink(
            str(directory),
            meta={"protocol": "broken-fifo", "spec": "fifo-typo"},
            fsync=False,
        )
        try:
            run_simulation(
                mutation_factories()["broken-fifo"],
                random_traffic(3, 16, seed=4),
                seed=4,
                latency=UniformLatency(low=1.0, high=30.0),
                wal=sink,
            )
        finally:
            sink.close()

    def test_replay_result_says_it_was_not_monitored(self, tmp_path):
        self._record(tmp_path)
        result = replay_log(str(tmp_path))
        assert result.unmonitored == self.REASON
        assert result.violation is None and not result.clean
        judged = replay_log(str(tmp_path), spec=FIFO_ORDERING)
        assert judged.unmonitored is None and judged.violation is not None

    def test_cli_skips_with_the_reason_and_exits_two(self, tmp_path, capsys):
        self._record(tmp_path)
        artifact = tmp_path / "replay.json"
        code = main(["replay", str(tmp_path), "--json", str(artifact)])
        out = capsys.readouterr().out
        assert code == 2
        assert "verification:      skipped (%s)" % self.REASON in out
        assert "verification:      OK" not in out
        body = json.loads(artifact.read_text())
        assert body["skipped"] == self.REASON and body["violation"] is None

        assert main(["replay", str(tmp_path), "--spec", "fifo"]) == 1
        assert "VIOLATION fifo" in capsys.readouterr().out


class TestReplayExplore:
    def test_explore_continues_into_the_checker(self, tmp_path, capsys):
        assert (
            main(
                [
                    "simulate",
                    "fifo",
                    "--messages",
                    "8",
                    "--seed",
                    "1",
                    "--record",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # The sim META names a spec, not a protocol, so --explore must
        # refuse with a one-line error rather than guess the factory.
        code = main(["replay", str(tmp_path), "--explore"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot explore" in captured.err


class TestCollectorErrorsAreOneLiners:
    """Satellite: `repro top`/`repro trace` against a dead or wrong-
    version collector exit 1 with a single operator-facing line."""

    def _dead_port(self):
        return free_ports(1)[0]

    def test_trace_connection_refused(self, capsys):
        port = self._dead_port()
        code = main(
            [
                "trace",
                "--port-base",
                str(port),
                "--timeout",
                "0.3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert "connection refused" in captured.err
        assert "repro serve" in captured.err
        assert "Traceback" not in captured.err

    def test_top_connection_refused(self, capsys):
        port = self._dead_port()
        code = main(
            [
                "top",
                "--port-base",
                str(port),
                "--interval",
                "0.1",
                "--timeout",
                "0.3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "repro top: connection refused" in captured.err
        assert "Traceback" not in captured.err

    def test_wrong_frame_version_names_the_build(self, capsys, monkeypatch):
        """An older collector speaking an older frame version gets the
        'older build?' hint, not a stack trace."""
        import asyncio

        from repro.net import codec

        port = free_ports(1)[0]

        async def _old_speaker():
            async def handler(reader, writer):
                frame = bytearray(
                    codec.encode_frame(codec.HELLO, {"process": 0})
                )
                frame[4] = codec.WIRE_VERSION + 9  # a future/foreign build
                writer.write(bytes(frame))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", port)
            async with server:
                task = asyncio.get_running_loop().run_in_executor(
                    None,
                    main,
                    [
                        "trace",
                        "--port-base",
                        str(port),
                        "--timeout",
                        "2",
                    ],
                )
                return await task

        code = asyncio.run(_old_speaker())
        captured = capsys.readouterr()
        assert code == 1
        assert "older build" in captured.err
        assert "Traceback" not in captured.err
