"""Tests for the causal span tracer and the Chrome trace exporter."""

import json
import os

from repro.cli import main
from repro.events import Event, Message
from repro.obs import PHASES, SpanTracer, spans_to_chrome_trace, write_chrome_trace
from repro.protocols import FifoProtocol
from repro.protocols.base import make_factory
from repro.simulation import Trace, UniformLatency, random_traffic, run_simulation

DATA = os.path.join(os.path.dirname(__file__), "data")


def _traced_run(messages=20, seed=7):
    workload = random_traffic(3, messages, seed=seed)
    result = run_simulation(
        make_factory(FifoProtocol),
        workload,
        seed=seed,
        latency=UniformLatency(low=1.0, high=40.0),
    )
    return SpanTracer(result.trace), result


class TestSpanTracer:
    def test_three_spans_per_delivered_message(self):
        tracer, result = _traced_run()
        assert result.delivered_all
        for message in result.trace.messages():
            spans = tracer.spans_of(message.id)
            assert set(spans) == set(PHASES)
            assert not any(span.incomplete for span in spans.values())

    def test_parent_chain_and_tracks(self):
        tracer, result = _traced_run()
        message = result.trace.messages()[0]
        spans = tracer.spans_of(message.id)
        inhibit, transit, buffer = (
            spans["inhibit"],
            spans["transit"],
            spans["buffer"],
        )
        assert inhibit.parent_id is None
        assert transit.parent_id == inhibit.span_id
        assert buffer.parent_id == transit.span_id
        # inhibit and transit ride the sender's track, buffer the receiver's.
        assert inhibit.track == transit.track == message.sender
        assert buffer.track == message.receiver
        # The phases abut: invoke <= send <= receive <= deliver.
        assert inhibit.end == transit.start
        assert transit.end == buffer.start
        assert buffer.duration >= 0

    def test_one_flow_per_received_message(self):
        tracer, result = _traced_run()
        flows = tracer.flows()
        assert len(flows) == len(result.trace.messages())
        by_message = {flow.message_id: flow for flow in flows}
        for message in result.trace.messages():
            flow = by_message[message.id]
            assert flow.src == message.sender
            assert flow.dst == message.receiver
            assert flow.send_time <= flow.receive_time

    def test_spans_sorted_by_start(self):
        tracer, _ = _traced_run()
        spans = tracer.spans()
        assert all(a.start <= b.start for a, b in zip(spans, spans[1:]))

    def test_finish_marks_incomplete_lifecycles(self):
        trace = Trace(2)
        trace.register_message(Message("m1", 0, 1))
        trace.register_message(Message("m2", 0, 1))
        trace.register_message(Message("m3", 0, 1))
        trace.record(0.0, 0, Event.invoke("m1"))
        trace.record(1.0, 0, Event.invoke("m3"))
        trace.record(3.0, 1, Event.receive("m2"))
        trace.record(10.0, 0, Event.send("m3"))
        tracer = SpanTracer(trace)
        # The latest record (m3's send) closes the open phases.
        inhibit = tracer.spans_of("m1")["inhibit"]
        assert inhibit.incomplete
        assert (inhibit.start, inhibit.end) == (0.0, 10.0)
        buffer = tracer.spans_of("m2")["buffer"]
        assert buffer.incomplete
        assert (buffer.start, buffer.end) == (3.0, 10.0)
        assert not tracer.spans_of("m3")["inhibit"].incomplete
        assert len(tracer.spans()) == 4  # m2 also got a transit span

    def test_simulate_trace_out_matches_its_golden(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        argv = ["simulate", "fifo", "--messages", "40", "--seed", "1"]
        assert main(argv + ["--trace-out", str(path)]) == 0
        capsys.readouterr()
        with open(os.path.join(DATA, "simulate_fifo_trace_golden.json")) as handle:
            golden = json.load(handle)
        assert json.loads(path.read_text()) == golden


class TestChromeExport:
    def test_structure(self, tmp_path):
        tracer, result = _traced_run()
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer, n_processes=3)
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"

        # One named track per process.
        names = [
            event for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        ]
        assert sorted(event["args"]["name"] for event in names) == [
            "P0",
            "P1",
            "P2",
        ]

        # One complete-event slice per message phase.
        slices = [event for event in events if event["ph"] == "X"]
        assert len(slices) == 3 * len(result.trace.messages())
        assert set(event["cat"] for event in slices) == set(PHASES)
        assert all(event["dur"] >= 1.0 for event in slices)

        # Paired flow arrows, one per message, send track to receive track.
        starts = {event["id"]: event for event in events if event["ph"] == "s"}
        finishes = {event["id"]: event for event in events if event["ph"] == "f"}
        assert len(starts) == len(finishes) == len(result.trace.messages())
        for flow_id, start in starts.items():
            finish = finishes[flow_id]
            assert finish["bp"] == "e"
            assert start["ts"] <= finish["ts"]

    def test_forced_empty_tracks(self):
        document = spans_to_chrome_trace(SpanTracer(Trace(2)), n_processes=2)
        names = [
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        ]
        assert names == ["P0", "P1"]
