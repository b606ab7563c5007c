"""Collector tests: clock-offset estimation, trace stitching, repro top."""

import json
import os

import pytest

from repro.net.collector import (
    HostPull,
    OffsetSample,
    estimate_offset,
    render_top,
    stitch_flight_dumps,
)
from repro.obs.flight import FlightRecord
from repro.obs.metrics import Histogram


class TestEstimateOffset:
    def test_empty_is_zero(self):
        assert estimate_offset([]) == 0.0

    def test_midpoint_estimate(self):
        # Host clock 0.25 s ahead; symmetric 20 ms round trip.
        sample = OffsetSample(t0=100.0, t1=100.02, host_wall=100.01 + 0.25)
        assert abs(sample.rtt - 0.02) < 1e-9
        assert abs(sample.offset - 0.25) < 1e-9

    def test_min_rtt_sample_wins(self):
        true_offset = 0.25
        samples = [
            # Busy round trip: queueing skews the midpoint by 40 ms.
            OffsetSample(100.0, 100.20, 100.10 + true_offset + 0.04),
            # Quiet round trip: near-symmetric, 1 ms error.
            OffsetSample(200.0, 200.02, 200.01 + true_offset + 0.001),
            # Another busy one the estimator must ignore.
            OffsetSample(300.0, 300.50, 300.25 + true_offset - 0.08),
        ]
        estimate = estimate_offset(samples)
        assert abs(estimate - true_offset) < 0.005
        # The error bound of the chosen sample is rtt/2.
        assert abs(estimate - true_offset) <= 0.02 / 2


def _trace_body(process, records):
    return {
        "process": process,
        "wall": 1000.0,
        "virtual": 0.0,
        "time_scale": 0.001,
        "flight": {
            "process": process,
            "capacity": 4096,
            "recorded": len(records),
            "dropped": 0,
            "records": [record.to_wire() for record in records],
        },
    }


def _sender_records(mid, wall, receiver=1):
    data = {"message_id": mid, "process": 0, "receiver": receiver}
    return [
        FlightRecord(0, wall, 0.0, "invoke", dict(data)),
        FlightRecord(1, wall + 0.001, 0.001, "send", dict(data, tag_bytes=0)),
    ]


def _receiver_records(mid, wall, process=1):
    data = {"message_id": mid, "process": process, "sender": 0}
    return [
        FlightRecord(0, wall, 0.010, "receive", dict(data)),
        FlightRecord(1, wall + 0.001, 0.011, "deliver", dict(data, delayed=False)),
    ]


class TestStitch:
    def test_cross_process_flow_arrows(self):
        dumps = [
            _trace_body(0, _sender_records("m1", 1000.000)),
            _trace_body(1, _receiver_records("m1", 1000.010)),
        ]
        trace = stitch_flight_dumps(dumps, 2)
        events = trace["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        assert {s["name"] for s in spans} == {
            "m1 inhibit", "m1 transit", "m1 buffer",
        }
        starts = [e for e in events if e.get("ph") == "s"]
        ends = [e for e in events if e.get("ph") == "f"]
        assert len(starts) == len(ends) == 1
        assert starts[0]["tid"] == 0  # arrow leaves the sender's track
        assert ends[0]["tid"] == 1  # ... and lands on the receiver's
        assert ends[0]["bp"] == "e"
        assert starts[0]["id"] == ends[0]["id"]
        assert starts[0]["ts"] < ends[0]["ts"]

    def test_offset_correction_restores_event_order(self):
        # The receiver's clock runs 5 s *behind*: uncorrected, its
        # receive would sort before the sender's send.
        skew = -5.0
        dumps = [
            _trace_body(0, _sender_records("m1", 1000.000)),
            _trace_body(1, _receiver_records("m1", 1000.010 + skew)),
        ]
        uncorrected = stitch_flight_dumps(dumps, 2)
        flows = [e for e in uncorrected["traceEvents"] if e.get("ph") == "s"]
        receive = [e for e in uncorrected["traceEvents"] if e.get("ph") == "f"]
        # The receive replays before the send it answers, so the tracer
        # sees no release and the flow degenerates to zero length.
        assert flows[0]["ts"] == receive[0]["ts"]

        corrected = stitch_flight_dumps(dumps, 2, offsets={1: skew})
        flows = [e for e in corrected["traceEvents"] if e.get("ph") == "s"]
        receive = [e for e in corrected["traceEvents"] if e.get("ph") == "f"]
        assert flows[0]["ts"] < receive[0]["ts"]
        # 10 ms of transit survives the correction (timestamps are in us).
        assert abs((receive[0]["ts"] - flows[0]["ts"]) - 10_000) < 1_500

    def test_timestamps_rebase_to_the_earliest_record(self):
        dumps = [_trace_body(0, _sender_records("m1", 1000.000))]
        trace = stitch_flight_dumps(dumps, 1)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert min(span["ts"] for span in spans) == 0.0

    def test_empty_dumps_still_render(self):
        trace = stitch_flight_dumps([], 2)
        assert "traceEvents" in trace
        assert not [e for e in trace["traceEvents"] if e.get("ph") == "X"]

    def test_context_records_are_skipped(self):
        records = _sender_records("m1", 1000.0) + [
            FlightRecord(2, 1000.002, 0.002, "fault.drop", {"message_id": "m1"})
        ]
        trace = stitch_flight_dumps([_trace_body(0, records)], 1)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert {s["name"] for s in spans} == {"m1 inhibit"}


def _golden_cases():
    """Stitcher inputs whose traces were pinned before the stitcher read
    a :class:`~repro.simulation.trace.Trace`: name -> (dumps, processes,
    offsets)."""
    skewed = [
        _trace_body(0, _sender_records("m1", 1000.000)),
        _trace_body(1, _receiver_records("m1", 1000.010 - 5.0)),
    ]
    return {
        "cross_process": (
            [
                _trace_body(0, _sender_records("m1", 1000.000)),
                _trace_body(1, _receiver_records("m1", 1000.010)),
            ],
            2,
            None,
        ),
        "skewed": (skewed, 2, None),
        "skew_corrected": (skewed, 2, {1: -5.0}),
        "incomplete": (
            [
                _trace_body(
                    0,
                    _sender_records("m1", 1000.000)
                    + _sender_records("m2", 1000.002)[:1],
                ),
                _trace_body(
                    1,
                    _receiver_records("m1", 1000.010)
                    + _receiver_records("m3", 1000.012)[:1],
                ),
            ],
            2,
            None,
        ),
        "context": (
            [
                _trace_body(
                    0,
                    _sender_records("m1", 1000.0)
                    + [
                        FlightRecord(
                            2, 1000.002, 0.002, "fault.drop", {"message_id": "m1"}
                        )
                    ],
                )
            ],
            1,
            None,
        ),
        "empty": ([], 2, None),
    }


@pytest.mark.parametrize("name", sorted(_golden_cases()))
def test_stitched_trace_matches_its_golden(name):
    dumps, processes, offsets = _golden_cases()[name]
    path = os.path.join(os.path.dirname(__file__), "data", "stitch_trace_golden.json")
    with open(path) as handle:
        golden = json.load(handle)[name]
    stitched = stitch_flight_dumps(dumps, processes, offsets=offsets)
    assert json.loads(json.dumps(stitched)) == golden


def _pull(process, deliveries, invoked=None, offset=0.0, stuck=0):
    histogram = Histogram("latency")
    for value in (0.010, 0.020):
        histogram.observe(value)
    return HostPull(
        process=process,
        stats_body={
            "invoked": invoked if invoked is not None else deliveries,
            "deliveries": deliveries,
            "latencies": histogram.to_wire(),
            "retransmissions": 1,
            "duplicate_receives": 0,
            "pending": 0,
            "stuck_total": stuck,
            "stuck": [],
        },
        samples=[OffsetSample(100.0, 100.02, 100.01 + offset)],
    )


class TestRenderTop:
    def test_table_has_one_row_per_host_plus_totals(self):
        text = render_top([_pull(0, 100), _pull(1, 50)])
        lines = text.splitlines()
        assert lines[0].startswith("P   invoked")
        assert len(lines) == 4  # header + 2 hosts + sum
        assert lines[-1].startswith("sum")
        assert "150" in lines[-1]

    def test_rates_come_from_the_previous_round(self):
        previous = [_pull(0, 100)]
        current = [_pull(0, 160)]
        text = render_top(current, previous=previous, dt=2.0)
        row = text.splitlines()[1]
        assert " 30 " in row  # (160 - 100) / 2.0

    def test_offset_column_in_milliseconds(self):
        text = render_top([_pull(0, 10, offset=0.25)])
        assert "250.00" in text.splitlines()[1]

    def test_stuck_and_violation_surface(self):
        text = render_top([_pull(0, 10, stuck=3)], violation="fifo: m1 vs m2")
        assert "stuck=3" in text
        assert text.splitlines()[-1] == "VIOLATION: fifo: m1 vs m2"

    def test_links_column_shows_detector_verdicts(self):
        healthy = _pull(0, 10)
        healthy.stats_body["links"] = {"1": "up", "2": "up"}
        degraded = _pull(1, 10)
        degraded.stats_body["links"] = {"0": "up", "2": "down"}
        congested = _pull(2, 10)
        congested.stats_body["links"] = {"0": "up", "1": "up"}
        congested.stats_body["congested"] = True
        bare = _pull(3, 10)  # no resilience layer: no links key at all
        rows = render_top([healthy, degraded, congested, bare]).splitlines()
        assert "links" in rows[0]
        assert " up " in rows[1]
        assert "2:down" in rows[2]
        assert "up!" in rows[3]
        assert " - " in rows[4]
