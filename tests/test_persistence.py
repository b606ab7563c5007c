"""Tests for trace and run serialization."""

import io
import json
import os

import pytest

from repro.events import Event, Message
from repro.runs.user_run import UserRun
from repro.simulation.trace import Trace

from repro.protocols import CausalRstProtocol
from repro.protocols.base import make_factory
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.simulation.persistence import (
    load_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
    user_run_from_dict,
    user_run_to_dict,
)
from repro.verification import check_run
from repro.predicates.catalog import CAUSAL_ORDERING

#: A trace and its user run as ``save_trace`` / ``user_run_to_dict``
#: wrote them when a message was spelled without payload or key.
_DATA = os.path.join(os.path.dirname(__file__), "data", "persistence_v1")


@pytest.fixture
def recorded():
    return run_simulation(
        make_factory(CausalRstProtocol),
        random_traffic(3, 15, seed=2, color_every=5),
        seed=2,
        latency=UniformLatency(1.0, 30.0),
    )


class TestMessageCodec:
    """A saved message is the codec's spelling of it, so nothing a
    message carries is dropped on the way to disk."""

    MESSAGE = Message(
        id="m1",
        sender=0,
        receiver=2,
        color="red",
        group="b1",
        payload={"text": "hi", "n": [1, 2.5]},
        ordering_key="k7",
    )

    def test_round_trip_with_attributes(self, tmp_path):
        trace = Trace(3)
        trace.register_message(self.MESSAGE)
        trace.record(0.0, 0, Event.invoke("m1"))
        path = str(tmp_path / "trace.json")
        save_trace(trace, path)
        assert load_trace(path).message("m1") == self.MESSAGE

    def test_user_run_keeps_the_whole_message(self):
        run = UserRun()
        run.add_message(self.MESSAGE)
        payload = json.loads(json.dumps(user_run_to_dict(run)))
        assert user_run_from_dict(payload).messages() == [self.MESSAGE]

    def test_files_written_before_the_codec_spelling_still_load(self):
        trace = load_trace(os.path.join(_DATA, "trace.json"))
        assert trace.message("m2") == Message(id="m2", sender=1, receiver=0, color="red")
        assert len(trace) == 16 and trace.to_user_run().is_complete()
        with open(os.path.join(_DATA, "user_run.json")) as handle:
            run = user_run_from_dict(json.load(handle))
        assert run == trace.to_user_run()


class TestTraceCodec:
    def test_dict_round_trip(self, recorded):
        payload = trace_to_dict(recorded.trace)
        restored = trace_from_dict(payload)
        assert restored.to_system_run().sequences() == recorded.system_run.sequences()
        assert restored.to_user_run() == recorded.user_run

    def test_file_round_trip(self, recorded, tmp_path):
        path = str(tmp_path / "trace.json")
        save_trace(recorded.trace, path)
        restored = load_trace(path)
        assert restored.to_user_run() == recorded.user_run

    def test_stream_round_trip(self, recorded):
        buffer = io.StringIO()
        save_trace(recorded.trace, buffer)
        buffer.seek(0)
        restored = load_trace(buffer)
        assert len(restored) == len(recorded.trace)

    def test_format_guard(self):
        with pytest.raises(ValueError, match="not a repro trace"):
            trace_from_dict({"format": "something-else"})

    def test_times_preserved(self, recorded):
        restored = trace_from_dict(trace_to_dict(recorded.trace))
        for record in recorded.trace.records():
            assert restored.time_of(record.event) == record.time

    def test_restored_run_verifies_identically(self, recorded):
        restored = trace_from_dict(trace_to_dict(recorded.trace))
        original = check_run(recorded.user_run, CAUSAL_ORDERING)
        replayed = check_run(restored.to_user_run(), CAUSAL_ORDERING)
        assert original.safe == replayed.safe


class TestUserRunCodec:
    def test_round_trip(self, recorded):
        payload = user_run_to_dict(recorded.user_run)
        restored = user_run_from_dict(payload)
        assert restored == recorded.user_run

    def test_json_serializable(self, recorded):
        text = json.dumps(user_run_to_dict(recorded.user_run))
        restored = user_run_from_dict(json.loads(text))
        assert restored == recorded.user_run

    def test_format_guard(self):
        with pytest.raises(ValueError, match="not a repro user run"):
            user_run_from_dict({"format": "nope"})

    def test_abstract_runs_round_trip(self):
        """Runs with non-realizable cross-process order survive too."""
        from repro.predicates.catalog import CAUSAL_B2
        from repro.runs.construction import run_from_predicate_instance

        run = run_from_predicate_instance(CAUSAL_B2)
        restored = user_run_from_dict(user_run_to_dict(run))
        assert restored == run
