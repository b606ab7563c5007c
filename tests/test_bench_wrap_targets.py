"""The traced benchmark run still finds every method it wraps.

``benchmarks/perf/bench_spans.py`` charges each layer's time by wrapping
named methods and module functions of the program from outside.  A
target a refactor renamed or removed is only *listed* there (its time
falls into the residual), so this test makes a missing one a failure.
The harness file is imported read-only; nothing in it is changed.

Two targets are missing on purpose: ``NetHost._vc_for_packet`` and
``NetHost._note_remote_clock`` stamped and read the flight recorder's
vector clock on USER frames.  They were deleted along with that clock
(the monitor owns causal order), not renamed, so their work is gone
rather than moved into the residual.
"""

import importlib.util
import os

from repro.net import codec
from repro.net import host as host_module
from repro.net.host import NetHost
from repro.net.transport import AsyncTransport
from repro.obs.bus import Bus
from repro.wal.sink import WalSink

BENCH_SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "perf",
    "bench_spans.py",
)
OWNERS = (NetHost, AsyncTransport, host_module, codec, Bus, WalSink)


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", BENCH_SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_wrap_target_exists_and_is_restored():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = _tracer()
    tracer.install()
    try:
        assert tracer.missing == [
            "NetHost._vc_for_packet",
            "NetHost._note_remote_clock",
        ]
        assert codec.encode_frame is not before[OWNERS.index(codec)]["encode_frame"]
    finally:
        tracer.remove()
    for owner, attributes in zip(OWNERS, before):
        after = vars(owner)
        assert set(after) == set(attributes), owner
        assert all(after[name] is value for name, value in attributes.items()), owner
