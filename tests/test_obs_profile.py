"""Tests for the per-phase protocol profiler behind ``repro profile``."""

from repro.obs import (
    DEFAULT_PROFILE_PROTOCOLS,
    ProtocolProfile,
    profile_protocol,
    profile_protocols,
    render_profiles,
)
from repro.protocols.registry import cached_catalogue
from repro.simulation import UniformLatency, random_traffic

WORKLOAD = random_traffic(4, 30, seed=2, color_every=6)
LATENCY = UniformLatency(low=1.0, high=40.0)


def _profiles(names):
    catalog = cached_catalogue()
    return profile_protocols(
        [(name, catalog[name].factory) for name in names],
        WORKLOAD,
        seed=2,
        latency=LATENCY,
    )


class TestCatalog:
    def test_defaults_are_in_the_catalog(self):
        catalog = cached_catalogue()
        assert set(DEFAULT_PROFILE_PROTOCOLS) <= set(catalog)
        assert len(catalog) >= 8


class TestProfileProtocol:
    def test_phase_breakdown_separates_protocol_classes(self):
        # The acceptance criterion: the profiler attributes cost to the
        # right phase for at least three catalogue protocols.  The "do
        # nothing" protocol pays nowhere; FIFO and causal pay only in
        # delivery buffering; the coordinator pays in send inhibition.
        profiles = {
            profile.name: profile
            for profile in _profiles(
                ["tagless", "fifo", "causal-rst", "sync-coord"]
            )
        }
        tagless = profiles["tagless"]
        assert tagless.inhibition_total == 0.0
        assert tagless.buffering_total == 0.0
        assert tagless.control_messages == 0
        # A tagless message carries only the 1-byte None sentinel.
        assert tagless.tag_bytes_per_message == 1.0

        for buffering_name in ("fifo", "causal-rst"):
            profile = profiles[buffering_name]
            assert profile.inhibition_total == 0.0
            assert profile.buffering_total > 0.0
            assert profile.tag_bytes_per_message > 1.0

        coordinator = profiles["sync-coord"]
        assert coordinator.inhibition_total > 0.0
        assert coordinator.control_messages > 0

    def test_all_messages_accounted(self):
        factory = cached_catalogue()["fifo"].factory
        profile = profile_protocol(
            "fifo", factory, WORKLOAD, seed=2, latency=LATENCY
        )
        assert profile.messages == len(WORKLOAD.requests)
        assert profile.delivered == profile.messages
        assert profile.undelivered == 0
        assert profile.end_to_end_p95 >= profile.end_to_end_mean


class TestRenderProfiles:
    def test_table_shape(self):
        text = render_profiles(_profiles(["tagless", "fifo"]))
        lines = text.splitlines()
        for header in ProtocolProfile.HEADERS:
            assert header in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].startswith("tagless")
        assert lines[3].startswith("fifo")
