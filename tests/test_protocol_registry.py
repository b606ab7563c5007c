"""`repro.protocols.registry.resolve`: the one place a protocol name means
something, and the consumers that must not decide again on their own."""

import pytest

from repro.cli import main
from repro.mc.mutations import BrokenFifoProtocol
from repro.mc.registry import resolve_protocol
from repro.predicates.catalog import CAUSAL_ORDERING, FIFO_ORDERING
from repro.protocols.registry import (
    cached_catalogue,
    catalogue_entry,
    resolvable_names,
    resolve,
)
from repro.protocols.reliable import ReliableProtocol


class TestResolve:
    def test_base_names_are_the_catalogue_entries(self):
        for name, entry in cached_catalogue().items():
            assert resolve(name) is entry

    def test_reliable_prefix_wraps_with_default_arq_and_keeps_the_claim(self):
        base = catalogue_entry("fifo")
        entry = resolve("reliable-fifo")
        protocol = entry.factory(0, 3)
        assert isinstance(protocol, ReliableProtocol)
        assert type(protocol.inner) is type(base.factory(0, 3))
        assert (entry.spec, entry.protocol_class) == (base.spec, base.protocol_class)
        assert entry.uses_control_messages  # the acks
        assert resolve("reliable-fifo") is entry  # one shared entry per name

    def test_mutations_are_held_to_the_spec_of_what_they_break(self):
        broken = resolve("broken-fifo")
        assert isinstance(broken.factory(0, 2), BrokenFifoProtocol)
        assert broken.spec is FIFO_ORDERING
        assert resolve("broken-causal-rst").spec is CAUSAL_ORDERING
        assert resolve("reliable-broken-fifo").spec is FIFO_ORDERING

    def test_reliable_of_an_entry_is_its_prefixed_name(self):
        entry = resolve("causal-rst").reliable()
        assert entry is resolve("reliable-causal-rst")
        assert entry.reliable() is entry  # never stacked twice

    def test_unknown_names_list_what_is_available(self):
        for name in ("nope", "reliable-nope", "reliable-reliable-fifo"):
            with pytest.raises(KeyError, match="unknown protocol %r" % name):
                resolve(name)
        assert "reliable-sync-rdv" in resolvable_names()

    def test_shard_lane_follows_the_specification(self):
        lanes = {name: resolve(name).shard_lane for name in resolvable_names()}
        assert lanes["fifo"] == lanes["reliable-fifo"] == "fifo"
        assert lanes["causal-rst"] == lanes["causal-ses"] == "causal"
        assert lanes["broken-fifo"] == "broken-fifo"
        # No lane implements this mutation; a correct causal lane under
        # its name would certify a protocol nobody ran.
        assert lanes["broken-causal-rst"] is None
        for name in ("tagless", "flush", "k-weaker(2)", "sync-coord", "sync-rdv"):
            assert lanes[name] is None, name


class TestTheArqParametersHaveOneOwnerEach:
    """`repro serve reliable-fifo` (what `repro chaos --proc` launches)
    used to get the model checker's stop-and-wait, one-retry ARQ."""

    def _served_factory(self, monkeypatch, argv):
        class Captured(Exception):
            pass

        def fake_host(factory, *args, **kwargs):
            raise Captured(factory)

        monkeypatch.setattr("repro.net.NetHost", fake_host)
        with pytest.raises(Captured) as caught:
            main(["serve", "--process-id", "0"] + argv)
        return caught.value.args[0]

    @pytest.mark.parametrize(
        "argv", (["reliable-fifo"], ["fifo", "--drop-rate", "0.1"])
    )
    def test_a_served_reliable_protocol_gets_the_default_window(
        self, monkeypatch, argv
    ):
        protocol = self._served_factory(monkeypatch, argv)(0, 3)
        assert isinstance(protocol, ReliableProtocol)
        assert protocol.max_retries == 30
        assert protocol.send_window is None
        assert not isinstance(protocol.inner, ReliableProtocol)

    def test_no_reliable_serves_the_bare_protocol(self, monkeypatch):
        factory = self._served_factory(
            monkeypatch, ["fifo", "--drop-rate", "0.1", "--no-reliable"]
        )
        assert not isinstance(factory(0, 3), ReliableProtocol)

    def test_the_checker_keeps_its_finite_tree_parameters(self):
        served = resolve("reliable-fifo").factory(0, 3)
        checked = resolve_protocol("reliable-fifo")(0, 3)
        assert (served.max_retries, served.send_window) == (30, None)
        assert (
            checked.max_retries,
            checked.retransmit_window,
            checked.send_window,
        ) == (1, 1, 1)
        assert type(checked.inner) is type(served.inner)

    def test_the_checker_registry_is_a_view_of_the_catalogue(self):
        assert resolve_protocol("fifo") is catalogue_entry("fifo").factory


class TestShardedServeRefusals:
    def test_general_class_protocol_is_refused_by_class_not_by_name_list(
        self, capsys
    ):
        assert main(["serve", "sync-coord", "--shards", "2"]) == 2
        err = capsys.readouterr().err
        assert "general class" in err and "logically-synchronous" in err
        assert "fifo" not in err  # no hard-coded list of the names that work

    def test_unknown_protocol_is_one_line(self, capsys):
        assert main(["serve", "causal", "--shards", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown protocol 'causal'" in err

    def test_a_wal_is_refused_because_a_worker_keeps_no_log(self, capsys, tmp_path):
        """A shard worker has no recovery, so `--wal` would promise what
        the fleet does not do: it is refused before anything is spawned."""
        code = main(["serve", "fifo", "--shards", "2", "--wal", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1 and "--wal" in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []
