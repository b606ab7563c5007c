"""The one log reader: what it decodes did not move, only how.

``repro replay``, restart recovery and the live observer all read WAL
records through :func:`repro.wal.records.decode_record`, whose body
parser is one C scan of the text and then
:func:`repro.net.codec.decode_value`.  That decoder takes a JSON scalar
as it is, so a container of scalars costs one call, not one per item.
Three angles:

- differential: ``decode_value`` against the recursive decoder it
  replaced (copied below), on every value the writer can spell and on
  malformed wrapper trees -- same value, ``repr`` and types, or the same
  error class and message;
- parity: stored logs and the golden recipe runs decode to the bodies
  ``json.loads`` plus that reference gives; padding still reads,
  trailing bytes are still corrupt;
- nesting past the recursion limit is a codec error at every reader,
  not a ``RecursionError``.
"""

import importlib.util
import json
import os
import struct
import sys
import zlib

import pytest
from hypothesis import example, given, strategies as st

from repro.net import codec
from repro.net.codec import MalformedFrame
from repro.wal import read_segment
from repro.wal.records import (
    CHECKPOINT,
    WAL_VERSION,
    WalCorrupt,
    WalRecord,
    decode_record,
)
from repro.wal.segment import segment_paths
from tests.test_wal_bytes import Colour, Count, Label, values

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# -- the reference: the recursive decoder, one call per value ----------------

_SCALAR_TYPES = (bool, int, float, str)
_EXACT_SCALARS = frozenset({type(None), *_SCALAR_TYPES})


def _reference_pairs(items):
    if not isinstance(items, list) or any(
        not isinstance(pair, list) or len(pair) != 2 for pair in items
    ):
        raise MalformedFrame("dict encoding must be a list of pairs")
    decoded = {reference_decode(k): reference_decode(v) for k, v in items}
    if len(decoded) != len(items):
        raise MalformedFrame("dict encoding repeats a key: %r" % (items,))
    return decoded


def _reference_members(kind, items):
    decoded = kind(map(reference_decode, items))
    if len(decoded) != len(items):
        raise MalformedFrame("set encoding repeats a member: %r" % (items,))
    return decoded


_REFERENCE_CONTAINERS = {
    "T": lambda items: tuple(map(reference_decode, items)),
    "L": lambda items: list(map(reference_decode, items)),
    "S": lambda items: _reference_members(set, items),
    "F": lambda items: _reference_members(frozenset, items),
}


def reference_decode(value):
    """``decode_value`` before it took scalars without a call."""
    if type(value) in _EXACT_SCALARS or isinstance(value, _SCALAR_TYPES):
        return value
    if not isinstance(value, dict):
        raise MalformedFrame("undecodable wire value %r" % (value,))
    if len(value) != 1:
        raise MalformedFrame(
            "container wrapper must have exactly one tag key, got %r"
            % (sorted(value),)
        )
    ((tag, items),) = value.items()
    try:
        if tag == "D":
            return _reference_pairs(items)
        container = _REFERENCE_CONTAINERS.get(tag)
        if container is None:
            raise MalformedFrame("unknown container tag %r" % (tag,))
        if not isinstance(items, list):
            raise MalformedFrame("container items must be a list, got %r" % (items,))
        return container(items)
    except TypeError as exc:
        raise MalformedFrame("unhashable member in %r: %s" % (value, exc)) from exc


def assert_same_types(got, want):
    """``got`` and ``want`` have the exact same type at every depth."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_types(a, b)
    elif isinstance(want, dict):
        assert len(got) == len(want)
        for (ka, va), (kb, vb) in zip(got.items(), want.items()):
            assert_same_types(ka, kb)
            assert_same_types(va, vb)
    elif isinstance(want, (set, frozenset)):
        assert len(got) == len(want)
        for a, b in zip(sorted(got, key=repr), sorted(want, key=repr)):
            assert_same_types(a, b)


def assert_decodes_like_the_reference(tree):
    try:
        expected = reference_decode(tree)
    except Exception as exc:  # noqa: BLE001 - whatever it raised, so must this
        with pytest.raises(Exception) as raised:
            codec.decode_value(tree)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return
    decoded = codec.decode_value(tree)
    assert decoded == expected
    assert repr(decoded) == repr(expected)
    assert_same_types(decoded, expected)


# -- (1) decode_value ---------------------------------------------------------


class ListOf(list):
    """A list subclass: its items decode to the same plain container."""


wrapper_tags = st.sampled_from(["T", "L", "S", "F", "D", "X", "", 1])
malformed_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(),
    st.text(max_size=2),
    st.sampled_from([Colour.RED, Label("l"), Count(2), b"raw", 1j, ()]),
)


def _malformed(children):
    items = st.lists(children, max_size=4)
    pairs = st.lists(
        st.one_of(
            st.tuples(children, children).map(list),  # a pair
            st.lists(children, max_size=3),  # a pair of length != 2
            children,  # not a list at all
        ),
        max_size=4,
    )
    return st.one_of(
        items,  # a raw list in a value position
        items.map(ListOf),
        st.builds(lambda tag, xs: {tag: xs}, wrapper_tags, items),
        st.builds(lambda tag, xs: {tag: ListOf(xs)}, wrapper_tags, items),
        st.builds(lambda xs: {"D": xs}, pairs),
        st.builds(lambda tag, x: {tag: x}, wrapper_tags, children),  # items not a list
        st.dictionaries(wrapper_tags, items, max_size=3),  # 0-3 tag keys
        st.builds(lambda x: {"D": [[x, 1], [x, 2]]}, children),  # a repeated key
        st.builds(lambda x: {"S": [x, x]}, children),  # a repeated member
        st.builds(lambda x: {"F": [{"L": [x]}]}, children),  # an unhashable member
    )


malformed_trees = st.recursive(malformed_leaves, _malformed, max_leaves=12)


class TestDecodeValueMatchesTheReference:
    @given(values)
    @example({1: True, True: 1})
    @example(("rdata", 4, [[0, 1], [2, 3]]))
    @example({"k": [{(1, "a"), (1.0, "b")}, frozenset({False, 0})]})
    @example((float("nan"), -0.0, [float("nan"), Colour.RED, Label("x"), Count(3)]))
    def test_every_spelled_value(self, value):
        try:
            text = codec.dumps_value(value)
        except codec.CodecError:
            return  # outside the vocabulary: nothing is ever read back
        assert_decodes_like_the_reference(json.loads(text))
        # The writer's tree keeps scalar subclasses (an IntEnum, a str
        # subclass): each is taken as it is, subclass and all.
        assert_decodes_like_the_reference(codec.encode_value(value))

    @given(malformed_trees)
    @example({"D": [[{"X": []}, 1], [1]]})  # a bad pair after a bad value
    @example({"D": [[[1], 2]]})  # a raw list as a key
    @example({"D": [[{"L": [1]}, 2]]})  # an unhashable key
    @example({"D": [[{"X": 1}, {"Y": 2}]]})  # the key is decoded first
    @example({"T": [1, [2]]})
    @example({"L": ListOf([1, Colour.RED])})
    @example({"S": [{"D": []}]})
    def test_every_malformed_tree(self, tree):
        assert_decodes_like_the_reference(tree)


def test_an_rst_tag_costs_one_call_per_container(monkeypatch):
    """RST's ARQ tag, ``("rdata", seq, 8x8 matrix)``: the tuple, the
    matrix and its eight rows, and no call for any of the 66 scalars."""
    matrix = [[(row * 8 + column) % 5 for column in range(8)] for row in range(8)]
    tree = json.loads(codec.dumps_value(("rdata", 17, matrix)))
    calls = []
    decode = codec.decode_value

    def counting(value):
        calls.append(value)
        return decode(value)

    monkeypatch.setattr(codec, "decode_value", counting)
    assert codec.decode_value(tree) == ("rdata", 17, matrix)
    assert len(calls) == 10
    assert all(type(value) is dict for value in calls)


# -- (2) the body parser ------------------------------------------------------


def record_bytes(body: bytes, kind: int = CHECKPOINT) -> bytes:
    """One record around ``body``, framed and checksummed as on disk."""
    return (
        struct.pack("!IBBI", 6 + len(body), WAL_VERSION, kind, zlib.crc32(body))
        + body
    )


def assert_segment_reads_like_the_reference(path):
    with open(path, "rb") as handle:
        buffer = handle.read()
    offset = count = 0
    while offset < len(buffer):
        record, end = decode_record(buffer, offset)
        raw = buffer[offset + 10 : end]
        expected = reference_decode(json.loads(raw.decode("utf-8")))
        for body in (record.body, WalRecord(record.kind, text=raw.decode("utf-8")).body):
            assert body == expected
            assert repr(body) == repr(expected)
            assert_same_types(body, expected)
        offset, count = end, count + 1
    assert count > 0


class TestBodyParser:
    @pytest.mark.parametrize("log", ["fifo", "broken-fifo"])
    def test_stored_version_1_logs(self, log):
        paths = segment_paths(os.path.join(DATA, "wal_v1", log))
        assert paths
        for path in paths:
            assert_segment_reads_like_the_reference(path)

    @pytest.mark.parametrize("run", ["fifo", "causal-rst", "sync-coord", "reliable-fifo"])
    def test_golden_recipe_runs(self, run, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "wal_v2_golden_record", os.path.join(DATA, "wal_v2_golden", "record.py")
        )
        recipe = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(recipe)
        recipe.record(run, str(tmp_path))
        paths = segment_paths(str(tmp_path))
        assert len(paths) > 1  # the recipe rotates
        for path in paths:
            assert_segment_reads_like_the_reference(path)

    @pytest.mark.parametrize(
        "body", [b' {"D":[["i",1]]}', b'{"D":[["i",1]]}\n', b'\t\r\n{"D":[["i",1]]} ']
    )
    def test_a_padded_body_still_reads(self, body):
        data = record_bytes(body)
        record, end = decode_record(data)
        assert record.body == {"i": 1}
        assert end == len(data)

    @pytest.mark.parametrize(
        "body", [b'{"D":[["i",1]]}x', b'{"D":[["i",1]]}{}', b'{"D":[["i",1]]} 7']
    )
    def test_trailing_bytes_are_corrupt(self, body):
        with pytest.raises(WalCorrupt, match="malformed body at offset 0: Extra data"):
            decode_record(record_bytes(body))

    @pytest.mark.parametrize("body", [b"", b"  ", b"{", b'{"D":[["i",1]', b"\xff"])
    def test_a_body_that_is_not_one_value_is_corrupt(self, body):
        with pytest.raises(WalCorrupt, match="malformed body at offset 0"):
            decode_record(record_bytes(body))


# -- nesting past the recursion limit -----------------------------------------

DEEP = b"[" * 200_000
#: ``{"L": [{"L": [...]}]}`` nested well past the recursion limit.
DEPTH = 4 * sys.getrecursionlimit()
DEEP_WRAPPER = b'{"L":[' * DEPTH + b"0" + b"]}" * DEPTH


def deep_wrapper():
    tree = 0
    for _ in range(DEPTH):
        tree = {"L": [tree]}
    return tree


class TestDeepNesting:
    def test_decode_value(self):
        with pytest.raises(MalformedFrame, match="nested too deeply"):
            codec.decode_value(deep_wrapper())

    @pytest.mark.parametrize(
        "body",
        [DEEP, DEEP_WRAPPER],
        ids=["brackets", "wrappers"],
    )
    def test_decode_record(self, body):
        with pytest.raises(WalCorrupt, match="malformed body at offset 0"):
            decode_record(record_bytes(body))

    def test_a_deep_record_ends_the_salvaged_prefix(self, tmp_path):
        path = str(tmp_path / "wal-00000000.seg")
        clean = record_bytes(b'{"D":[["i",1]]}')
        with open(path, "wb") as handle:
            handle.write(clean + record_bytes(DEEP))
        records, dropped = read_segment(path, strict=False)
        assert [record.body for record in records] == [{"i": 1}]
        assert dropped == len(record_bytes(DEEP))
        with pytest.raises(WalCorrupt):
            read_segment(path, strict=True)

    @pytest.mark.parametrize("kind", ["json body", "value section"])
    def test_frame_decoder_feed(self, kind):
        if kind == "json body":
            payload = struct.pack("!BB", codec.WIRE_VERSION, codec.STATS) + DEEP
        else:
            head = b'{"src":1,"dst":0,"sent":0.5}'
            payload = (
                struct.pack("!BB", codec.WIRE_VERSION, codec.CONTROL)
                + struct.pack("!III", len(head), 0, len(DEEP))
                + head
                + DEEP
            )
        decoder = codec.FrameDecoder()
        with pytest.raises(MalformedFrame, match="not valid JSON"):
            decoder.feed(struct.pack("!I", len(payload)) + payload)
