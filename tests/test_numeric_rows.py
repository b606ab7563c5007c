"""A tag's numeric rows are priced and spelled in one step, unchanged.

:func:`~repro.simulation.trace.estimate_size` prices a list or tuple of
exact ints and floats as ``8 + 8 * len`` and
:func:`~repro.net.codec.dumps_value` spells a list or tuple of exact
ints with one join.  Differential: both against the per-item walks they
shortcut (copied below), on rows of every mix -- bools, int subclasses,
non-finite floats, nested rows -- same value, or the same error.
"""

import pytest
from hypothesis import example, given, strategies as st

from repro.events import Message
from repro.net import codec
from repro.simulation.trace import estimate_size
from tests.test_wal_bytes import Colour, Count, values

# -- the references: one call per item ----------------------------------------


def _reference_items(obj):
    return 8 + sum(map(reference_size, obj))


_REFERENCE_SIZES = {
    type(None): lambda obj: 1,
    bool: lambda obj: 1,
    int: lambda obj: 8,
    float: lambda obj: 8,
    str: len,
    bytes: len,
    tuple: _reference_items,
    list: _reference_items,
    set: _reference_items,
    frozenset: _reference_items,
    dict: lambda obj: _reference_items(obj.keys())
    + sum(map(reference_size, obj.values())),
}


def reference_size(obj):
    """``estimate_size`` before it priced a numeric row in one step."""
    size = _REFERENCE_SIZES.get(type(obj))
    if size is not None:
        return size(obj)
    for base, size in _REFERENCE_SIZES.items():
        if isinstance(obj, base):
            return size(obj)
    if isinstance(obj, Message):
        return 16 + reference_size(obj.id) + reference_size(obj.color)
    if hasattr(obj, "__dict__"):
        return 8 + reference_size(vars(obj))
    return 8


_REFERENCE_TEXTS = {
    type(None): codec.scalar_text,
    bool: codec.scalar_text,
    str: codec.scalar_text,
    int: codec.scalar_text,
    float: codec.scalar_text,
    tuple: lambda value: '{"T":[%s]}' % ",".join(map(reference_dumps, value)),
    list: lambda value: '{"L":[%s]}' % ",".join(map(reference_dumps, value)),
    set: lambda value: '{"S":[%s]}'
    % ",".join(map(reference_dumps, sorted(value, key=repr))),
    frozenset: lambda value: '{"F":[%s]}'
    % ",".join(map(reference_dumps, sorted(value, key=repr))),
    dict: lambda value: '{"D":[%s]}'
    % ",".join(
        ["[%s,%s]" % (reference_dumps(k), reference_dumps(v)) for k, v in value.items()]
    ),
}


def reference_dumps(value):
    """``dumps_value`` before it joined an int row in one step."""
    text = _REFERENCE_TEXTS.get(type(value))
    if text is not None:
        return text(value)
    for base, text in _REFERENCE_TEXTS.items():
        if isinstance(value, base):
            return text(value)
    raise codec.CodecError(
        "value of type %s is not wire-encodable: %r" % (type(value).__name__, value)
    )


# -- generated rows -----------------------------------------------------------

numbers = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([True, False, Colour.RED, Count(3), float("nan"), -0.0]),
)
rows = st.one_of(
    st.lists(st.integers(), max_size=8),
    st.lists(numbers, max_size=8),
    st.lists(st.one_of(numbers, st.none(), st.text(max_size=2)), max_size=6),
)
tags = st.recursive(
    st.one_of(rows, rows.map(tuple)),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple)
    ),
    max_leaves=12,
)


class _Row(tuple):
    pass


MATRIX = tuple(tuple(range(row, row + 8)) for row in range(8))


class TestPricing:
    @given(st.one_of(tags, values))
    @example(MATRIX)
    @example([1, 2.5, True])
    @example(_Row((1, 2)))
    @example(())
    def test_matches_the_per_item_walk(self, value):
        assert estimate_size(value) == reference_size(value)

    def test_a_matrix_is_its_rows(self):
        assert estimate_size(MATRIX) == 8 + 8 * (8 + 8 * 8)


class TestSpelling:
    @given(st.one_of(tags, values))
    @example(MATRIX)
    @example([1, True, 2])
    @example((Count(3), 4))
    @example(_Row((1, 2)))
    @example([2**80, -1, 0])
    def test_matches_the_per_item_walk(self, value):
        try:
            expected = reference_dumps(value)
        except codec.CodecError as exc:
            with pytest.raises(codec.CodecError) as raised:
                codec.dumps_value(value)
            assert str(raised.value) == str(exc)
            return
        assert codec.dumps_value(value) == expected
