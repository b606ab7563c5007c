"""WAL format 2 did not move by a byte, and no content id moved.

``tests/data/wal_v2_golden/golden.json`` was written by the
``record.py`` beside it at the last commit whose writer spelled every
record field through the generic value writer.  Re-recording the same
seeded simulator runs from this tree must give the same segment files
(sha256 and record count each, rotation included) and the pinned edge
messages the same content ids.
"""

import importlib.util
import json
import os

import pytest

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "wal_v2_golden")


def _recipe():
    spec = importlib.util.spec_from_file_location(
        "wal_v2_golden_record", os.path.join(DATA, "record.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


with open(os.path.join(DATA, "golden.json")) as _handle:
    GOLDEN = json.load(_handle)


@pytest.mark.parametrize("name", sorted(GOLDEN["segments"]))
def test_segments_are_the_recorded_bytes(name):
    assert _recipe().segments(name) == GOLDEN["segments"][name]


def test_content_ids_are_the_recorded_ones():
    assert _recipe().content_ids() == GOLDEN["content_ids"]
