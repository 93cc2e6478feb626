"""The rows of the sweeps that ``row_digests.py`` builds, pinned.

``rows.json`` holds the rows of the three groups as the CSV writes them,
made by ``PYTHONPATH=src python tests/row_digests.py --dump tests/rows.json``
on the build it records. A change that moves rows on purpose regenerates it
and states in CHANGES.md which rows moved, by how much and why. Rows are
compared only on the build they were dumped on (numpy, BLAS and the CPU
features that pick its kernels): elsewhere the last bits of a product may
differ, so the test skips and names the build it found.
"""

import json
import pathlib

import pytest
from row_digests import build, groups, moved_rows

DUMP = pathlib.Path(__file__).with_name("rows.json")


def test_rows_match_the_committed_dump():
    pinned = json.loads(DUMP.read_text(encoding="utf-8"))
    if pinned["build"] != build():
        pytest.skip(f"rows.json was dumped on {pinned['build']}; this build is {build()}")
    rows = groups()
    assert rows.keys() == pinned["rows"].keys()
    moved = [line for name, group in rows.items()
             for line in moved_rows(name, group, pinned["rows"][name])]
    assert not moved, "\n".join(moved)
