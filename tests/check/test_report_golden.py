"""Check and soak reports stay byte-identical to their golden digests.

``repro check`` and ``repro soak`` promise byte-identical reports for a
seed; CI compares two runs of one tree, which cannot see a change that
moves both.  These pins (``tests/golden.py``) compare against the tree
they were captured on, so a refactor of the drivers, the nemesis or the
oracles that alters one scheduled event or RNG draw fails here.
"""

import pytest

from tests.golden import REPORT_GOLDEN, report_digest


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_report_matches_golden(name):
    assert report_digest(name) == REPORT_GOLDEN[name]
