"""Block traces of the runs that lean on the shared file registry.

``TRACE_GOLDEN`` (``tests/golden.py``) pins an aggregated xcdn cell,
whose every read is a remote pick over a 2 000-entry seed corpus, and
webproxy on both Redbud protocols, whose every op deletes one of its
own runtime files.  A registry that picked a different entry, or drew
from the RNG a different number of times, moves these.
"""

import pytest

from tests.golden import TRACE_GOLDEN, trace_pin


@pytest.mark.parametrize("name", sorted(TRACE_GOLDEN))
def test_registry_paths_keep_their_block_trace(name):
    assert trace_pin(name) == TRACE_GOLDEN[name]
