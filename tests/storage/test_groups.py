"""Storage-group quorum math, loss/readmit, and re-silver semantics.

The quorum property tests (an ISSUE satellite) enumerate *every*
single- and double-loss pattern for both arrangements and assert the
recoverable set matches the uniform rule: a range survives iff at
least ``data`` live members hold it.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.util.rng import StreamRNG
from repro.storage.groups import (
    ARRANGEMENTS,
    StorageGroup,
    arrangement_named,
)
from repro.util.intervals import IntervalSet


def make_group(name="mirror3", seed=7):
    env = Environment()
    rng = StreamRNG(seed).stream("group")
    return StorageGroup(env, arrangement_named(name), rng=rng)


ranges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4000),
        st.integers(min_value=1, max_value=300),
    ),
    min_size=0,
    max_size=12,
)


class TestArrangements:
    def test_registry(self):
        assert arrangement_named("mirror3").size == 3
        assert arrangement_named("block4-2").size == 6
        assert arrangement_named("block4-2").data == 4
        for arr in ARRANGEMENTS.values():
            assert arr.tolerates == arr.size - arr.data or arr.name == "none"

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown replication"):
            arrangement_named("mirror9")

    def test_none_has_no_group(self):
        with pytest.raises(ValueError, match="nothing to replicate"):
            make_group("none")


class TestReplicate:
    def test_fans_to_all_members(self):
        group = make_group()
        delay = group.replicate(0, 4096)
        assert delay > 0
        for member in group.members:
            assert member.durable.contains(0, 4096)

    def test_skips_dead_members(self):
        group = make_group()
        group.lose(1)
        group.replicate(0, 4096)
        assert not group.members[1].durable
        assert group.members[0].durable.contains(0, 4096)
        assert group.members[2].durable.contains(0, 4096)
        assert group.degraded_writes == 1

    def test_delay_is_deterministic(self):
        a = make_group(seed=3)
        b = make_group(seed=3)
        delays_a = [a.replicate(i * 100, i * 100 + 50) for i in range(20)]
        delays_b = [b.replicate(i * 100, i * 100 + 50) for i in range(20)]
        assert delays_a == delays_b


def _quorum_reference(group, writes, lost):
    """Oracle: range survives iff >= data live members hold it.

    With full fan-out every member alive at write time holds the range;
    losses wipe a member entirely, so the reference is simply: written
    ranges survive iff (size - len(lost)) >= data.
    """
    survivors = group.size - len(lost)
    expected = IntervalSet()
    if survivors >= group.arrangement.data:
        for start, length in writes:
            expected.add(start, start + length)
    return expected


class TestQuorumMath:
    @pytest.mark.parametrize("name", ["mirror3", "block4-2"])
    @given(writes=ranges)
    @settings(max_examples=40, deadline=None)
    def test_every_single_and_double_loss_pattern(self, name, writes):
        arr = arrangement_named(name)
        patterns = [()]
        patterns += [(i,) for i in range(arr.size)]
        patterns += list(itertools.combinations(range(arr.size), 2))
        for lost in patterns:
            group = make_group(name)
            for start, length in writes:
                group.replicate(start, start + length)
            for member in lost:
                group.lose(member)
            expected = _quorum_reference(group, writes, lost)
            assert group.recoverable_set() == expected, (
                f"{name}: loss pattern {lost} gave "
                f"{group.recoverable_set()}, expected {expected}"
            )

    def test_mirror3_survives_double_loss(self):
        group = make_group("mirror3")
        group.replicate(100, 200)
        group.lose(0)
        group.lose(2)
        assert group.recoverable_set().contains(100, 200)

    def test_block42_triple_loss_exceeds_budget(self):
        group = make_group("block4-2")
        group.replicate(0, 100)
        group.lose(0)
        group.lose(1)
        with pytest.raises(RuntimeError, match="fault budget"):
            group.lose(2)

    def test_partial_holders_counted(self):
        # A readmitted-but-not-resilvered style divergence: quorum must
        # count actual holders, not just liveness.
        group = make_group("block4-2")
        group.replicate(0, 1000)
        # Manually wipe two members' durable sets (not via lose()).
        group.members[4].durable.clear()
        group.members[5].durable.clear()
        assert group.recoverable_set().contains(0, 1000)
        group.members[3].durable.clear()
        assert not group.recoverable_set().overlaps(0, 1000)


class TestLossAndResilver:
    def test_lose_destroys_durable_set(self):
        group = make_group()
        group.replicate(0, 4096)
        group.lose(1)
        assert not group.members[1].alive
        assert not group.members[1].durable

    def test_readmit_resilvers_from_survivors(self):
        group = make_group()
        group.replicate(0, 4096)
        group.lose(1)
        group.replicate(8192, 12288)
        copied = group.readmit(1)
        assert copied == 4096 + 4096
        assert group.members[1].durable == group.members[0].durable
        assert group.resilvered_bytes == copied
        assert group.divergent_members() == []

    def test_repair_converges_all_members(self):
        group = make_group("block4-2")
        group.replicate(0, 1000)
        group.lose(5)
        group.replicate(2000, 3000)
        group.readmit(5)
        assert group.divergent_members() == []
        group.members[2].durable.remove(0, 500)
        assert group.divergent_members()
        copied = group.repair()
        assert copied == 500
        assert group.divergent_members() == []

    def test_readmit_alive_member_is_noop(self):
        group = make_group()
        group.replicate(0, 100)
        assert group.readmit(1) == 0

    def test_summary_counters(self):
        group = make_group()
        group.replicate(0, 4096)
        group.lose(2)
        group.readmit(2)
        summary = group.summary()
        assert summary["arrangement"] == "mirror3"
        assert summary["losses"] == 1
        assert summary["readmissions"] == 1
        assert summary["replicated_bytes"] == 4096 * 3
        assert summary["resilvered_bytes"] == 4096


class TestStripeShares:
    def test_mirror_shares_are_copies(self):
        group = make_group("mirror3")
        shares = group.stripe_shares(b"abc")
        assert shares == [b"abc"] * 3

    def test_block_shares_reconstruct(self):
        from repro.storage.erasure import reconstruct_stripe

        group = make_group("block4-2")
        data = bytes(range(64))
        shares = group.stripe_shares(data)
        assert len(shares) == 6
        rebuilt = reconstruct_stripe(
            {i: shares[i] for i in (1, 2, 4, 5)}, len(data)
        )
        assert rebuilt == data
