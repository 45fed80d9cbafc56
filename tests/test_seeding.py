from __future__ import annotations

import numpy as np
import pytest

from fvqsd import ReplicaSeed, seeding
from fvqsd.seeding import as_replica_seed, lockstep_groups


def first_draws(gen):
    return gen.integers(0, 2**63, 4)


class TestConstruction:
    @pytest.mark.parametrize("fields", [(1, 1.5), (1.0, 0), ("1", 0), (1, None)])
    def test_non_integer_fields_rejected(self, fields):
        with pytest.raises(TypeError):
            ReplicaSeed(*fields)

    @pytest.mark.parametrize("fields", [(-1, 0), (2**64, 0), (0, -1)])
    def test_out_of_range_rejected(self, fields):
        with pytest.raises(ValueError):
            ReplicaSeed(*fields)

    def test_numpy_integers_stored_as_ints(self):
        seed = ReplicaSeed(np.uint64(7), np.int32(3))
        assert seed == ReplicaSeed(7, 3)
        assert type(seed.master_seed) is int and type(seed.replica_index) is int
        assert as_replica_seed(np.int64(7)) == ReplicaSeed(7, 0)


class TestOffset:
    def test_moves_the_replica_index_only(self):
        assert ReplicaSeed(5, 2).offset(3) == ReplicaSeed(5, 5)
        assert ReplicaSeed(5, 2).offset(0) == ReplicaSeed(5, 2)

    def test_below_zero_rejected(self):
        with pytest.raises(ValueError):
            ReplicaSeed(5, 2).offset(-3)


class TestBlocks:
    @pytest.mark.parametrize("replicas, size, bounds", [
        (10, 4, [(0, 4), (4, 8), (8, 10)]),
        (8, 4, [(0, 4), (4, 8)]),
        (3, 4, [(0, 3)]),
        (3, 3, [(0, 3)]),
        (0, 4, []),
    ], ids=["partial-last", "exact", "size-above-replicas", "size-equal", "zero"])
    def test_block_bounds(self, replicas, size, bounds):
        blocks = ReplicaSeed(9, 2).blocks(replicas, size)
        assert [(first, stop) for first, stop, _ in blocks] == bounds

    def test_block_streams_are_the_offset_streams(self):
        for first, _, gen in ReplicaSeed(9, 2).blocks(10, 4):
            np.testing.assert_array_equal(
                first_draws(gen), first_draws(ReplicaSeed(9, 2 + first).generator()))

    def test_later_start_reproduces_the_later_blocks(self):
        whole = [first_draws(gen) for _, _, gen in ReplicaSeed(9, 0).blocks(12, 4)]
        tail = [first_draws(gen) for _, _, gen in ReplicaSeed(9, 4).blocks(8, 4)]
        np.testing.assert_array_equal(whole[1:], tail)


class TestLockstepGroups:
    SEED = ReplicaSeed(9, 50)

    @pytest.mark.parametrize("replicas, cap, filled", [
        (7, 12, [11, 10]),
        (10, 10, [10, 10, 10]),
        (3, 4, [3, 3, 3]),
        (9, 100, [27]),
        (5, 2, [4, 1, 4, 1, 4, 1]),
    ], ids=["across-cells", "exact-fill", "one-block-each", "one-group",
            "block-above-cap"])
    def test_groups_pack_the_blocks_in_order(self, monkeypatch, replicas, cap,
                                             filled):
        # Blocks of 4 replicas, three cells, groups of at most cap replicas
        # of 3 bytes each, or one block.
        monkeypatch.setattr(seeding, "BLOCK_REPLICAS", 4)
        monkeypatch.setattr(seeding, "GROUP_BYTES", 3 * cap)
        groups = list(lockstep_groups(self.SEED, 3, replicas, 3))
        # Cell k is keyed at seed.offset(k * replicas).
        expected = [(cell, stop - first, gen) for cell in range(3)
                    for first, stop, gen in ReplicaSeed(9, 50 + cell * replicas)
                    .blocks(replicas, 4)]
        packed = []
        stop = 0
        for rows, cells, bounds, gens in groups:
            # The rows tile the cells' replicas in order.
            assert rows.start == stop and rows.step is None
            stop = rows.stop
            assert bounds[0] == 0 and bounds[-1] == rows.stop - rows.start
            assert bounds[-1] <= cap or len(gens) == 1
            assert len(cells) == len(gens) == len(bounds) - 1
            packed.extend(zip(cells, np.diff(bounds).tolist(), gens))
        assert stop == 3 * replicas
        assert [bounds[-1] for _, _, bounds, _ in groups] == filled
        assert [block[:2] for block in packed] == [block[:2] for block in expected]
        for (_, _, gen), (_, _, own) in zip(packed, expected):
            np.testing.assert_array_equal(first_draws(gen), first_draws(own))
        # Each group but the last would overflow with the next one's first
        # block.
        for (_, _, bounds, _), (_, _, after, _) in zip(groups, groups[1:]):
            assert bounds[-1] + after[1] > cap

    def test_zero_replicas_yield_nothing(self):
        assert list(lockstep_groups(self.SEED, 3, 0, 3)) == []
        assert list(lockstep_groups(self.SEED, 0, 5, 3)) == []
