from __future__ import annotations

import numpy as np
import pytest

from fvqsd import ReplicaSeed
from fvqsd.seeding import as_replica_seed


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
