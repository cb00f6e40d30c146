"""Layout encoding algebra: roots, partitions, equivalence."""

from __future__ import annotations

import pytest

from tilec.ir import TilingHint
from tilec.layouts import (
    BlockedEncoding,
    DotOperandEncoding,
    LayoutError,
    SliceEncoding,
    equivalent_blocked,
    tile_root,
)

BLOCKED = BlockedEncoding((32, 64), (8, 4), (1, 0))


def test_blocked_validation():
    with pytest.raises(LayoutError):
        BlockedEncoding((32,), (8, 4), (1, 0))
    with pytest.raises(LayoutError):
        BlockedEncoding((32, 64), (8, 4), (0, 0))
    with pytest.raises(LayoutError):
        DotOperandEncoding(2, BLOCKED)


def test_tile_root_square_default():
    enc = tile_root((256, 256), 32)
    assert enc == BlockedEncoding((32, 64), (8, 4), (1, 0))


def test_tile_root_tall_tile():
    # the square rule favors the most even per-warp aspect ratio
    assert tile_root((128, 64), 8) == BlockedEncoding((32, 32), (4, 2), (1, 0))
    # the attention O tile gets its (8, 1) grid from the horizontal hint
    assert tile_root((128, 64), 8, "horizontal") == BlockedEncoding((16, 64), (8, 1), (1, 0))


def test_tile_root_hints():
    assert tile_root((256, 256), 32, TilingHint.horizontal).warps_per_cta == (32, 1)
    assert tile_root((256, 256), 32, "vertical").warps_per_cta == (1, 32)
    assert tile_root((256, 256), 32, TilingHint.square) == tile_root((256, 256), 32)
    with pytest.raises(LayoutError, match="'diagonal'"):
        tile_root((256, 256), 4, "diagonal")


def test_tile_root_rank1():
    enc = tile_root((128,), 8)
    assert enc == BlockedEncoding((16,), (8,), (0,))


def test_tile_root_indivisible():
    with pytest.raises(LayoutError):
        tile_root((100, 256), 32, "horizontal")  # 100 % 32 != 0
    # the passes hand the hint over as the dot's plain-string attribute
    with pytest.raises(LayoutError, match="not divisible by any vertical warp grid for 3 warps"):
        tile_root((256, 256), 3, "vertical")
    with pytest.raises(LayoutError, match="not divisible by any vertical warp grid for 3 warps"):
        tile_root((256, 256), 3, TilingHint.vertical)


def test_equivalent_blocked_identity():
    assert equivalent_blocked(BLOCKED, (256, 256)) == BLOCKED


def test_equivalent_blocked_clamps_to_shape():
    # a broadcast source keeps its operand's encoding; the partition of the
    # narrow tensor clamps the per-warp tile to the actual dims
    got = equivalent_blocked(BlockedEncoding((16, 64), (8, 1), (1, 0)), (128, 1))
    assert got == BlockedEncoding((16, 1), (8, 1), (1, 0))


def test_equivalent_blocked_dot_operands():
    a = equivalent_blocked(DotOperandEncoding(0, BLOCKED), (256, 32))
    assert a == BlockedEncoding((32, 32), (8, 4), (1, 0))
    b = equivalent_blocked(DotOperandEncoding(1, BLOCKED), (32, 256))
    assert b == BlockedEncoding((32, 64), (8, 4), (1, 0))


def test_equivalent_blocked_slice():
    # slicing away dim 1 keeps the row partition and renumbers the order
    got = equivalent_blocked(SliceEncoding(1, DotOperandEncoding(0, BLOCKED)), (256,))
    assert got == BlockedEncoding((32,), (8,), (0,))


def test_slice_of_dot_operand_parent_rejected():
    with pytest.raises(LayoutError):
        equivalent_blocked(DotOperandEncoding(0, SliceEncoding(1, BLOCKED)), (4, 4))


